"""How the evaluation store and the job queue open their SQLite files.

Both keep one WAL connection per process and re-open it after a
``fork``; a failed open means different things to each (the store
retries a locked open, then degrades; the queue raises), so only the
opening itself, and what becomes of an inherited connection, lives
here.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Iterable

__all__ = ["leave_inherited", "open_wal"]

#: Connections this process inherited through a ``fork``.  SQLite
#: forbids using a connection across a fork, closing included, and the
#: last reference going away (or the cycle collector) would close it.
_INHERITED: list[sqlite3.Connection] = []


def leave_inherited(conn: sqlite3.Connection | None) -> None:
    """Keep a connection another process opened referenced and unused."""
    if conn is not None:
        _INHERITED.append(conn)


def open_wal(
    path: Path,
    create_sql: Iterable[str],
    schema_version: int,
    *,
    busy_timeout_s: float,
    **connect_kwargs: Any,
) -> sqlite3.Connection:
    """A WAL connection to ``path``, its tables created and version checked.

    Makes the directory, sets ``synchronous=NORMAL`` and the busy
    timeout, runs ``create_sql`` (which must create a ``meta (key,
    value)`` table) and records ``schema_version`` in a new database.
    Another recorded version raises :class:`sqlite3.DatabaseError`
    naming both.  The connection is closed on any failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path, timeout=busy_timeout_s, **connect_kwargs)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
        for statement in create_sql:
            conn.execute(statement)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(schema_version)),
            )
        elif row[0] != str(schema_version):
            raise sqlite3.DatabaseError(
                f"schema version {row[0]!r} != supported {schema_version!r}"
            )
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn
