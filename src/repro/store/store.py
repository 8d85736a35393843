"""Persistent, content-addressed evaluation store (SQLite, WAL).

The in-memory :class:`~repro.parallel.memo.EvalMemo` makes *one run*
cheap; the :class:`EvalStore` makes the *next* run cheap.  Every exact
candidate evaluation — a DC solve plus an AWE fit — is keyed by

``(problem fingerprint) x (quantized parameter key)``

and written to a single SQLite database shared across runs, across
pool workers, and (through the service layer) across users.  The
fingerprint is a SHA-256 over everything that defines the evaluation
function (technology, spec, topology, synthesis configuration, memo
quantum — see ``engine.synthesize_opamp``), so two problems can never
cross-hit; the memo is bound to the same fingerprint and keys with the
same :func:`~repro.parallel.memo.memo_key`, so the tiers share one key
space.

Concurrency and durability model:

* The database runs in WAL mode with a busy timeout, so concurrent
  runs (and the benchmark's multi-process writer test) interleave
  safely: readers never block the writer and vice versa.
* Within one run, only the parent writes: pool workers read the store
  through their fork-inherited copy of the run's memo (the handle
  re-opens its connection in each process), and their new results
  travel home with each chain's outcome for the parent to flush, so
  results remain worker-count independent and chain workers stay
  pure.
* Writes are ``INSERT OR IGNORE`` on the ``(fingerprint, key)``
  primary key: rows are immutable once written — evaluation is
  canonical (history-independent), so both sides of any race hold the
  same value and first-writer-wins is correct, not just convenient.
* Rows are never updated or deleted, and the ``id`` column is
  ``AUTOINCREMENT`` (monotone, never reused), so ``generation()`` —
  the max row id — names an immutable prefix of the log and
  ``corpus()`` reads one problem's rows in insertion order.  No run
  reads either (a synthesis run calls ``generation()`` only to open the
  database eagerly); both stay because the repository benchmark's
  tracer (``perfbench/tracing.py``) wraps them by name.

Every failure path (corrupt file, a database still locked once the
busy timeout is spent, permission error, schema mismatch) degrades the
store to a no-op and records a
:class:`~repro.runtime.diagnostics.Diagnostic`: a broken store may
cost speed, never a result.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..runtime.diagnostics import Diagnostic, DiagnosticLog, global_log
from ..runtime.sqlite import leave_inherited, open_wal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.memo import MemoKey, MemoValue

__all__ = ["EvalStore", "STORE_FILENAME", "STORE_SCHEMA_VERSION"]

#: Database filename inside a ``store_dir``.
STORE_FILENAME = "evals.sqlite"

#: On-disk schema version.  A mismatch degrades the store (with a
#: Diagnostic) rather than guessing at a migration: the store is a
#: cache, so the safe response to an unknown layout is to ignore it.
STORE_SCHEMA_VERSION = 1

_CREATE_SQL = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS evaluations (
        id          INTEGER PRIMARY KEY AUTOINCREMENT,
        fingerprint TEXT NOT NULL,
        memo_key    TEXT NOT NULL,
        cost        REAL NOT NULL,
        metrics     TEXT,
        UNIQUE (fingerprint, memo_key)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_eval_fingerprint
        ON evaluations (fingerprint, id)
    """,
)


def _encode_key(key: "MemoKey") -> str:
    """Canonical JSON text for a memo key (name-sorted already)."""
    return json.dumps([list(item) for item in key], separators=(",", ":"))


def _decode_key(text: str) -> "MemoKey":
    return tuple((name, value) for name, value in json.loads(text))


class EvalStore:
    """Shared on-disk evaluation cache keyed by fingerprint x memo key.

    Connections are opened lazily and re-opened after a ``fork`` — a
    SQLite connection must never be shared across processes, and the
    pool's fork-start workers inherit the parent's handle along with
    the run's memo.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike[str],
        *,
        diagnostics: DiagnosticLog | None = None,
        busy_timeout_s: float = 5.0,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.path = self.store_dir / STORE_FILENAME
        self.busy_timeout_s = busy_timeout_s
        self._diagnostics = diagnostics
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        #: Once a failure degrades the store, every operation no-ops.
        self.disabled = False
        self.disable_reason: str | None = None
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # --------------------------------------------------------- connection

    def _log(self) -> DiagnosticLog:
        return self._diagnostics if self._diagnostics is not None else global_log()

    def _degrade(self, exc: BaseException, where: str) -> None:
        """Disable the store and record why; results are unaffected."""
        self.disabled = True
        self.disable_reason = f"{where}: {exc}"
        self._log().record(
            Diagnostic.from_exception(
                "store.evals",
                exc,
                severity="warning",
                suggested_fix=(
                    "synthesis continues with the in-memory memo only; "
                    "delete or repair the store file to restore warm runs"
                ),
                context={"store": str(self.path), "operation": where},
            )
        )
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None

    def _connect(self) -> sqlite3.Connection | None:
        """The live connection for *this* process, or ``None`` if degraded.

        A locked database is retried with short, capped backoff until
        ``busy_timeout_s`` is spent; any other failure (a corrupt file,
        a schema mismatch, permissions) degrades the store at once.
        """
        if self.disabled:
            return None
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        # Post-fork (or first use): open a fresh connection, leaving the
        # parent's unused and open.
        leave_inherited(self._conn)
        self._conn = None
        self._pid = pid
        deadline = time.monotonic() + self.busy_timeout_s  # deterministic-ok: lock-retry deadline, not result-affecting
        delay = 0.005
        while True:
            try:
                self._conn = open_wal(
                    self.path,
                    _CREATE_SQL,
                    STORE_SCHEMA_VERSION,
                    busy_timeout_s=self.busy_timeout_s,
                )
                return self._conn
            except (sqlite3.Error, OSError) as exc:
                left = deadline - time.monotonic()  # deterministic-ok: lock-retry deadline, not result-affecting
                locked = isinstance(exc, sqlite3.OperationalError) and (
                    "locked" in str(exc)
                )
                if not locked or left <= 0.0:
                    self._degrade(exc, "open")
                    return None
                time.sleep(min(delay, left))
                delay = min(2.0 * delay, 0.1)

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None

    # --------------------------------------------------------------- reads

    def get(self, fingerprint: str, key: "MemoKey") -> "MemoValue | None":
        """Stored ``(cost, metrics)`` for one candidate, or ``None``."""
        conn = self._connect()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT cost, metrics FROM evaluations "
                "WHERE fingerprint=? AND memo_key=?",
                (fingerprint, _encode_key(key)),
            ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc, "get")
            return None
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        cost, metrics_text = row
        metrics = None if metrics_text is None else json.loads(metrics_text)
        return float(cost), metrics

    def generation(self) -> int:
        """Max row id — an immutable watermark into the append-only log."""
        conn = self._connect()
        if conn is None:
            return 0
        try:
            row = conn.execute(
                "SELECT COALESCE(MAX(id), 0) FROM evaluations"
            ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc, "generation")
            return 0
        return int(row[0])

    def count(self, fingerprint: str | None = None) -> int:
        conn = self._connect()
        if conn is None:
            return 0
        try:
            if fingerprint is None:
                row = conn.execute("SELECT COUNT(*) FROM evaluations").fetchone()
            else:
                row = conn.execute(
                    "SELECT COUNT(*) FROM evaluations WHERE fingerprint=?",
                    (fingerprint,),
                ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(exc, "count")
            return 0
        return int(row[0])

    def corpus(
        self, fingerprint: str, up_to_generation: int | None = None
    ) -> list[tuple["MemoKey", float]]:
        """``(key, cost)`` rows for one problem, in insertion order.

        ``up_to_generation`` bounds the read to rows at or below a
        :meth:`generation` watermark.
        """
        conn = self._connect()
        if conn is None:
            return []
        sql = (
            "SELECT memo_key, cost FROM evaluations WHERE fingerprint=?"
        )
        args: list[object] = [fingerprint]
        if up_to_generation is not None:
            sql += " AND id<=?"
            args.append(int(up_to_generation))
        sql += " ORDER BY id"
        try:
            rows = conn.execute(sql, args).fetchall()
        except sqlite3.Error as exc:
            self._degrade(exc, "corpus")
            return []
        return [(_decode_key(text), float(cost)) for text, cost in rows]

    # -------------------------------------------------------------- writes

    def put_many(
        self,
        fingerprint: str,
        entries: Iterable[tuple["MemoKey", "MemoValue"]],
    ) -> int:
        """Batch write-behind flush; returns the number of *new* rows.

        ``INSERT OR IGNORE`` keeps re-flushes and cross-run races
        idempotent: rows are immutable, so whoever wrote first wrote
        the same value.
        """
        conn = self._connect()
        if conn is None:
            return 0
        payload = [
            (
                fingerprint,
                _encode_key(key),
                float(cost),
                None if metrics is None else json.dumps(metrics, sort_keys=True),
            )
            for key, (cost, metrics) in entries
        ]
        if not payload:
            return 0
        try:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO evaluations "
                "(fingerprint, memo_key, cost, metrics) VALUES (?, ?, ?, ?)",
                payload,
            )
            conn.commit()
            inserted = conn.total_changes - before
        except sqlite3.Error as exc:
            self._degrade(exc, "put_many")
            return 0
        self.writes += inserted
        return inserted
