"""Durable SQLite-WAL job queue for the synthesis service.

The queue is the service's source of truth: every job survives a
``kill -9`` of the server because enqueue, lease, progress, and
completion are all single WAL transactions on ``jobs.sqlite`` in the
service data directory.  The connection is opened like
:class:`repro.store.EvalStore`'s (lazily, re-opened after ``fork``,
by :func:`repro.runtime.sqlite.open_wal`), with two differences:

* **Failures raise, they do not degrade.**  The evaluation store is a
  cache, so a broken file costs speed; the queue is authoritative, so
  a broken database must surface as :class:`QueueError` (HTTP 500),
  never as silently dropped jobs.  Transient ``database is locked``
  errors are retried a bounded number of times first — the
  ``queue.busy`` fault site injects exactly that error so the retry
  loop is exact-count testable.
* **One connection, many threads.**  The HTTP handler pool and the
  worker loop share one process; the queue serialises access with an
  instance lock instead of per-thread connections, keeping WAL
  transactions short and ordered.

Job state machine::

    queued ──claim──▶ running ──complete──▶ done
      ▲                 │ fail(retryable, attempts left)
      │◀────backoff─────┘
      │                 │ fail(attempts exhausted) / crash-loop
      │                 ▼
      └──lease expiry  quarantined        fail(not retryable) ▶ failed

A claimed job holds a *lease* (wall-clock expiry, persisted — a
restarted server must honour leases written before the crash, which is
why these timestamps are epoch seconds and not ``time.monotonic``).
Workers renew the lease by heartbeat; a server killed mid-job simply
stops renewing, and the next ``claim`` on any server reclaims the job
once the lease lapses.  Retries back off exponentially (capped) via
``not_before``; a job whose attempts are exhausted — by failures *or*
by crash-looping servers — is quarantined, never retried silently.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ApeError
from ..runtime import faults
from ..runtime.sqlite import leave_inherited, open_wal
from .jobs import JobRequest, job_id_for

if TYPE_CHECKING:
    from .server import ServiceConfig

__all__ = [
    "JobQueue",
    "JobRecord",
    "QueueError",
    "QUEUE_FILENAME",
    "QUEUE_SCHEMA_VERSION",
    "JOB_STATES",
]

#: Database filename inside the service data directory.
QUEUE_FILENAME = "jobs.sqlite"

#: On-disk schema version; a mismatch refuses to serve rather than
#: guessing at a migration — the queue is authoritative state.
QUEUE_SCHEMA_VERSION = 1

#: Legal job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "quarantined")

_CREATE_SQL = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS jobs (
        id            TEXT PRIMARY KEY,
        fingerprint   TEXT NOT NULL UNIQUE,
        tenant        TEXT NOT NULL,
        payload       TEXT NOT NULL,
        state         TEXT NOT NULL,
        attempts      INTEGER NOT NULL DEFAULT 0,
        max_evaluations INTEGER NOT NULL,
        submitted_at  REAL NOT NULL,
        not_before    REAL NOT NULL DEFAULT 0,
        lease_owner   TEXT,
        lease_expires REAL,
        started_at    REAL,
        finished_at   REAL,
        reclaims      INTEGER NOT NULL DEFAULT 0,
        result        TEXT,
        error         TEXT,
        progress      TEXT
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_jobs_state
        ON jobs (state, not_before, submitted_at)
    """,
)


class QueueError(ApeError):
    """The job queue could not complete an authoritative operation."""


def _json_or_none(text: str | None) -> dict[str, Any] | None:
    if text is None:
        return None
    loaded = json.loads(text)
    return loaded if isinstance(loaded, dict) else None


@dataclass(frozen=True)
class JobRecord:
    """One row of the jobs table, decoded."""

    id: str
    fingerprint: str
    tenant: str
    payload: dict[str, Any]
    state: str
    attempts: int
    max_evaluations: int
    submitted_at: float
    not_before: float
    lease_owner: str | None
    lease_expires: float | None
    started_at: float | None
    finished_at: float | None
    reclaims: int
    result: dict[str, Any] | None
    error: str | None
    progress: dict[str, Any] | None

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "JobRecord":
        return cls(
            id=row["id"],
            fingerprint=row["fingerprint"],
            tenant=row["tenant"],
            payload=json.loads(row["payload"]),
            state=row["state"],
            attempts=row["attempts"],
            max_evaluations=row["max_evaluations"],
            submitted_at=row["submitted_at"],
            not_before=row["not_before"],
            lease_owner=row["lease_owner"],
            lease_expires=row["lease_expires"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            reclaims=row["reclaims"],
            result=_json_or_none(row["result"]),
            error=row["error"],
            progress=_json_or_none(row["progress"]),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready public view of the job (GET /jobs/{id} body)."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "max_evaluations": self.max_evaluations,
            "submitted_at": self.submitted_at,
            "not_before": self.not_before,
            "lease_owner": self.lease_owner,
            "lease_expires": self.lease_expires,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "reclaims": self.reclaims,
            "request": self.payload,
            "result": self.result,
            "error": self.error,
            "progress": self.progress,
        }


class JobQueue:
    """Crash-safe job queue over one SQLite database.

    The database lives in ``config.data_dir``; the retry ladder is
    ``config``'s ``max_attempts``, ``backoff_base_s`` and
    ``backoff_cap_s``.  All public methods are thread-safe (one
    instance lock) and retry transient SQLite lock errors a bounded
    number of times before raising :class:`QueueError`.  ``clock`` is
    injectable for tests; production uses wall-clock epoch seconds
    because leases and backoff gates are *persisted* and must stay
    meaningful across process restarts (a monotonic clock restarts
    with the machine).
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        busy_timeout_s: float = 5.0,
        busy_retries: int = 5,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config
        self.path = Path(config.data_dir) / QUEUE_FILENAME
        self.busy_timeout_s = busy_timeout_s
        self.busy_retries = busy_retries
        self._clock: Callable[[], float] = (
            clock if clock is not None
            else time.time  # deterministic-ok: persisted lease/backoff timestamps must survive restarts
        )
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        #: Observability counters (per queue handle, not persisted).
        self.busy_retries_seen = 0
        self.jobs_reclaimed = 0
        self.jobs_quarantined = 0

    # --------------------------------------------------------- connection

    def _connect(self) -> sqlite3.Connection:
        """The live connection for *this* process (caller holds lock)."""
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        # Post-fork (or first use): open fresh, leaving the parent's
        # connection unused and open.
        leave_inherited(self._conn)
        self._conn = None
        self._pid = pid
        try:
            conn = open_wal(
                self.path,
                _CREATE_SQL,
                QUEUE_SCHEMA_VERSION,
                busy_timeout_s=self.busy_timeout_s,
                check_same_thread=False,
                isolation_level=None,
            )
        except (sqlite3.Error, OSError) as exc:
            raise QueueError(
                f"cannot open job queue: {exc}",
                context={"path": str(self.path)},
            ) from exc
        conn.row_factory = sqlite3.Row
        self._conn = conn
        return conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None

    def _transact(
        self,
        operation: str,
        fn: Callable[[sqlite3.Connection], Any],
        *,
        write: bool = True,
    ) -> Any:
        """Run ``fn`` in one (immediate) transaction with busy retry.

        The ``queue.busy`` fault site counts as a synthetic lock
        conflict: it consumes a retry exactly like a real one, so a
        capped fault spec can prove both the recovery path (fires <
        retries ⇒ success) and the exhaustion path (fires ≥ retries ⇒
        ``QueueError``).
        """
        with self._lock:
            last: Exception | None = None
            for attempt in range(self.busy_retries + 1):
                if attempt:
                    self.busy_retries_seen += 1
                    time.sleep(min(0.01 * (2 ** (attempt - 1)), 0.1))
                conn = self._connect()
                try:
                    if faults.fires(faults.QUEUE_BUSY):
                        raise sqlite3.OperationalError(
                            "database is locked (injected at queue.busy)"
                        )
                    if write:
                        conn.execute("BEGIN IMMEDIATE")
                    try:
                        out = fn(conn)
                    except Exception:
                        if write:
                            conn.execute("ROLLBACK")
                        raise
                    if write:
                        conn.execute("COMMIT")
                    return out
                except sqlite3.OperationalError as exc:
                    last = exc
                    continue
                except sqlite3.Error as exc:
                    raise QueueError(
                        f"job queue {operation} failed: {exc}",
                        context={"path": str(self.path)},
                    ) from exc
            raise QueueError(
                f"job queue {operation} kept hitting a locked database "
                f"after {self.busy_retries} retries",
                context={"path": str(self.path)},
            ) from last

    # ----------------------------------------------------------- lifecycle

    def submit(
        self, request: JobRequest, fingerprint: str
    ) -> tuple[JobRecord, bool]:
        """Enqueue a request; dedupe on fingerprint.

        Returns ``(record, created)``.  ``INSERT OR IGNORE`` on the
        unique fingerprint makes concurrent duplicate submissions
        first-writer-wins: every later caller attaches to the winner's
        row, so K parallel POSTs of one spec yield exactly one job.
        """
        job_id = job_id_for(fingerprint)
        now = self._clock()

        def op(conn: sqlite3.Connection) -> tuple[JobRecord, bool]:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO jobs "
                "(id, fingerprint, tenant, payload, state, "
                " max_evaluations, submitted_at) "
                "VALUES (?, ?, ?, ?, 'queued', ?, ?)",
                (
                    job_id,
                    fingerprint,
                    request.tenant,
                    request.to_json(),
                    request.max_evaluations,
                    now,
                ),
            )
            created = cursor.rowcount == 1
            row = conn.execute(
                "SELECT * FROM jobs WHERE fingerprint=?", (fingerprint,)
            ).fetchone()
            if row is None:
                raise QueueError(
                    "job row vanished during submit",
                    context={"job": job_id},
                )
            return JobRecord.from_row(row), created

        record, created = self._transact("submit", op)
        return record, created

    def requeue_expired(self) -> int:
        """Reclaim running jobs whose lease has lapsed (crash recovery)."""
        now = self._clock()

        def op(conn: sqlite3.Connection) -> int:
            cursor = conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL, "
                "lease_expires=NULL, reclaims=reclaims+1 "
                "WHERE state='running' AND lease_expires IS NOT NULL "
                "AND lease_expires < ?",
                (now,),
            )
            return cursor.rowcount

        reclaimed = int(self._transact("requeue_expired", op))
        self.jobs_reclaimed += reclaimed
        return reclaimed

    def claim(
        self, owner: str, *, lease_seconds: float
    ) -> JobRecord | None:
        """Lease the oldest runnable job to ``owner`` (or ``None``).

        Also performs the two housekeeping sweeps every scheduler pass
        needs: expired-lease reclamation and quarantine of jobs whose
        attempts are exhausted (covers crash-looping servers, where
        the failure is a lease expiry rather than an exception).
        """
        now = self._clock()

        def op(conn: sqlite3.Connection) -> tuple[JobRecord | None, int, int]:
            reclaimed = conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL, "
                "lease_expires=NULL, reclaims=reclaims+1 "
                "WHERE state='running' AND lease_expires IS NOT NULL "
                "AND lease_expires < ?",
                (now,),
            ).rowcount
            quarantined = conn.execute(
                "UPDATE jobs SET state='quarantined', finished_at=?, "
                "error=COALESCE(error, 'attempts exhausted "
                "(crash-looping job)') "
                "WHERE state='queued' AND attempts >= ?",
                (now, self.config.max_attempts),
            ).rowcount
            row = conn.execute(
                "SELECT * FROM jobs WHERE state='queued' AND not_before<=? "
                "ORDER BY submitted_at, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None, reclaimed, quarantined
            conn.execute(
                "UPDATE jobs SET state='running', attempts=attempts+1, "
                "lease_owner=?, lease_expires=?, "
                "started_at=COALESCE(started_at, ?) WHERE id=?",
                (owner, now + lease_seconds, now, row["id"]),
            )
            fresh = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (row["id"],)
            ).fetchone()
            return JobRecord.from_row(fresh), reclaimed, quarantined

        record, reclaimed, quarantined = self._transact("claim", op)
        self.jobs_reclaimed += reclaimed
        self.jobs_quarantined += quarantined
        return record

    def heartbeat(
        self, job_id: str, owner: str, *, lease_seconds: float
    ) -> bool:
        """Renew ``owner``'s lease; ``False`` means the lease was lost."""
        now = self._clock()

        def op(conn: sqlite3.Connection) -> bool:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires=? "
                "WHERE id=? AND state='running' AND lease_owner=?",
                (now + lease_seconds, job_id, owner),
            )
            return cursor.rowcount == 1

        return bool(self._transact("heartbeat", op))

    def update_progress(
        self, job_id: str, owner: str, progress: dict[str, Any]
    ) -> None:
        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE jobs SET progress=? "
                "WHERE id=? AND state='running' AND lease_owner=?",
                (json.dumps(progress), job_id, owner),
            )

        self._transact("update_progress", op)

    def complete(
        self, job_id: str, owner: str, result: dict[str, Any]
    ) -> bool:
        """Mark a leased job done; ``False`` if the lease was lost."""
        now = self._clock()

        def op(conn: sqlite3.Connection) -> bool:
            cursor = conn.execute(
                "UPDATE jobs SET state='done', result=?, finished_at=?, "
                "lease_owner=NULL, lease_expires=NULL "
                "WHERE id=? AND state='running' AND lease_owner=?",
                (json.dumps(result), now, job_id, owner),
            )
            return cursor.rowcount == 1

        return bool(self._transact("complete", op))

    def fail(
        self, job_id: str, owner: str, error: str, *, retryable: bool = True
    ) -> str:
        """Record a failed attempt; returns the job's new state.

        Retryable failures back off exponentially (``backoff_base_s *
        2^(attempts-1)``, capped) and re-queue until ``max_attempts``
        is reached, after which the job is quarantined as poison.
        Non-retryable failures go straight to ``failed``.
        """
        now = self._clock()

        def op(conn: sqlite3.Connection) -> str:
            row = conn.execute(
                "SELECT attempts FROM jobs "
                "WHERE id=? AND state='running' AND lease_owner=?",
                (job_id, owner),
            ).fetchone()
            if row is None:
                return "lost"
            attempts = int(row["attempts"])
            if not retryable:
                state = "failed"
            elif attempts >= self.config.max_attempts:
                state = "quarantined"
            else:
                state = "queued"
            if state == "queued":
                backoff = min(
                    self.config.backoff_base_s * (2.0 ** (attempts - 1)),
                    self.config.backoff_cap_s,
                )
                conn.execute(
                    "UPDATE jobs SET state='queued', error=?, "
                    "not_before=?, lease_owner=NULL, lease_expires=NULL "
                    "WHERE id=?",
                    (error, now + backoff, job_id),
                )
            else:
                conn.execute(
                    "UPDATE jobs SET state=?, error=?, finished_at=?, "
                    "lease_owner=NULL, lease_expires=NULL WHERE id=?",
                    (state, error, now, job_id),
                )
            return state

        state = str(self._transact("fail", op))
        if state == "quarantined":
            self.jobs_quarantined += 1
        return state

    # --------------------------------------------------------------- reads

    def get(self, job_id: str) -> JobRecord | None:
        def op(conn: sqlite3.Connection) -> JobRecord | None:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            return None if row is None else JobRecord.from_row(row)

        record = self._transact("get", op, write=False)
        return record  # type: ignore[no-any-return]

    def get_by_fingerprint(self, fingerprint: str) -> JobRecord | None:
        def op(conn: sqlite3.Connection) -> JobRecord | None:
            row = conn.execute(
                "SELECT * FROM jobs WHERE fingerprint=?", (fingerprint,)
            ).fetchone()
            return None if row is None else JobRecord.from_row(row)

        record = self._transact("get_by_fingerprint", op, write=False)
        return record  # type: ignore[no-any-return]

    def depth(self) -> int:
        """Jobs holding queue capacity (queued or running)."""

        def op(conn: sqlite3.Connection) -> int:
            row = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs "
                "WHERE state IN ('queued', 'running')"
            ).fetchone()
            return int(row["n"])

        return int(self._transact("depth", op, write=False))

    def tenant_load(self, tenant: str) -> tuple[int, int]:
        """(active jobs, active evaluation budget) for one tenant."""

        def op(conn: sqlite3.Connection) -> tuple[int, int]:
            row = conn.execute(
                "SELECT COUNT(*) AS n, "
                "COALESCE(SUM(max_evaluations), 0) AS evals FROM jobs "
                "WHERE tenant=? AND state IN ('queued', 'running')",
                (tenant,),
            ).fetchone()
            return int(row["n"]), int(row["evals"])

        jobs, evals = self._transact("tenant_load", op, write=False)
        return int(jobs), int(evals)

    def aggregate_results(self) -> dict[str, int]:
        """Sum observability fields across completed jobs' results."""
        keys = (
            "store_hits", "store_writes", "cache_hits", "cache_misses",
            "worker_restarts", "evaluations",
        )

        def op(conn: sqlite3.Connection) -> dict[str, int]:
            totals = dict.fromkeys(keys, 0)
            for row in conn.execute(
                "SELECT result FROM jobs WHERE state='done'"
            ):
                result = _json_or_none(row["result"]) or {}
                for key in keys:
                    value = result.get(key)
                    if isinstance(value, (int, float)):
                        totals[key] += int(value)
            return totals

        totals = self._transact("aggregate_results", op, write=False)
        return totals  # type: ignore[no-any-return]

    def stats(self) -> dict[str, Any]:
        """Queue-level observability snapshot (GET /stats)."""
        now = self._clock()

        def op(conn: sqlite3.Connection) -> dict[str, Any]:
            by_state = {state: 0 for state in JOB_STATES}
            for row in conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ):
                by_state[row["state"]] = int(row["n"])
            expired = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state='running' "
                "AND lease_expires IS NOT NULL AND lease_expires < ?",
                (now,),
            ).fetchone()
            return {
                "jobs": by_state,
                "depth": by_state["queued"] + by_state["running"],
                "expired_leases": int(expired["n"]),
            }

        snapshot = self._transact("stats", op, write=False)
        snapshot.update(
            {
                "busy_retries": self.busy_retries_seen,
                "jobs_reclaimed": self.jobs_reclaimed,
                "jobs_quarantined": self.jobs_quarantined,
            }
        )
        return snapshot  # type: ignore[no-any-return]
