"""Job execution: lease, heartbeat, journal-backed resume, retry.

One :class:`JobWorker` drives the claim → execute → complete/fail
cycle against the durable :class:`~repro.service.queue.JobQueue`.
Every job runs through :func:`repro.synthesis.synthesize_opamp` with a
per-job ``run_dir`` (write-ahead journal) and the service-wide
``store_dir`` (shared evaluation store), so

* a job interrupted by a server crash resumes **bit-exact** from its
  journal on the next claim (chains already journaled are replayed,
  not re-run), and
* identical problems submitted later are served warm from the store.

The synthesis itself runs on a helper thread while the worker thread
stays responsive: it renews the queue lease and publishes progress
(chains done, best cost so far, straight from the journal).  The
``service.crash`` fault site lives in the run journal: it hard-exits
the whole process (``os._exit(86)``), deliberately indistinguishable
from ``kill -9``, on the synthesis thread right after a chain's record
is fsynced.  The ``job.poison`` fault site raises at the top of every
execution attempt to exercise the backoff/quarantine ladder.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from ..errors import ApeError, SpecificationError
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic, global_log
from ..runtime.faults import CRASH_EXIT_CODE
from ..runtime.journal import RunJournal
from .jobs import JobRequest
from .queue import JobQueue, JobRecord

__all__ = ["JobWorker", "CRASH_EXIT_CODE"]


def _journal_progress(run_dir: str) -> dict[str, Any]:
    """Chains-done / best-cost snapshot read from the run journal.

    Tolerant by construction: :meth:`RunJournal.events` already skips
    a torn trailing line, and a missing journal simply reports zero
    progress.
    """
    journal = RunJournal(run_dir)
    chains_done = 0
    best_cost: float | None = None
    if journal.exists():
        for event in journal.events():
            if event.get("event") != "chain-finished":
                continue
            chains_done += 1
            anneal = event.get("outcome", {}).get("anneal", {})
            cost = anneal.get("best_cost")
            if isinstance(cost, (int, float)) and (
                best_cost is None or cost < best_cost
            ):
                best_cost = float(cost)
    return {"chains_done": chains_done, "best_cost": best_cost}


def _result_summary(result: Any) -> dict[str, Any]:
    """JSON-ready summary of a :class:`SynthesisResult` (job row size)."""
    return {
        "name": result.name,
        "mode": result.mode,
        "meets_spec": result.meets_spec,
        "comment": result.comment,
        "best_cost": result.best_cost,
        "metrics": result.metrics,
        "params": result.params,
        "evaluations": result.evaluations,
        "failed_evaluations": result.failed_evaluations,
        "restarts": result.restarts,
        "degraded": result.degraded,
        "interrupted": result.interrupted,
        "worker_restarts": result.worker_restarts,
        "quarantined_chains": list(result.quarantined_chains),
        "resumed_chains": list(result.resumed_chains),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "store_hits": result.store_hits,
        "store_writes": result.store_writes,
        "run_dir": result.run_dir,
        "chain_costs": [
            chain.best_cost for chain in result.chains
        ],
        "diagnostics": [
            {
                "subsystem": diag.subsystem,
                "severity": diag.severity,
                "message": diag.message,
            }
            for diag in result.diagnostics
        ],
    }


class JobWorker:
    """Claims jobs from the queue and executes them, one at a time."""

    def __init__(
        self,
        queue: JobQueue,
        tech: Any,
        data_dir: str | os.PathLike[str],
        *,
        owner: str,
        lease_seconds: float = 30.0,
        poll_interval_s: float = 0.2,
        synth_workers: int | None = 1,
        oversubscribe: bool = True,
        on_progress: Callable[[str, dict[str, Any]], None] | None = None,
    ) -> None:
        self.queue = queue
        self.tech = tech
        self.data_dir = os.fspath(data_dir)
        self.owner = owner
        self.lease_seconds = lease_seconds
        self.poll_interval_s = poll_interval_s
        self.synth_workers = synth_workers
        self.oversubscribe = oversubscribe
        self.on_progress = on_progress
        self.stop_event = threading.Event()
        #: Set when a claim may find work: the service enqueued a job,
        #: or the worker is stopping.
        self.wake_event = threading.Event()
        #: Pause claiming without stopping a job in flight (drain).
        self.draining = threading.Event()
        self.jobs_done = 0
        self.jobs_failed = 0
        self.leases_lost = 0

    # ------------------------------------------------------------- layout

    def run_dir_for(self, job_id: str) -> str:
        return os.path.join(self.data_dir, "runs", job_id)

    @property
    def store_dir(self) -> str:
        return os.path.join(self.data_dir, "store")

    # -------------------------------------------------------------- loop

    def run_forever(self) -> None:
        """Claim/execute until :attr:`stop_event` is set.

        An idle worker sleeps until :attr:`wake_event` is set or
        ``poll_interval_s`` elapses; the timeout picks up work no wake
        announces (elapsed retry backoffs, expired leases, jobs another
        process enqueued).
        """
        while not self.stop_event.is_set():
            # Clear before the claim, draining or not.  A wake set after
            # this point is either seen by the claim (submit commits the
            # row before it wakes) or ends the wait below at once; a wake
            # that arrived while draining is spent here rather than
            # ending every later wait at once (a busy loop).
            self.wake_event.clear()
            record = None
            if not self.draining.is_set():
                record = self.queue.claim(
                    self.owner, lease_seconds=self.lease_seconds
                )
            if record is None:
                self.wake_event.wait(self.poll_interval_s)
                continue
            self.execute(record)

    def stop(self) -> None:
        """End :meth:`run_forever` once the job in flight (if any) ends."""
        self.stop_event.set()
        self.wake_event.set()

    def execute(self, record: JobRecord) -> str:
        """Run one leased job to a terminal state; returns the state."""
        request = JobRequest.from_payload(record.payload)
        run_dir = self.run_dir_for(record.id)
        outcome: dict[str, Any] = {}

        def run_synthesis() -> None:
            try:
                faults.check(faults.JOB_POISON)
                outcome["result"] = self._synthesize(request, run_dir)
            except ApeError as exc:
                outcome["error"] = exc
            except Exception as exc:  # pragma: no cover - defensive
                global_log().record(
                    Diagnostic.from_exception(
                        "service.job",
                        exc,
                        severity="error",
                        suggested_fix=(
                            "unexpected non-ApeError during job "
                            "execution; the job follows the normal "
                            "retry/quarantine ladder"
                        ),
                        context={"job": record.id},
                    )
                )
                outcome["error"] = exc

        thread = threading.Thread(
            target=run_synthesis, name=f"synthesis-{record.id}", daemon=True
        )
        thread.start()
        # Monitor: heartbeat the lease and publish progress.  The
        # heartbeat cadence stays well inside the lease so a healthy
        # job never loses it.
        interval = min(self.poll_interval_s, self.lease_seconds / 3.0)
        while thread.is_alive():
            thread.join(timeout=interval)
            if not thread.is_alive():
                break
            progress = _journal_progress(run_dir)
            if not self.queue.heartbeat(
                record.id, self.owner, lease_seconds=self.lease_seconds
            ):
                self.leases_lost += 1
            self.queue.update_progress(record.id, self.owner, progress)
            if self.on_progress is not None:
                self.on_progress(record.id, progress)

        error = outcome.get("error")
        if error is None and "result" in outcome:
            summary = _result_summary(outcome["result"])
            if self.queue.complete(record.id, self.owner, summary):
                self.jobs_done += 1
                return "done"
            self.leases_lost += 1
            return "lost"
        retryable = not isinstance(error, SpecificationError)
        state = self.queue.fail(
            record.id,
            self.owner,
            f"{type(error).__name__}: {error}",
            retryable=retryable,
        )
        if state == "lost":
            self.leases_lost += 1
        else:
            self.jobs_failed += 1
        return state

    def _synthesize(self, request: JobRequest, run_dir: str) -> Any:
        from ..synthesis import synthesize_opamp

        journal = RunJournal(run_dir)
        return synthesize_opamp(
            self.tech,
            **request.config.as_kwargs(),
            workers=self.synth_workers,
            oversubscribe=self.oversubscribe,
            run_dir=run_dir,
            resume=journal.exists(),
            store_dir=self.store_dir,
        )
