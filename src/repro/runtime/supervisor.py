"""Parent-side supervision of pooled synthesis workers.

A long multi-chain synthesis run must survive the three ways a worker
process dies in practice: it is killed (OOM killer, operator, injected
``worker.kill`` fault), it hangs (a pathological DC solve that never
converges, injected ``worker.hang``), or the whole run is interrupted
(Ctrl-C, SIGTERM from a scheduler).  This module holds the generic
supervision machinery the parallel executor builds its recovery loop
around:

* :class:`SupervisorConfig` — deadlines, heartbeat staleness, retry
  bounds and the poison-task quarantine policy;
* :class:`SupervisionEvent` / :class:`SupervisionReport` — the
  structured record of everything the supervisor did (worker restarts,
  chain retries, quarantines, resume skips, interrupts), surfaced as
  Diagnostics and by ``repro diagnostics``;
* :class:`PoolManager` — owns the process pool and guarantees teardown
  (shutdown + worker kill) on *every* exit path, including exceptions
  raised past a hung worker that a plain ``with ProcessPoolExecutor``
  would wait on forever;
* :func:`interrupt_guard` — scoped SIGINT/SIGTERM capture so a run
  drains in-flight chains, journals state and returns a best-so-far
  partial result instead of dying with nothing.

Everything here is task-agnostic: the executor supplies the pool
factory and the work items.  No chain ever produces a *different*
result because it was supervised — recovery re-runs lost chains, whose
results are pure functions of their tasks.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SupervisorConfig",
    "SupervisionEvent",
    "SupervisionReport",
    "PoolManager",
    "interrupt_guard",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy for one synthesis run."""

    #: Resubmissions a chain may consume after its worker was lost
    #: (killed, hung, or collateral of a pool collapse) before it is
    #: quarantined as a poison task.
    max_chain_retries: int = 2
    #: Hard wall-clock deadline for one chain attempt; ``None`` trusts
    #: the chains' own budgets.
    chain_timeout_seconds: float | None = None
    #: A running chain whose last heartbeat (one per candidate
    #: evaluation) is older than this is declared hung and its worker
    #: killed; ``None`` disables hang detection.
    heartbeat_timeout_seconds: float | None = None
    #: Retried chains drop ``worker.*`` fault specs, modelling worker
    #: loss as a transient: the replayed chain completes and is
    #: bit-for-bit the chain a fault-free run would have produced.
    #: ``False`` keeps the specs armed (how tests build poison tasks).
    strip_worker_faults_on_retry: bool = True
    #: Install SIGINT/SIGTERM handlers for graceful drain (main thread
    #: only; elsewhere the flag simply never trips).
    install_signal_handlers: bool = True
    #: Test hook: behave as if SIGINT arrived once this many chains
    #: have completed — a deterministic interrupt for resume tests.
    interrupt_after: int | None = None

    def __post_init__(self) -> None:
        if self.max_chain_retries < 0:
            raise ValueError(
                f"max_chain_retries must be >= 0, got {self.max_chain_retries}"
            )
        for name in ("chain_timeout_seconds", "heartbeat_timeout_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class SupervisionEvent:
    """One thing the supervisor did or observed."""

    #: ``worker-restart``, ``chain-retried``, ``chain-quarantined``,
    #: ``chain-hung``, ``chain-timeout``, ``chain-resumed``,
    #: ``interrupted``.
    kind: str
    chain_index: int | None = None
    detail: str = ""


@dataclass
class SupervisionReport:
    """Everything the supervisor did during one run."""

    events: list[SupervisionEvent] = field(default_factory=list)
    #: Pool rebuilds after a worker was killed or declared hung.
    worker_restarts: int = 0
    #: Chain resubmissions (a chain may be retried more than once).
    chain_retries: int = 0
    #: Chains abandoned after exhausting their retry budget.
    quarantined: list[int] = field(default_factory=list)
    #: Chains skipped because the journal already held their outcome.
    resumed: list[int] = field(default_factory=list)
    #: True when SIGINT/SIGTERM (or the synthetic test interrupt)
    #: stopped the run before every chain finished.
    interrupted: bool = False

    def record(
        self, kind: str, chain_index: int | None = None, detail: str = ""
    ) -> SupervisionEvent:
        event = SupervisionEvent(kind, chain_index, detail)
        self.events.append(event)
        return event

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def merge(self, other: "SupervisionReport") -> None:
        self.events.extend(other.events)
        self.worker_restarts += other.worker_restarts
        self.chain_retries += other.chain_retries
        self.quarantined.extend(other.quarantined)
        self.resumed.extend(other.resumed)
        self.interrupted = self.interrupted or other.interrupted


class PoolManager:
    """Owns a process pool; guarantees teardown on every exit path.

    ``concurrent.futures``' own context manager waits for running
    futures on exit — which wedges forever behind a hung worker.  This
    manager always exits promptly: pending futures are cancelled,
    worker processes are killed outright, and the pool can be rebuilt
    mid-run after a :class:`BrokenProcessPool` collapse.
    """

    def __init__(self, factory: Callable[[], object]) -> None:
        self._factory = factory
        self.pool: object | None = None
        self.rebuilds = 0

    def __enter__(self) -> "PoolManager":
        self.pool = self._factory()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.teardown()

    def rebuild(self) -> object:
        """Tear the (broken) pool down and start a fresh one."""
        self.teardown()
        self.pool = self._factory()
        self.rebuilds += 1
        return self.pool

    def kill_workers(self) -> None:
        """SIGKILL every live worker (hung-chain recovery).

        The executor observes the deaths as a broken pool, which routes
        recovery through the same resubmission path as a crashed
        worker.
        """
        pool = self.pool
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except (OSError, ValueError):  # already dead / closed
                pass

    def teardown(self) -> None:
        """Shut down without waiting on workers, then kill stragglers."""
        pool = self.pool
        if pool is None:
            return
        self.pool = None
        # Snapshot the worker handles first: shutdown() clears the
        # pool's _processes dict.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):  # pragma: no cover - pool already broken
            pass
        for process in processes:
            try:
                process.kill()
            except (OSError, ValueError):
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):
                pass


class _StopFlag:
    """Signal-count flag shared between a handler and the poll loop."""

    def __init__(self) -> None:
        self.signals = 0

    def __call__(self) -> bool:
        return self.signals > 0

    @property
    def hard(self) -> bool:
        """Two signals mean "stop draining, abandon in-flight work"."""
        return self.signals > 1


@contextmanager
def interrupt_guard(enabled: bool = True) -> Iterator[_StopFlag]:
    """Capture SIGINT/SIGTERM into a flag for the duration of a run.

    The first signal requests a graceful drain (finish in-flight
    chains, journal, return partial results); the second marks the
    flag *hard* so the loop abandons in-flight work too — pooled
    chains by killing their workers, an in-process chain by polling
    the flag before each candidate.  Handlers are
    only installed from the main thread — elsewhere the flag is inert
    and signals keep their previous behaviour.
    """
    flag = _StopFlag()
    if (
        not enabled
        or threading.current_thread() is not threading.main_thread()
    ):
        yield flag
        return

    def _handler(signum: int, frame: object) -> None:
        flag.signals += 1

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield flag
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
