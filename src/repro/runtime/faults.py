"""Deterministic, seedable fault injection for robustness testing.

The harness arms a process-wide :class:`FaultInjector`; instrumented
sites in the solver/estimator stack call :func:`check` (raise the
site's canonical exception when the fault fires) or :func:`fires`
(boolean query, used where the site degrades instead of raising).
With no injector armed both are near-free no-ops, so production runs
pay nothing.

All firing decisions come from one seeded ``random.Random``: a fixed
seed plus a fixed call sequence reproduces the exact same faults, which
lets tests assert *exact* failure counts, not statistical ones.

Instrumented sites:

``spice.dc``
    :func:`repro.spice.dc.dc_operating_point` raises
    :class:`~repro.errors.ConvergenceError` on entry.
``spice.dc.newton``
    The plain-Newton first attempt is skipped, forcing the
    gmin/source-stepping ladder to run.
``spice.dc.attempt``
    One whole solve attempt (ladder included) is voided, forcing the
    :class:`~repro.runtime.retry.RetryPolicy` path to fire.
``spice.awe``
    :func:`repro.spice.awe.awe_poles` raises
    :class:`~repro.errors.SimulationError`.
``estimator.opamp``
    :func:`repro.opamp.estimator.design_opamp` raises
    :class:`~repro.errors.EstimationError`.
``estimator.component``
    Level-2 component sizing raises
    :class:`~repro.errors.EstimationError`.
``synthesis.evaluate``
    One whole candidate evaluation fails (checked once per
    :meth:`~repro.synthesis.problems.OpAmpSizingProblem.evaluate`
    call, so the configured probability IS the per-evaluation
    failure rate).
``worker.kill`` / ``worker.hang``
    Process-level faults checked once per candidate evaluation by the
    parallel executor's worker loop, and only inside pool worker
    processes (never in-process, where they would take the caller
    down).  ``worker.kill`` hard-exits the worker (``os._exit``),
    collapsing the pool exactly like an OOM kill; ``worker.hang``
    stops heartbeating and sleeps until the supervisor kills the
    worker.  The optional ``chain`` field on :class:`FaultSpec`
    (``@N`` in ``REPRO_FAULTS``) restricts a fault to one chain
    index, so tests can kill *exactly one* worker deterministically.
``service.crash``
    Checked by :meth:`repro.runtime.journal.RunJournal.record_outcome`
    right after each ``chain-finished`` record is fsynced, on the
    thread that finished the chain; fires via ``os._exit`` with
    :data:`CRASH_EXIT_CODE`, so a synthesis server dies exactly like
    ``kill -9``, leaving a leased job whose journal holds exactly the
    chains finished so far for the restarted server to reclaim and
    resume bit-exact.
``queue.busy``
    Checked by every :class:`repro.service.queue.JobQueue` statement
    batch; fires as a synthetic ``sqlite3.OperationalError: database
    is locked`` to exercise the bounded busy-retry loop.
``job.poison``
    Checked once per job execution attempt by the service worker;
    raises :class:`~repro.errors.SimulationError` so the retry /
    exponential-backoff / quarantine ladder is exact-count testable.

Arm from code::

    with injected_faults({"spice.dc": 0.2}, seed=7) as injector:
        run_synthesis(...)
    assert injector.fires_by_site["spice.dc"] == expected

or from the environment (picked up by the CLI)::

    REPRO_FAULTS="seed=7,spice.dc=0.2,spice.awe=0.1:3" repro synthesize ...

where the optional ``:N`` suffix caps a site at N fires and the
optional ``@C`` suffix (worker sites) targets chain index C, e.g.
``REPRO_FAULTS="worker.kill=1.0:1@1"`` kills the worker running
chain 1, once.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import (
    ApeError,
    ConvergenceError,
    EstimationError,
    SimulationError,
)

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "KNOWN_SITES",
    "WORKER_KILL",
    "WORKER_HANG",
    "WORKER_SITES",
    "SERVICE_CRASH",
    "CRASH_EXIT_CODE",
    "QUEUE_BUSY",
    "JOB_POISON",
    "arm",
    "disarm",
    "active",
    "injected_faults",
    "arm_from_env",
    "check",
    "fires",
]

#: Process-level fault sites consumed by the parallel executor's
#: worker loop (see the module docstring).  They never raise through
#: :func:`check`; the executor performs the kill/hang itself.
WORKER_KILL = "worker.kill"
WORKER_HANG = "worker.hang"
WORKER_SITES = frozenset({WORKER_KILL, WORKER_HANG})

#: Service-layer fault sites (see the module docstring).
#: ``service.crash`` hard-exits the process (handled by the run
#: journal, never via :func:`check`); ``queue.busy``
#: degrades into a synthetic SQLite lock inside the job queue;
#: ``job.poison`` raises through :func:`check` on job execution.
SERVICE_CRASH = "service.crash"
QUEUE_BUSY = "queue.busy"
JOB_POISON = "job.poison"

#: Process exit status of the ``service.crash`` fault site, so a
#: harness can tell an injected crash from any organic failure.
CRASH_EXIT_CODE = 86

#: Canonical exception raised by :func:`check` for each site.
KNOWN_SITES: dict[str, type[ApeError]] = {
    "spice.dc": ConvergenceError,
    "spice.dc.newton": ConvergenceError,
    "spice.dc.attempt": ConvergenceError,
    "spice.awe": SimulationError,
    "estimator.opamp": EstimationError,
    "estimator.component": EstimationError,
    "synthesis.evaluate": SimulationError,
    JOB_POISON: SimulationError,
}


@dataclass(frozen=True)
class FaultSpec:
    """Configured failure behaviour of one instrumented site."""

    site: str
    probability: float = 1.0
    #: Stop firing after this many faults (``None`` = unlimited).
    max_fires: int | None = None
    #: Restrict the fault to one annealing-chain index (worker sites;
    #: ``None`` = every chain).  Ignored by sites with no chain scope.
    chain: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"{self.site}: probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(
                f"{self.site}: max_fires must be >= 0, got {self.max_fires}"
            )
        if self.chain is not None and self.chain < 0:
            raise ValueError(
                f"{self.site}: chain must be >= 0, got {self.chain}"
            )


class FaultInjector:
    """Seeded fault source with per-site check/fire counters."""

    def __init__(
        self,
        specs: Mapping[str, float | FaultSpec] | Iterator[FaultSpec],
        seed: int = 0,
    ) -> None:
        self.specs: dict[str, FaultSpec] = {}
        if isinstance(specs, Mapping):
            for site, value in specs.items():
                spec = (
                    value
                    if isinstance(value, FaultSpec)
                    else FaultSpec(site, probability=float(value))
                )
                self.specs[site] = spec
        else:
            for spec in specs:
                self.specs[spec.site] = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.checks_by_site: dict[str, int] = {}
        self.fires_by_site: dict[str, int] = {}

    def fires_at(self, site: str) -> bool:
        """Decide (and record) whether the fault at ``site`` fires now."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        self.checks_by_site[site] = self.checks_by_site.get(site, 0) + 1
        if (
            spec.max_fires is not None
            and self.fires_by_site.get(site, 0) >= spec.max_fires
        ):
            return False
        if self.rng.random() >= spec.probability:
            return False
        self.fires_by_site[site] = self.fires_by_site.get(site, 0) + 1
        return True

    def absorb(self, other: "FaultInjector") -> None:
        """Add ``other``'s check and fire counts to this injector's."""
        for mine, theirs in (
            (self.checks_by_site, other.checks_by_site),
            (self.fires_by_site, other.fires_by_site),
        ):
            for site, count in theirs.items():
                mine[site] = mine.get(site, 0) + count


_ACTIVE: FaultInjector | None = None


def arm(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide fault source."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def disarm() -> None:
    """Remove the active injector (no-op when none is armed)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    return _ACTIVE


@contextmanager
def injected_faults(
    specs: Mapping[str, float | FaultSpec],
    seed: int = 0,
):
    """Arm faults for the duration of a ``with`` block.

    Restores whatever injector (or none) was armed before, so harness
    scopes nest safely.
    """
    previous = _ACTIVE
    injector = arm(FaultInjector(specs, seed=seed))
    try:
        yield injector
    finally:
        if previous is None:
            disarm()
        else:
            arm(previous)


def arm_from_env(environ: Mapping[str, str] | None = None) -> FaultInjector | None:
    """Arm faults from ``REPRO_FAULTS`` if set; return the injector.

    Format: comma-separated ``site=probability[:max_fires]`` entries,
    plus an optional ``seed=N`` entry, e.g.
    ``"seed=7,spice.dc=0.2,spice.awe=1.0:3"``.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    seed = 0
    specs: dict[str, FaultSpec] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ApeError(
                "REPRO_FAULTS entries must be site=prob[:max_fires]",
                context={"entry": entry},
            )
        site, value = entry.split("=", 1)
        site = site.strip()
        if site == "seed":
            seed = int(value)
            continue
        max_fires: int | None = None
        chain: int | None = None
        try:
            if "@" in value:
                value, chain_raw = value.split("@", 1)
                chain = int(chain_raw)
            if ":" in value:
                value, fires_raw = value.split(":", 1)
                max_fires = int(fires_raw)
            specs[site] = FaultSpec(
                site, probability=float(value), max_fires=max_fires,
                chain=chain,
            )
        except ValueError as exc:
            raise ApeError(
                f"REPRO_FAULTS: bad entry for {site}: {exc}",
                context={"entry": entry},
            ) from exc
    return arm(FaultInjector(specs, seed=seed))


def check(site: str) -> None:
    """Raise the site's canonical exception when its fault fires."""
    injector = _ACTIVE
    if injector is not None and injector.fires_at(site):
        error = KNOWN_SITES.get(site, SimulationError)
        raise error(
            f"injected fault at {site}",
            context={"site": site, "injected": True},
        )


def fires(site: str) -> bool:
    """Boolean fault query for sites that degrade instead of raising."""
    injector = _ACTIVE
    return injector is not None and injector.fires_at(site)
