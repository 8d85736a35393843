"""Evaluation and wall-clock budgets for long-running searches.

An :class:`EvalBudget` is shared between a run driver (the synthesis
engine) and its inner loop (the annealer): every candidate evaluation
is charged against it, and the loop polls :meth:`exhausted_reason`
between moves.  When any limit trips, the search stops and returns the
best point found so far, flagged ``degraded`` — it never hangs and
never dies with a half-finished run.

Limits apply per annealing chain: a synthesis run hands every chain a
:meth:`~EvalBudget.share` of the caller's budget (same limits, clock
and start instant, counters at zero) and folds what the chains it ran
consumed back into the caller's counters, so a result never depends on
how many workers ran the chains (a resumed run's replayed chains were
charged by the run that made them).

All timing uses ``time.monotonic`` (the default ``clock``), never the
wall clock: an NTP step or DST change mid-run must not fire a deadline
early or starve it forever.  Linux's ``CLOCK_MONOTONIC`` is system-wide
per boot, so a share pickled into a fork-started pool worker keeps the
caller's deadline instant.  A custom ``clock`` (a test's fake) is
honored only where the chain runs in the caller's process: a pickled
share carries the same remaining time on ``time.monotonic`` instead.
Persisted service-layer timestamps (job leases, retry backoff gates)
are the one deliberate exception: they must survive a reboot, so they
stay in epoch seconds (see :mod:`repro.service.queue`).
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["EvalBudget"]


class EvalBudget:
    """Caps on evaluations, failures and wall-clock time for one run.

    A synthesis run applies the limits to each of its annealing chains
    (see :meth:`share`); the counters add up the whole run.
    """

    def __init__(
        self,
        max_evaluations: int | None = None,
        *,
        deadline_seconds: float | None = None,
        max_failures: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        for name, value in (
            ("max_evaluations", max_evaluations),
            ("deadline_seconds", deadline_seconds),
            ("max_failures", max_failures),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.max_evaluations = max_evaluations
        self.deadline_seconds = deadline_seconds
        self.max_failures = max_failures
        self._clock = clock
        self._t0: float | None = None
        self.evaluations = 0
        self.failures = 0
        #: Extra per-corner / per-mismatch-sample evaluations charged by
        #: variation-robust runs.  Informational: robust fan-out rides
        #: inside a candidate evaluation, so only the *candidate* counts
        #: against ``max_evaluations`` — but the wall-clock deadline
        #: naturally covers the corner work, and this counter keeps the
        #: budget's accounting honest about where the time went.
        self.corner_evaluations = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "EvalBudget":
        """Arm the deadline clock (idempotent)."""
        if self._t0 is None:
            self._t0 = self._clock()
        return self

    def elapsed(self) -> float:
        if self._t0 is None:
            return 0.0
        return self._clock() - self._t0

    def share(self) -> "EvalBudget":
        """One chain's budget: these limits, clock and start instant,
        with every counter at zero."""
        share = EvalBudget(
            self.max_evaluations,
            deadline_seconds=self.deadline_seconds,
            max_failures=self.max_failures,
            clock=self._clock,
        )
        share._t0 = self._t0
        return share

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self._clock is not time.monotonic:
            # Only the caller's process can read a custom clock; a pool
            # worker gets the same remaining time on the monotonic one.
            state["_clock"] = time.monotonic
            if self._t0 is not None:
                state["_t0"] = time.monotonic() - self.elapsed()
        return state

    # ----------------------------------------------------------- accounting

    def consume(self, *, failed: bool = False) -> None:
        """Charge one completed evaluation against the budget."""
        self.start()
        self.evaluations += 1
        if failed:
            self.failures += 1

    # ----------------------------------------------------------- exhaustion

    def exhausted_reason(self) -> str | None:
        """Why the run must stop now, or ``None`` to keep going."""
        if (
            self.max_evaluations is not None
            and self.evaluations >= self.max_evaluations
        ):
            return "evaluation budget exhausted"
        if self.max_failures is not None and self.failures >= self.max_failures:
            return "failure budget exhausted"
        if (
            self.deadline_seconds is not None
            and self._t0 is not None
            and self.elapsed() >= self.deadline_seconds
        ):
            return "deadline exceeded"
        return None

    def exhausted(self) -> bool:
        return self.exhausted_reason() is not None

    def remaining_evaluations(self) -> int | None:
        if self.max_evaluations is None:
            return None
        return max(self.max_evaluations - self.evaluations, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EvalBudget(evaluations={self.evaluations}"
            f"/{self.max_evaluations}, failures={self.failures}"
            f"/{self.max_failures}, elapsed={self.elapsed():.2f}s"
            f"/{self.deadline_seconds})"
        )
