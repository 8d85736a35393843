"""Simulated annealing over log-scaled design variables.

A compact, deterministic (seeded) implementation of the classic
Metropolis annealer ASTRX/OBLX is built on: geometric cooling, one
variable perturbed per move in log space, move size tied to the
temperature, fixed evaluation budget.

Failed candidate evaluations (``metrics is None``) are a first-class
outcome: they are counted in :attr:`AnnealResult.failed_evaluations`
and the search continues from the best point so far.  An optional
:class:`~repro.runtime.budget.EvalBudget` is polled between moves so a
run that exceeds its deadline or failure budget stops gracefully with
``degraded`` set instead of hanging or dying.

An optional *screen* — a cheap cost estimate, ``params -> float`` —
turns each move into a small batch: :data:`SCREEN_BATCH` proposals are
drawn, and only the one with the lowest estimate (the first drawn on a
tie) pays a full evaluation; the rest are counted as
``surrogate_skips``.  Synthesis runs pass the APE closed-form
equations priced by the run's cost function
(:class:`~repro.analysis.MetricModel`), so the screen needs no
training data.  With no screen the move loop draws one proposal per
move, as the classic annealer does.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..errors import SpecificationError
from ..runtime.budget import EvalBudget

__all__ = ["AnnealingSchedule", "AnnealResult", "Annealer", "SCREEN_BATCH"]

#: Proposals drawn per move when a screen ranks them; one is evaluated,
#: the rest are counted as ``surrogate_skips``.
SCREEN_BATCH = 4


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling parameters (the paper used one fixed default set)."""

    t_start: float = 2.0
    t_end: float = 0.005
    alpha: float = 0.92
    moves_per_temperature: int = 20
    #: log-space step size at t_start, shrinking with temperature.
    step_scale: float = 0.8


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    best_params: dict[str, float]
    best_cost: float
    best_metrics: dict[str, float] | None
    evaluations: int
    accepted: int
    history: list[float] = field(default_factory=list)
    #: Evaluations whose metrics came back ``None`` (unusable candidate).
    failed_evaluations: int = 0
    #: True when an :class:`EvalBudget` stopped the run before the
    #: cooling schedule finished naturally.
    degraded: bool = False
    #: Why the budget stopped the run (empty on a natural finish).
    stop_reason: str = ""
    #: Wall-clock seconds spent inside :meth:`Annealer.run`.
    wall_seconds: float = 0.0
    #: Throughput: ``evaluations / wall_seconds`` (0 when unmeasured).
    evals_per_second: float = 0.0
    #: Proposals discarded un-evaluated by the screen.
    surrogate_skips: int = 0


class Annealer:
    """Anneal ``cost(params)`` over box-bounded log-scale variables.

    ``evaluate`` maps a parameter dict to (cost, metrics); ``bounds``
    maps each variable to its (lo, hi) interval.  All variables are
    perturbed multiplicatively, which suits geometric quantities (W, L,
    C, I) spanning decades.
    """

    def __init__(
        self,
        evaluate: Callable[[dict[str, float]], tuple[float, dict[str, float] | None]],
        bounds: dict[str, tuple[float, float]],
        schedule: AnnealingSchedule | None = None,
        seed: int = 1,
        screen: Callable[[dict[str, float]], float] | None = None,
    ) -> None:
        for name, (lo, hi) in bounds.items():
            if not 0 < lo <= hi:
                raise SpecificationError(
                    f"variable {name}: bad bounds [{lo}, {hi}]",
                    context={"variable": name, "lo": lo, "hi": hi},
                )
        self.evaluate = evaluate
        self.bounds = bounds
        #: Variable names, fixed at construction: the move loop draws a
        #: name per move, and rebuilding ``list(self.bounds)`` each time
        #: showed up in profiles.  ``rng.choice`` consumes the identical
        #: random stream for a tuple, so results are bit-for-bit the same.
        self._names = tuple(bounds)
        self.schedule = schedule or AnnealingSchedule()
        self.rng = random.Random(seed)
        #: Optional cost estimate ranking each move's proposals (see the
        #: module docstring); ``None`` keeps the one-proposal loop.
        self.screen = screen

    def _random_point(self) -> dict[str, float]:
        point = {}
        for name in self._names:
            lo, hi = self.bounds[name]
            point[name] = math.exp(
                self.rng.uniform(math.log(lo), math.log(hi))
            )
        return point

    def _perturb(self, params: dict[str, float], temperature: float) -> dict[str, float]:
        sched = self.schedule
        name = self.rng.choice(self._names)
        lo, hi = self.bounds[name]
        scale = sched.step_scale * math.sqrt(
            temperature / sched.t_start
        )
        new = dict(params)
        value = params[name] * math.exp(self.rng.gauss(0.0, scale))
        new[name] = min(max(value, lo), hi)
        return new

    def run(
        self,
        x0: dict[str, float] | None = None,
        max_evaluations: int = 400,
        budget: EvalBudget | None = None,
    ) -> AnnealResult:
        """Anneal from ``x0`` (or a random point) within the budget.

        ``max_evaluations`` is the classic fixed evaluation count; the
        optional ``budget`` adds deadline and failure-count limits on
        top.  Either way the best point found so far is returned —
        budget exhaustion degrades the run, it never raises.
        """
        sched = self.schedule
        t_run = time.perf_counter()
        if budget is not None:
            budget.start()
        screen = self.screen
        skips = 0
        failed = 0
        current = dict(x0) if x0 is not None else self._random_point()
        for name, (lo, hi) in self.bounds.items():
            current[name] = min(max(current.get(name, lo), lo), hi)
        current_cost, current_metrics = self.evaluate(current)
        if current_metrics is None:
            failed += 1
        if budget is not None:
            budget.consume(failed=current_metrics is None)
        evaluations = 1
        accepted = 0
        best = (dict(current), current_cost, current_metrics)
        history = [current_cost]
        temperature = sched.t_start
        stop_reason = ""
        while temperature > sched.t_end and evaluations < max_evaluations:
            for _ in range(sched.moves_per_temperature):
                if evaluations >= max_evaluations:
                    break
                if budget is not None:
                    reason = budget.exhausted_reason()
                    if reason is not None:
                        stop_reason = reason
                        break
                if screen is None:
                    candidate = self._perturb(current, temperature)
                else:
                    proposals = [
                        self._perturb(current, temperature)
                        for _ in range(SCREEN_BATCH)
                    ]
                    candidate = min(proposals, key=screen)
                    skips += SCREEN_BATCH - 1
                cost, metrics = self.evaluate(candidate)
                evaluations += 1
                if metrics is None:
                    failed += 1
                if budget is not None:
                    budget.consume(failed=metrics is None)
                delta = cost - current_cost
                if delta <= 0 or self.rng.random() < math.exp(
                    -delta / max(temperature, 1e-12)
                ):
                    current, current_cost, current_metrics = (
                        candidate, cost, metrics,
                    )
                    accepted += 1
                    if current_cost < best[1]:
                        best = (dict(current), current_cost, current_metrics)
                history.append(current_cost)
            if stop_reason:
                break
            temperature *= sched.alpha
        wall = time.perf_counter() - t_run
        return AnnealResult(
            best_params=best[0],
            best_cost=best[1],
            best_metrics=best[2],
            evaluations=evaluations,
            accepted=accepted,
            history=history,
            failed_evaluations=failed,
            degraded=bool(stop_reason),
            stop_reason=stop_reason,
            wall_seconds=wall,
            evals_per_second=(evaluations / wall) if wall > 0 else 0.0,
            surrogate_skips=skips,
        )
