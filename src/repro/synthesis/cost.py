"""Scalar cost function over measured metrics.

The ASTRX/OBLX formulation: a weighted sum of normalized constraint
violations (dominant) plus normalized objective terms (tie-breaking),
with a large fixed penalty for candidates that cannot be evaluated at
all (no DC convergence, no unity crossing, ...).
"""

from __future__ import annotations

import math
from typing import Mapping

from .specs import SynthesisSpec

__all__ = [
    "CostFunction",
    "RobustCost",
    "worst_case_metrics",
    "FAILURE_COST",
    "YIELD_PENALTY",
    "ROBUST_COST_MODES",
]

#: :class:`RobustCost`'s aggregations: the worst case over the
#: variants, or the nominal cost plus a shortfall against a yield target.
ROBUST_COST_MODES = ("worst", "yield")

#: Cost assigned to a candidate that could not be simulated.
FAILURE_COST = 100.0
#: Multiplier applied to constraint violations relative to objectives.
CONSTRAINT_EMPHASIS = 10.0
#: Weight of a missed yield fraction in :class:`RobustCost`'s yield
#: mode.  Half of :data:`FAILURE_COST`: losing *all* yield hurts about
#: as much as half the variants failing to simulate, which keeps the
#: yield term dominant over objectives but below hard failures.
YIELD_PENALTY = 50.0


class CostFunction:
    """Compile a :class:`SynthesisSpec` into ``cost(metrics) -> float``."""

    def __init__(self, spec: SynthesisSpec) -> None:
        self.spec = spec

    def __call__(self, metrics: dict[str, float] | None) -> float:
        if metrics is None:
            return FAILURE_COST
        total = 0.0
        for constraint in self.spec.constraints:
            value = metrics.get(constraint.metric, math.nan)
            total += (
                CONSTRAINT_EMPHASIS
                * constraint.weight
                * constraint.violation(value)
            )
        for objective in self.spec.objectives:
            total += objective.term(metrics.get(objective.metric, math.nan))
        return total

    def meets_spec(self, metrics: dict[str, float] | None, slack: float = 0.05) -> bool:
        if metrics is None:
            return False
        return self.spec.meets(metrics, slack)

    def describe_failure(
        self, metrics: dict[str, float] | None, slack: float = 0.05
    ) -> str:
        """A Table-1-style comment: which constraint is worst violated."""
        import math

        if metrics is None:
            return "doesn't work"
        worst: tuple[float, str, str] | None = None
        for c in self.spec.constraints:
            v = c.violation(metrics.get(c.metric, math.nan))
            if v > slack and (worst is None or v > worst[0]):
                worst = (v, c.metric, c.kind)
        if worst is None:
            return "meets spec"
        amount, metric, kind = worst
        rel = "<" if kind == "ge" else ">"
        if amount >= 1.0:
            return f"{metric} violated"
        if amount > 0.5:
            return f"{metric} {rel}{rel} spec"
        return f"{metric} {rel} spec"


def worst_case_metrics(
    spec: SynthesisSpec,
    variants: Mapping[str, dict[str, float] | None],
) -> dict[str, float]:
    """Per-metric worst case across a family of variant evaluations.

    ``variants`` maps a variant label (corner canonical name, ``"mc:3"``,
    ...) to its metrics, *nominal first*.  For each metric the value
    picked is the one that violates the spec's constraints on that
    metric the most — not a blind min or max, which would be wrong for
    two-sided constraints like the bias-current window (``i_ref`` must
    sit within +/-30 % of the program), and for metrics where "worse"
    depends on direction.  Metrics no constraint mentions fall back to
    the objective term, then to the nominal value.  Ties keep the first
    (nominal-most) variant's value, and NaNs count as fully violated,
    so a corner that lost a metric entirely surfaces as the worst case.
    """
    evaluated = [m for m in variants.values() if m is not None]
    merged: dict[str, float] = {}
    names: list[str] = []
    for metrics in evaluated:
        for name in metrics:
            if name not in merged:
                merged[name] = math.nan
                names.append(name)
    for name in names:
        values = [m[name] for m in evaluated if name in m]
        constraints = [c for c in spec.constraints if c.metric == name]
        if constraints:
            merged[name] = max(
                values,
                key=lambda v: sum(c.violation(v) for c in constraints),
            )
            continue
        objectives = [o for o in spec.objectives if o.metric == name]
        if objectives:
            merged[name] = max(
                values,
                key=lambda v: sum(o.term(v) for o in objectives),
            )
            continue
        merged[name] = values[0]
    return merged


class RobustCost:
    """Scalar cost over a family of variant evaluations of one candidate.

    ``variants`` (as passed to :meth:`__call__`) maps variant labels to
    metric dicts (``None`` for variants that failed to evaluate),
    nominal first.  Two aggregation modes:

    ``worst``
        The cost of the worst variant — the ASTRX/OBLX scalar applied
        per variant, maximized.  Pushing the worst corner down is the
        classic minimax robust-design objective; a variant that fails
        to simulate costs :data:`FAILURE_COST` and therefore dominates.

    ``yield``
        The nominal cost plus ``YIELD_PENALTY * max(0, target - yield)``
        where yield is the fraction of *all* variants (failures
        included) meeting the spec.  Below-target yield is penalized
        linearly; at or above target the candidate competes purely on
        its nominal cost, so the optimizer is free to trade excess
        margin for power/area again.
    """

    def __init__(
        self,
        spec: SynthesisSpec,
        mode: str = "worst",
        *,
        yield_target: float = 1.0,
        yield_penalty: float = YIELD_PENALTY,
    ) -> None:
        if mode not in ROBUST_COST_MODES:
            raise ValueError(
                f"unknown robust cost mode {mode!r}; expected one of "
                f"{ROBUST_COST_MODES}"
            )
        if not 0.0 <= yield_target <= 1.0:
            raise ValueError(
                f"yield target must be within [0, 1], got {yield_target}"
            )
        self.spec = spec
        self.mode = mode
        self.yield_target = yield_target
        self.yield_penalty = yield_penalty
        self.base = CostFunction(spec)

    def estimated_yield(
        self, variants: Mapping[str, dict[str, float] | None]
    ) -> float:
        """Fraction of variants (failures included) meeting the spec."""
        if not variants:
            return 0.0
        passing = sum(
            1 for m in variants.values() if self.base.meets_spec(m)
        )
        return passing / len(variants)

    def worst_variant(
        self, variants: Mapping[str, dict[str, float] | None]
    ) -> str | None:
        """Label of the costliest variant (first wins ties)."""
        worst: tuple[float, str] | None = None
        for label, metrics in variants.items():
            cost = self.base(metrics)
            if worst is None or cost > worst[0]:
                worst = (cost, label)
        return worst[1] if worst is not None else None

    def __call__(
        self, variants: Mapping[str, dict[str, float] | None]
    ) -> float:
        if not variants:
            return FAILURE_COST
        if self.mode == "worst":
            return max(self.base(m) for m in variants.values())
        nominal = next(iter(variants.values()))
        shortfall = max(0.0, self.yield_target - self.estimated_yield(variants))
        return self.base(nominal) + self.yield_penalty * shortfall

    def meets_spec(
        self,
        variants: Mapping[str, dict[str, float] | None],
        slack: float = 0.05,
    ) -> bool:
        """Spec check under the aggregation: every variant must pass in
        ``worst`` mode; the yield target must be met in ``yield`` mode."""
        if not variants:
            return False
        if self.mode == "worst":
            return all(self.base.meets_spec(m, slack) for m in variants.values())
        return self.estimated_yield(variants) >= self.yield_target
