"""Sound box contraction: shrink parameter ranges the spec rules out.

For each search variable, each side of its range is pushed inward to
the largest prefix that is *provably infeasible* — a sub-box on which
the interval bounds show some constraint violated everywhere.  Removing
such a prefix can never exclude a feasible point, so the contracted box
is safe to hand to the annealer: every spec-satisfying design of the
original box survives.

The dichotomy runs in log space (the annealer samples log-uniformly)
and only ever cuts at a test point whose prefix was itself proven
infeasible, never at an interpolated one.  By default the constraint
bounds are *slacked* (``>=`` halved, ``<=`` doubled) before contracting:
the interval model is the APE square-law estimate, and the slack keeps
designs the full simulator would accept — but the model slightly
misjudges — inside the box.  Infeasibility *verdicts* (F-codes) always
use the exact bounds; only the box surgery is softened.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .model import BOUNDED_METRICS, MetricModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.specs import Constraint

__all__ = ["contract_box", "GE_SLACK", "LE_SLACK"]

#: Slack factors applied to constraint bounds before cutting the box.
GE_SLACK = 0.5
LE_SLACK = 2.0

#: Log-space dichotomy steps per side (resolves ~1/2^12 of the decade
#: span) and alternating sweeps over the variables (a cut on one
#: variable can expose cuts on another).
_STEPS = 12
_SWEEPS = 2


def _slacked(
    constraints: Sequence["Constraint"], slack: bool
) -> list[tuple[str, str, float]]:
    out: list[tuple[str, str, float]] = []
    for c in constraints:
        bound = c.bound
        if slack:
            bound = bound * (GE_SLACK if c.kind == "ge" else LE_SLACK)
        out.append((c.metric, c.kind, bound))
    return out


def _provably_infeasible(
    model: MetricModel,
    box: Mapping[str, tuple[float, float]],
    constraints: Sequence[tuple[str, str, float]],
) -> bool:
    """True when some constraint is violated on every point of ``box``."""
    bounds = model.bounds(box)
    for metric, kind, bound in constraints:
        iv = bounds.get(metric)
        if iv is None:
            continue
        if kind == "ge":
            if iv.hi < bound:
                return True
        elif iv.lo > bound:
            return True
    return False


def contract_box(
    model: MetricModel,
    box: Mapping[str, tuple[float, float]],
    constraints: Sequence["Constraint"],
    *,
    slack: bool = True,
    steps: int = _STEPS,
    sweeps: int = _SWEEPS,
) -> dict[str, tuple[float, float]] | None:
    """The sub-box that can possibly satisfy ``constraints``.

    Returns a (possibly identical) copy of ``box`` with provably dead
    range prefixes removed, or ``None`` when the *whole* box is provably
    infeasible — the caller should have rejected via the F-rules first,
    but degenerate inputs stay well-defined.
    """
    checks = _slacked(
        [c for c in constraints if c.metric in BOUNDED_METRICS], slack
    )
    current = {name: (lo, hi) for name, (lo, hi) in box.items()}
    if not checks:
        return current
    if _provably_infeasible(model, current, checks):
        return None

    def prefix_infeasible(name: str, lo: float, hi: float) -> bool:
        trial = dict(current)
        trial[name] = (lo, hi)
        return _provably_infeasible(model, trial, checks)

    for _ in range(max(sweeps, 1)):
        changed = False
        for name in sorted(current):
            for side in ("lo", "hi"):
                lo, hi = current[name]
                if hi <= lo or lo <= 0.0:
                    continue
                span = math.log(hi / lo)
                if span <= 0.0:
                    continue

                def prefix(t: float) -> tuple[float, float]:
                    """The prefix sub-range of log-fraction ``t``."""
                    if side == "lo":
                        return lo, min(lo * math.exp(span * t), hi)
                    return max(hi * math.exp(-span * t), lo), hi

                # The degenerate slice at the endpoint itself must be
                # provably dead before anything is cut at all.
                anchor = (lo, lo) if side == "lo" else (hi, hi)
                if not prefix_infeasible(name, *anchor):
                    continue
                t_dead, t_open = 0.0, 1.0
                for _ in range(max(steps, 1)):
                    mid = 0.5 * (t_dead + t_open)
                    if prefix_infeasible(name, *prefix(mid)):
                        t_dead = mid
                    else:
                        t_open = mid
                if t_dead <= 0.0:
                    continue
                p_lo, p_hi = prefix(t_dead)
                if side == "lo" and p_hi > lo:
                    current[name] = (p_hi, hi)
                    changed = True
                elif side == "hi" and p_lo < hi:
                    current[name] = (lo, p_lo)
                    changed = True
        if not changed:
            break
    return current
