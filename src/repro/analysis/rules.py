"""Feasibility rule catalog (F/C/W codes) over interval metric bounds.

The registry mirrors :mod:`repro.lint`: rules carry stable codes so CI
gates and suppressions keep working as the catalog grows.  Codes:

* ``F1xx`` — provably infeasible specifications (a constraint that no
  point in the parameter box can satisfy);
* ``C2xx`` — mutually conflicting constraints (each satisfiable alone,
  impossible together);
* ``W6xx`` — vacuous constraints, degenerate ranges, and analysis
  coverage gaps (never block synthesis).

Every F/C verdict is *sound*: it only fires when the outward-rounded
interval bounds prove the condition over the whole box, so a rejected
spec really has no solution under the APE model.  See
``docs/LINTING.md`` for the catalog with fix hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from .interval import Interval
from .model import BOUNDED_METRICS, MetricModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.specs import Constraint, SynthesisSpec
    from ..technology import Technology

__all__ = [
    "SEVERITIES",
    "Finding",
    "Rule",
    "AnalysisContext",
    "register_rule",
    "registered_rules",
    "get_rule",
    "run_rules",
    "structural_gain_limit",
]

#: Recognized severities, mildest first (``error`` blocks synthesis).
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One feasibility verdict tied to a spec constraint or variable."""

    #: Stable rule code, e.g. ``"F101"``.
    code: str
    severity: str
    message: str
    #: Metric the finding is about (``""`` for box-level findings).
    metric: str = ""
    #: Proven metric bounds over the box, when the rule used them.
    bounds: tuple[float, float] | None = None
    #: The violated/conflicting constraint bound, when applicable.
    bound: float | None = None
    fix_hint: str = ""
    rule_name: str = ""

    def render(self) -> str:
        where = f" [{self.metric}]" if self.metric else ""
        text = f"{self.code} {self.severity}{where}: {self.message}"
        if self.fix_hint:
            text += f" (fix: {self.fix_hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "rule": self.rule_name,
            "severity": self.severity,
            "metric": self.metric,
            "message": self.message,
            "bounds": list(self.bounds) if self.bounds is not None else None,
            "bound": self.bound,
            "fix_hint": self.fix_hint,
        }


@dataclass(frozen=True)
class AnalysisContext:
    """Shared inputs every rule checks against."""

    spec: "SynthesisSpec"
    tech: "Technology"
    #: ``None`` when the topology is outside the closed-form model.
    model: MetricModel | None
    box: Mapping[str, tuple[float, float]]
    #: Guaranteed metric intervals over ``box`` (empty without a model).
    bounds: Mapping[str, Interval]

    def modeled(self, metric: str) -> bool:
        return metric in self.bounds


@dataclass(frozen=True)
class Rule:
    """One registered feasibility rule."""

    code: str
    name: str
    severity: str
    summary: str
    fix_hint: str
    check: Callable[["Rule", AnalysisContext], Iterable[Finding]]

    def finding(
        self,
        message: str,
        *,
        metric: str = "",
        bounds: tuple[float, float] | None = None,
        bound: float | None = None,
        severity: str | None = None,
        fix_hint: str | None = None,
    ) -> Finding:
        return Finding(
            code=self.code,
            severity=severity or self.severity,
            message=message,
            metric=metric,
            bounds=bounds,
            bound=bound,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            rule_name=self.name,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    code: str,
    name: str,
    *,
    severity: str = "error",
    summary: str,
    fix_hint: str = "",
) -> Callable[[Callable[[Rule, AnalysisContext], Iterable[Finding]]], Rule]:
    """Decorator registering a check function under a stable code."""
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}")

    def decorate(
        fn: Callable[[Rule, AnalysisContext], Iterable[Finding]]
    ) -> Rule:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        rule = Rule(
            code=code,
            name=name,
            severity=severity,
            summary=summary,
            fix_hint=fix_hint,
            check=fn,
        )
        _REGISTRY[code] = rule
        return rule

    return decorate


def registered_rules() -> list[Rule]:
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"unknown analysis rule {code!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def run_rules(context: AnalysisContext) -> list[Finding]:
    """Run the whole catalog; findings ordered most severe first."""
    findings: list[Finding] = []
    for rule in registered_rules():
        findings.extend(rule.check(rule, context))
    order = {sev: i for i, sev in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: (-order[f.severity], f.code, f.metric))
    return findings


def structural_gain_limit(tech: "Technology") -> float:
    """The two-stage gain ceiling ``a1_max * a2_max`` of a technology.

    Matches :func:`~repro.opamp.estimator.design_opamp`'s hard check:
    with the minimum usable overdrives, no overdrive split can deliver
    more low-frequency gain from the diff + common-source cascade (the
    buffer's gain is <= 1 and only tightens this).
    """
    from ..opamp.estimator import VOV1_MIN, VOV6_MIN

    lam_sum = tech.nmos.lambda_ + tech.pmos.lambda_
    return (2.0 / (VOV1_MIN * lam_sum)) * (2.0 / (VOV6_MIN * lam_sum))


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _constraints(context: AnalysisContext) -> Iterator["Constraint"]:
    yield from context.spec.constraints


# --------------------------------------------------------------------- F


@register_rule(
    "F101",
    "unreachable-lower-bound",
    severity="error",
    summary="a >= constraint exceeds the metric's proven upper bound",
    fix_hint=(
        "relax the bound, widen the parameter box, or pick a topology "
        "with more headroom for this metric"
    ),
)
def _check_unreachable_lower(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    for c in _constraints(context):
        if c.kind != "ge" or not context.modeled(c.metric):
            continue
        iv = context.bounds[c.metric]
        if iv.hi < c.bound:
            yield rule.finding(
                f"{c.metric} >= {_fmt(c.bound)} is unreachable: the "
                f"entire box yields {c.metric} <= {_fmt(iv.hi)}",
                metric=c.metric,
                bounds=(iv.lo, iv.hi),
                bound=c.bound,
            )


@register_rule(
    "F102",
    "unreachable-upper-bound",
    severity="error",
    summary="a <= constraint lies below the metric's proven lower bound",
    fix_hint=(
        "raise the budget, widen the parameter box, or pick a leaner "
        "topology for this metric"
    ),
)
def _check_unreachable_upper(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    for c in _constraints(context):
        if c.kind != "le" or not context.modeled(c.metric):
            continue
        iv = context.bounds[c.metric]
        if iv.lo > c.bound:
            yield rule.finding(
                f"{c.metric} <= {_fmt(c.bound)} is unreachable: the "
                f"entire box yields {c.metric} >= {_fmt(iv.lo)}",
                metric=c.metric,
                bounds=(iv.lo, iv.hi),
                bound=c.bound,
            )


@register_rule(
    "F103",
    "empty-spec-window",
    severity="error",
    summary="a metric's >= bound exceeds its <= bound (no value satisfies both)",
    fix_hint="fix the inconsistent pair of bounds in the specification",
)
def _check_empty_window(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    lows: dict[str, float] = {}
    highs: dict[str, float] = {}
    for c in _constraints(context):
        if c.kind == "ge":
            lows[c.metric] = max(lows.get(c.metric, -float("inf")), c.bound)
        else:
            highs[c.metric] = min(highs.get(c.metric, float("inf")), c.bound)
    for metric in sorted(set(lows) & set(highs)):
        if lows[metric] > highs[metric]:
            yield rule.finding(
                f"{metric} window is empty: >= {_fmt(lows[metric])} "
                f"contradicts <= {_fmt(highs[metric])}",
                metric=metric,
                bound=lows[metric],
            )


@register_rule(
    "F104",
    "gain-beyond-structural-limit",
    severity="error",
    summary="required gain exceeds the technology's two-stage ceiling",
    fix_hint=(
        "lower the gain target, cascade more stages, or use a "
        "longer-channel (smaller lambda) technology"
    ),
)
def _check_structural_gain(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    limit = structural_gain_limit(context.tech)
    for c in _constraints(context):
        if c.metric != "gain" or c.kind != "ge":
            continue
        if c.bound > limit:
            yield rule.finding(
                f"gain >= {_fmt(c.bound)} exceeds the two-stage "
                f"structural ceiling ~{limit:.0f} in {context.tech.name}",
                metric="gain",
                bound=c.bound,
            )


# --------------------------------------------------------------------- C


@register_rule(
    "C201",
    "power-slew-conflict",
    severity="error",
    summary="the slew-rate demand forces more current than the power budget allows",
    fix_hint=(
        "raise the power budget, relax the slew rate, or shrink the "
        "load/compensation capacitance the slewing current must charge"
    ),
)
def _check_power_slew(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    model = context.model
    if model is None:
        return
    slew_req = max(
        (c.bound for c in _constraints(context)
         if c.metric == "slew_rate" and c.kind == "ge"),
        default=0.0,
    )
    power_cap = min(
        (c.bound for c in _constraints(context)
         if c.metric == "dc_power" and c.kind == "le"),
        default=float("inf"),
    )
    if slew_req <= 0.0 or not power_cap < float("inf"):
        return
    # The smallest branch current any in-box design needs to slew at
    # the demanded rate: the slewing capacitor is CL for a two-stage
    # output (and for an uncompensated single stage), or the dominant-
    # pole capacitor's box minimum behind a buffer.
    cc_lo = context.box.get("cc", (model.cc0, model.cc0))[0]
    if model.two_stage or model.cc0 <= 0:
        i_floor = slew_req * model.cl
        charged = f"the {_fmt(model.cl)} F load"
    else:
        i_floor = slew_req * cc_lo
        charged = f"the compensation capacitor (>= {_fmt(cc_lo)} F)"
    p_floor = model.span * i_floor
    if p_floor > power_cap:
        yield rule.finding(
            f"slew_rate >= {_fmt(slew_req)} V/s forces at least "
            f"{_fmt(i_floor)} A through {charged}, i.e. dc_power >= "
            f"{_fmt(p_floor)} W, but the budget is "
            f"dc_power <= {_fmt(power_cap)} W",
            metric="slew_rate",
            bound=slew_req,
            bounds=(p_floor, float("inf")),
        )


@register_rule(
    "C202",
    "pairwise-constraint-conflict",
    severity="error",
    summary=(
        "two individually feasible constraints exclude each other: "
        "contracting the box to one provably violates the other"
    ),
    fix_hint="relax one of the two named bounds; they compete for the same box",
)
def _check_pairwise_conflict(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    from .contract import contract_box

    model = context.model
    if model is None:
        return
    modeled = [
        c for c in _constraints(context)
        if context.modeled(c.metric)
    ]
    # Only constraints that are individually satisfiable somewhere in
    # the box (otherwise F101/F102 already reported them).
    live: list["Constraint"] = []
    for c in modeled:
        iv = context.bounds[c.metric]
        sat = iv.hi >= c.bound if c.kind == "ge" else iv.lo <= c.bound
        if sat:
            live.append(c)
    if len(live) != len(modeled):
        # Some constraint is individually unreachable, so F101/F102
        # already proved the spec infeasible; the pairwise contraction
        # sweep is most of an analysis's interval evaluations (34 of
        # the 35 a Table-1 oa0 admission makes) and could only add a
        # redundant second verdict.
        return
    reported: set[tuple[str, ...]] = set()
    for anchor in live:
        contracted = contract_box(
            model, context.box, [anchor], slack=False
        )
        if contracted is None:
            continue
        bounds = model.bounds(contracted)
        for other in live:
            if other is anchor:
                continue
            key = tuple(
                sorted((f"{anchor.metric}:{anchor.kind}",
                        f"{other.metric}:{other.kind}"))
            )
            if key in reported or other.metric not in bounds:
                continue
            iv = bounds[other.metric]
            violated = (
                iv.hi < other.bound if other.kind == "ge" else iv.lo > other.bound
            )
            if violated:
                reported.add(key)
                yield rule.finding(
                    f"{anchor.metric} {anchor.kind} {_fmt(anchor.bound)} "
                    f"and {other.metric} {other.kind} {_fmt(other.bound)} "
                    "conflict: every box point compatible with the first "
                    "provably violates the second",
                    metric=other.metric,
                    bounds=(iv.lo, iv.hi),
                    bound=other.bound,
                )


# --------------------------------------------------------------------- W


@register_rule(
    "W601",
    "vacuous-constraint",
    severity="info",
    summary="a constraint is satisfied by every point of the box",
    fix_hint="the bound never binds; drop it or tighten it if it was meant to",
)
def _check_vacuous(rule: Rule, context: AnalysisContext) -> Iterable[Finding]:
    for c in _constraints(context):
        if not context.modeled(c.metric):
            continue
        iv = context.bounds[c.metric]
        vacuous = iv.lo >= c.bound if c.kind == "ge" else iv.hi <= c.bound
        if vacuous:
            yield rule.finding(
                f"{c.metric} {c.kind} {_fmt(c.bound)} holds everywhere "
                f"in the box (proven {c.metric} in "
                f"[{_fmt(iv.lo)}, {_fmt(iv.hi)}])",
                metric=c.metric,
                bounds=(iv.lo, iv.hi),
                bound=c.bound,
            )


@register_rule(
    "W602",
    "degenerate-range",
    severity="warning",
    summary="a search variable's range is (nearly) a single point",
    fix_hint=(
        "widen the range or remove the variable; a point range wastes "
        "annealer moves"
    ),
)
def _check_degenerate(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    for name in sorted(context.box):
        lo, hi = context.box[name]
        if hi <= lo * (1.0 + 1e-9):
            yield rule.finding(
                f"variable {name} is pinned to [{_fmt(lo)}, {_fmt(hi)}]",
                metric=name,
                bounds=(lo, hi),
            )


@register_rule(
    "W603",
    "unanalyzable-metric",
    severity="info",
    summary="a constraint's metric is outside the closed-form model",
    fix_hint=(
        "the bound is checked at solve time only; no static verdict is "
        "possible for this metric"
    ),
)
def _check_unanalyzable(
    rule: Rule, context: AnalysisContext
) -> Iterable[Finding]:
    seen: set[str] = set()
    for c in _constraints(context):
        if c.metric in seen or context.modeled(c.metric):
            continue
        if context.model is not None and c.metric in BOUNDED_METRICS:
            continue  # modeled in principle; bounds just absent
        seen.add(c.metric)
        yield rule.finding(
            f"{c.metric} is not covered by the interval model; the "
            f"{c.kind} {_fmt(c.bound)} bound cannot be analyzed statically",
            metric=c.metric,
            bound=c.bound,
        )
