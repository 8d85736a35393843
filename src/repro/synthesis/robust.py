"""Corner/yield-aware candidate evaluation — robust synthesis core.

The paper (and ASTRX/OBLX) size at the nominal process; a design that
only works at TT is not manufacturable.  This module makes variation a
first-class synthesis objective: every candidate is evaluated across a
set of process corners (:mod:`repro.variation.corners`) and
deterministic Pelgrom mismatch samples
(:mod:`repro.variation.montecarlo`), and the annealer minimizes either
the worst-case cost over the family or a yield-weighted nominal cost
(:class:`~repro.synthesis.cost.RobustCost`).

Scheduling shape — *screen then verify*: the nominal evaluation runs
first, and only candidates whose nominal cost clears a fixed screen
threshold fan out to the corner/Monte Carlo variants.  The threshold
is a constant of the run (never the current best), so screening is a
pure function of the candidate and evaluation stays *canonical* —
history-independent — which is the invariant the shared memo cache,
worker-count independence and bit-exact ``--resume`` all rest on.
Each variant is memoized under its own tag (``"corner:ss@-40C"``,
``"mc:3"``), so a shared :class:`~repro.parallel.EvalMemo` can never
hand a nominal result to a corner evaluation or vice versa.

A corner whose simulation fails is a *degraded variant*, not a crash:
the sizing problem's retry ladder re-attempts the DC solve, a
:class:`~repro.runtime.diagnostics.Diagnostic` records the failure,
and the variant enters the aggregation as a failed evaluation
(penalized at :data:`~repro.synthesis.cost.FAILURE_COST`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmp
from ..opamp.benches import open_loop_bench
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..technology import Technology
from ..variation.corners import derive_corner, parse_corner
from ..variation.montecarlo import (
    MismatchModel,
    derive_sample_seed,
    perturbed_circuit,
)
from .cost import FAILURE_COST, RobustCost, worst_case_metrics
from .problems import OpAmpSizingProblem, Variable
from .specs import SynthesisSpec

__all__ = [
    "RobustSpec",
    "RobustEvaluator",
    "retarget_opamp",
    "DEFAULT_SCREEN_THRESHOLD",
]

#: Default nominal-cost screen.  A candidate whose nominal cost reaches
#: this value is already deeply infeasible (a quarter of the hard
#: failure penalty — several constraints badly violated), so spending
#: corner evaluations on it cannot change the search's trajectory; the
#: candidate keeps its nominal-only cost.  The threshold is a run
#: constant, which keeps screening canonical.
DEFAULT_SCREEN_THRESHOLD = 25.0


@dataclass(frozen=True)
class RobustSpec:
    """Configuration of a variation-robust synthesis run.

    ``corners`` holds canonical corner names (normalized by
    :func:`~repro.variation.corners.parse_corner` at construction —
    ``"SS@-40C"`` becomes ``"ss@-40C"``); ``mc_samples`` adds that many
    deterministic Pelgrom mismatch samples (sample ``i`` is seeded
    ``derive_sample_seed(mc_seed, i)``).  ``mode`` selects the
    aggregation (``"worst"`` minimax or ``"yield"`` nominal-plus-
    shortfall, see :class:`~repro.synthesis.cost.RobustCost`);
    ``screen_threshold`` gates the fan-out (``None`` evaluates every
    variant for every candidate).  Frozen and ``repr``-stable, so it
    can ride in :class:`~repro.parallel.ChainTask`, the worker bundle
    key and the run-journal fingerprint.
    """

    corners: tuple[str, ...] = ("tt", "ss", "ff")
    mc_samples: int = 0
    mode: str = "worst"
    yield_target: float = 1.0
    mc_seed: int = 1
    #: Pelgrom coefficients for the mismatch samples.
    a_vt: float = 10e-3 * 1e-6
    a_beta: float = 0.01 * 1e-6
    screen_threshold: float | None = DEFAULT_SCREEN_THRESHOLD

    def __post_init__(self) -> None:
        if self.mode not in ("worst", "yield"):
            raise SpecificationError(
                f"unknown robust cost mode {self.mode!r}",
                context={"mode": self.mode, "known": ("worst", "yield")},
            )
        if self.mc_samples < 0:
            raise SpecificationError(
                f"mc_samples must be >= 0, got {self.mc_samples}",
                context={"parameter": "mc_samples", "value": self.mc_samples},
            )
        if not 0.0 <= self.yield_target <= 1.0:
            raise SpecificationError(
                f"yield target must be within [0, 1], got {self.yield_target}",
                context={
                    "parameter": "yield_target",
                    "value": self.yield_target,
                },
            )
        if not self.corners and self.mc_samples == 0:
            raise SpecificationError(
                "robust synthesis needs at least one corner or Monte Carlo "
                "sample",
                context={"corners": self.corners},
            )
        canonical = tuple(parse_corner(c).canonical for c in self.corners)
        object.__setattr__(self, "corners", canonical)

    @property
    def variant_labels(self) -> tuple[str, ...]:
        """Variant labels in evaluation order, nominal first."""
        return (
            ("nominal",)
            + tuple(f"corner:{c}" for c in self.corners)
            + tuple(f"mc:{i}" for i in range(self.mc_samples))
        )

    def mismatch(self) -> MismatchModel:
        return MismatchModel(a_vt=self.a_vt, a_beta=self.a_beta)


def retarget_opamp(template: OpAmp, tech: Technology) -> OpAmp:
    """Rebind a sized op-amp to another technology, geometry unchanged.

    Every device keeps its drawn W/L but swaps its model card for
    ``tech``'s model of the same polarity; the amp's (and each stage's)
    ``tech`` moves too, so benches built from the result use the new
    supply rails.  This is exactly what a corner evaluation means: the
    *same layout* fabricated on a shifted process — sizes are frozen,
    models move.  The stale per-device operating-point estimates are
    left alone; robust evaluation re-simulates rather than re-estimate.
    """
    from dataclasses import replace

    from ..devices import MosDevice

    new_stages = {}
    for stage_name, stage in template.stages.items():
        new_devices = {}
        for role, sized in stage.devices.items():
            model = tech.model(sized.device.model.polarity)
            device = MosDevice(model, sized.device.w, sized.device.l)
            new_devices[role] = replace(sized, device=device)
        new_stages[stage_name] = replace(
            stage, tech=tech, devices=new_devices
        )
    devices = {
        f"{stage_name}.{role}": dev
        for stage_name, stage in new_stages.items()
        for role, dev in stage.devices.items()
    }
    return replace(template, tech=tech, stages=new_stages, devices=devices)


class _MismatchBench:
    """Bench factory applying one fixed mismatch realization.

    A fresh :class:`random.Random` seeded with the sample's derived
    seed is drawn on *every* call, so the perturbation is a pure
    function of ``(seed, candidate geometry)`` — never of how many
    benches were built before.  That keeps Monte Carlo variants
    canonical and therefore memoizable and order-independent.
    """

    def __init__(self, seed: int, mismatch: MismatchModel) -> None:
        self.seed = seed
        self.mismatch = mismatch

    def __call__(self, amp: OpAmp, v_diff: float = 0.0):
        bench = open_loop_bench(amp, v_diff=v_diff)
        return perturbed_circuit(
            bench, random.Random(self.seed), self.mismatch
        )


class RobustEvaluator:
    """Evaluate candidates across corners and mismatch samples.

    Owns one :class:`OpAmpSizingProblem` per variant: the nominal
    problem (shared with the plain synthesis path when provided), one
    retargeted problem per corner, and one mismatch-bench problem per
    Monte Carlo sample.  ``evaluate(params)`` returns the aggregated
    ``(cost, worst_case_metrics)`` pair the annealer consumes;
    ``detail(params)`` fans a candidate out to *every* variant
    (screening ignored) for final reporting.

    Structural choices worth noting:

    * A plain ``tt`` corner is an alias of the nominal evaluation (the
      speed shift for ``t`` is the identity), so it reuses the nominal
      metrics instead of re-simulating.
    * Corner/MC problems run with ``lint=False`` — the electrical rule
      check is structural + geometric and the nominal problem already
      gates the candidate once.
    * Monte Carlo problems disable the in-place bench fast path: the
      mismatch realization depends on device geometry (Pelgrom), so an
      in-place W/L update would keep a stale perturbation.
    """

    def __init__(
        self,
        template: OpAmp,
        variables: list[Variable],
        robust: RobustSpec,
        synthesis_spec: SynthesisSpec,
        *,
        retry: RetryPolicy | None = None,
        diagnostics: DiagnosticLog | None = None,
        lint: bool = True,
        warm_start: bool = False,
        reuse_bench: bool = False,
        nominal_problem: OpAmpSizingProblem | None = None,
    ) -> None:
        self.robust = robust
        self.synthesis_spec = synthesis_spec
        self.cost = RobustCost(
            synthesis_spec, robust.mode, yield_target=robust.yield_target
        )
        self.base_cost = self.cost.base
        self.diagnostics = diagnostics
        if nominal_problem is not None:
            self.nominal = nominal_problem
        else:
            self.nominal = OpAmpSizingProblem(
                template,
                variables,
                retry=retry,
                diagnostics=diagnostics,
                lint=lint,
                warm_start=warm_start,
                reuse_bench=reuse_bench,
            )
        #: Variant label -> problem; ``None`` marks a nominal alias.
        self.problems: dict[str, OpAmpSizingProblem | None] = {}
        mismatch = robust.mismatch()
        for corner in robust.corners:
            label = f"corner:{corner}"
            spec_c = parse_corner(corner)
            if spec_c.canonical == "tt":
                self.problems[label] = None
                continue
            corner_template = retarget_opamp(
                template, derive_corner(template.tech, spec_c)
            )
            self.problems[label] = OpAmpSizingProblem(
                corner_template,
                variables,
                retry=retry,
                diagnostics=diagnostics,
                lint=False,
                warm_start=warm_start,
                reuse_bench=reuse_bench,
            )
        for index in range(robust.mc_samples):
            self.problems[f"mc:{index}"] = OpAmpSizingProblem(
                template,
                variables,
                retry=retry,
                diagnostics=diagnostics,
                lint=False,
                warm_start=False,
                reuse_bench=False,
                bench_factory=_MismatchBench(
                    derive_sample_seed(robust.mc_seed, index), mismatch
                ),
            )
        #: Optional tagged evaluation cache (assigned by the caller;
        #: the executor clears it while a fault injector is armed).
        self.memo = None
        #: Logical variant evaluations beyond the nominal one (alias
        #: and memo hits included, so the count is identical whatever
        #: the worker count or cache warmth).
        self.corner_evaluations = 0
        #: Candidates whose nominal cost failed the screen.
        self.screened_candidates = 0

    def bind(
        self,
        *,
        diagnostics: DiagnosticLog | None,
        retry: RetryPolicy | None,
        memo=None,
    ) -> None:
        """Point every variant problem at per-chain runtime hooks.

        Worker processes cache one evaluator per problem signature and
        reuse it across chains; each chain re-binds its own diagnostic
        log, retry-counting policy and memo before annealing.
        """
        self.diagnostics = diagnostics
        self.memo = memo
        for problem in self._all_problems():
            problem.diagnostics = diagnostics
            problem.retry = retry

    def _all_problems(self):
        yield self.nominal
        for problem in self.problems.values():
            if problem is not None:
                yield problem

    @property
    def lint_rejections(self) -> int:
        return self.nominal.lint_rejections

    # ------------------------------------------------------------ evaluation

    def evaluate_variant(
        self, label: str, params: dict[str, float]
    ) -> dict[str, float] | None:
        """One variant's metrics (memoized under the variant's tag)."""
        if label == "nominal":
            problem, tag = self.nominal, None
        else:
            problem, tag = self.problems[label], label
            if problem is None:  # plain tt: identical to nominal
                problem, tag = self.nominal, None
        if self.memo is not None:
            found = self.memo.lookup(params, tag)
            if found is not None:
                return found[1]
        try:
            metrics = problem.evaluate(params)
        except ApeError as exc:
            # Same last line of defence the tolerant chain evaluator
            # provides, applied per variant so one bad corner degrades
            # that corner instead of the whole candidate family.
            if self.diagnostics is not None:
                self.diagnostics.record_exception(
                    "synthesis.robust",
                    exc,
                    severity="warning",
                    suggested_fix=(
                        f"variant {label} penalized; see the exception chain"
                    ),
                )
            metrics = None
        if metrics is None and label != "nominal":
            if self.diagnostics is not None:
                self.diagnostics.record(
                    Diagnostic(
                        subsystem="synthesis.robust",
                        severity="info",
                        message=(
                            f"variant {label} failed to evaluate; candidate "
                            f"penalized at that variant (cost "
                            f"{FAILURE_COST:g})"
                        ),
                        suggested_fix=(
                            "persistent failures at one corner usually mean "
                            "the corner's supply/temperature is outside the "
                            "topology's operating range; check the corner "
                            "list or relax the environmental axes"
                        ),
                        context={"variant": label},
                    )
                )
        if self.memo is not None:
            self.memo.store(params, self.base_cost(metrics), metrics, tag)
        return metrics

    def variants(
        self, params: dict[str, float]
    ) -> dict[str, dict[str, float] | None]:
        """Screen-then-verify family evaluation of one candidate."""
        out: dict[str, dict[str, float] | None] = {
            "nominal": self.evaluate_variant("nominal", params)
        }
        threshold = self.robust.screen_threshold
        if (
            threshold is not None
            and self.base_cost(out["nominal"]) >= threshold
        ):
            self.screened_candidates += 1
            return out
        self._fan_out(out, params)
        return out

    def detail(
        self, params: dict[str, float]
    ) -> dict[str, dict[str, float] | None]:
        """Full fan-out (screening ignored) — the final-design report."""
        out: dict[str, dict[str, float] | None] = {
            "nominal": self.evaluate_variant("nominal", params)
        }
        self._fan_out(out, params)
        return out

    def _fan_out(
        self,
        out: dict[str, dict[str, float] | None],
        params: dict[str, float],
    ) -> None:
        """Add every variant to ``out``, which holds the nominal result.

        A nominal alias takes a copy of the nominal metrics already in
        ``out`` instead of evaluating them again; it still counts as a
        logical corner evaluation.
        """
        nominal = out["nominal"]
        for label, problem in self.problems.items():
            if problem is None:
                out[label] = None if nominal is None else dict(nominal)
            else:
                out[label] = self.evaluate_variant(label, params)
            self.corner_evaluations += 1

    def evaluate(
        self, params: dict[str, float]
    ) -> tuple[float, dict[str, float] | None]:
        """Aggregated ``(cost, worst-case metrics)`` for the annealer.

        The metrics dict is the per-metric worst case over the
        evaluated variants (:func:`worst_case_metrics`), so the
        annealer's ``best_metrics`` — and ultimately
        ``SynthesisResult.metrics`` — report worst-corner spec margins
        rather than the flattering nominal numbers.
        """
        family = self.variants(params)
        cost = self.cost(family)
        if all(m is None for m in family.values()):
            return cost, None
        return cost, worst_case_metrics(self.synthesis_spec, family)
