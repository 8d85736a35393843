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

The variants of one candidate are evaluated together where the
numerics allow (see :class:`RobustEvaluator`): one stacked Newton run
and stacked AWE fits serve the nominal problem, its corners and its
Monte Carlo samples, with every result bit, Diagnostic and counter of
evaluating them one by one.

A corner whose simulation fails is a *degraded variant*, not a crash:
the sizing problem's retry ladder re-attempts the DC solve, a
:class:`~repro.runtime.diagnostics.Diagnostic` records the failure,
and the variant enters the aggregation as a failed evaluation
(penalized at :data:`~repro.synthesis.cost.FAILURE_COST`).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmp
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..spice import linalg
from ..spice.awe import awe_poles_stack
from ..spice.dc import NewtonStack
from ..spice.engine import StampStack
from ..spice.mna import System
from ..spice.netlist import Mosfet
from ..technology import Technology
from ..variation.corners import derive_corner, parse_corner
from ..variation.montecarlo import (
    MismatchModel,
    derive_sample_seed,
    mismatch_normals,
    mismatched_model,
    perturbed_circuit,
)
from .cost import FAILURE_COST, RobustCost, worst_case_metrics
from .problems import OpAmpSizingProblem, Variable, _Candidate
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

#: The variant label that aliases the nominal evaluation: a plain ``tt``
#: corner shifts nothing, so it reuses the nominal metrics.
NOMINAL_ALIAS = "corner:tt"


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


class _VariantProblem(OpAmpSizingProblem):
    """A corner or Monte Carlo variant of the nominal sizing problem.

    The electrical rule check is structural and geometric, and neither
    a corner's model cards nor a mismatch sample changes the topology
    or a device's drawn geometry, so the nominal problem's lint gate
    already judges every candidate; a variant skips it.
    """

    def _lint_rejects(self, bench, tech: Technology) -> bool:
        return False


class _SampleProblem(_VariantProblem):
    """One Monte Carlo mismatch sample of the nominal sizing problem.

    Its bench is :func:`~repro.variation.montecarlo.perturbed_circuit`
    of the template bench, drawn from a :class:`random.Random` seeded
    with the sample's derived seed; the problem keeps each MOSFET's
    unperturbed card and the two normals drawn for it.  A candidate
    that resizes a device re-derives that device's card alone
    (:func:`~repro.variation.montecarlo.mismatched_model`), so the
    bench is always the sample drawn on the candidate's fresh bench: a
    pure function of ``(seed, candidate)`` — canonical, and therefore
    memoizable and order-independent.
    """

    def __init__(
        self, template: OpAmp, variables: list[Variable], seed: int,
        mismatch: MismatchModel, **kwargs,
    ) -> None:
        super().__init__(template, variables, **kwargs)
        self.seed = seed
        self.mismatch = mismatch
        #: MOSFET name -> its unperturbed card and its two normals.
        self._cards: dict[str, tuple] = {}

    def _build_bench(self):
        bench = super()._build_bench()
        self._cards = {
            name: (bench.element(name).model, normals)
            for name, normals in mismatch_normals(
                bench, random.Random(self.seed)
            ).items()
        }
        return perturbed_circuit(
            bench, random.Random(self.seed), self.mismatch
        )

    def _written(self, element):
        if not isinstance(element, Mosfet):
            return element
        model, normals = self._cards[element.name]
        return replace(element, model=mismatched_model(
            model, element.w, element.l, normals, self.mismatch
        ))


class _Family:
    """One candidate's family, evaluated as one stack.

    The members are the nominal problem and every corner and Monte
    Carlo problem that has bound its system.  :meth:`evaluate` returns,
    for a member, the metrics its own ``evaluate(params)`` returns —
    the :class:`RobustEvaluator` still calls it member by member, in
    the per-variant order, around each member's memo lookup and store.

    Work runs ahead of that order only where it records nothing: a
    member's candidate is applied and its first plain Newton run made,
    stacked with the others', and a member whose run converged
    unrailed is solved and fitted, stacked too.  Everything that can
    record a Diagnostic or count a retry — the sizing and lint gates of
    the nominal, the DC ladder of a failed run, balancing a railed
    output — runs at the member's own turn, through the problem's own
    phases.  A member the stack cannot take (see
    :meth:`OpAmpSizingProblem._stackable`) is evaluated per variant.

    With ``speculate`` — no screen, or a screen that kept the previous
    candidate — the variants whose memo entries are missing join the
    nominal's Newton run and AWE fit before the screen has spoken, and
    a screened candidate's variant work is dropped unseen.  Without it
    the nominal is evaluated alone and the variants together once the
    screen has kept the candidate.  Consecutive candidates of an
    annealing chain are neighbours, so the last verdict predicts the
    next: APE-box chains are kept nearly always, while standalone-box
    chains can be screened most of the time.
    """

    def __init__(
        self,
        params: dict[str, float],
        stack: StampStack,
        members: dict[str, OpAmpSizingProblem],
        speculate: bool,
        memo,
        key,
    ) -> None:
        self.params = params
        self.stack = stack
        #: Variant label -> problem, in stack order (nominal first).
        self.members = members
        #: Variant label -> stack member.
        self.index = {label: b for b, label in enumerate(members)}
        #: Whether corner work may run before the screen has spoken.
        self.speculate = speculate
        self.candidates: dict[str, _Candidate] = {}
        #: Label -> the Newton stack running its first solve.
        self.runs: dict[str, NewtonStack] = {}
        self.solved: dict[str, _Candidate] = {}
        self.models: dict[str, object] = {}
        self.memo = memo
        #: ``params``' untagged memo key (``None`` without a memo).
        self.key = key
        self._corners_started = False

    def evaluate(
        self, label: str, problem: OpAmpSizingProblem
    ) -> dict[str, float] | None:
        """``problem.evaluate(params)`` for the variant ``label``."""
        if label == "nominal":
            if (
                self.speculate
                and label in self.index
                and problem._stackable(self.params)
            ):
                candidate = problem._applied(self.params)
                if not isinstance(candidate, _Candidate):
                    return candidate
                self._start({"nominal": candidate, **self._riders()})
        elif not self._corners_started:
            self._start(self._riders())
        candidate = self.candidates.get(label)
        if candidate is None:
            return problem.evaluate(self.params)
        b = self.index[label]
        newton = self.runs.get(label)
        if newton is not None:
            newton.run()
        if newton is None or not self._clean(label):
            # The ladder after a failed run, balancing, or a solve of
            # its own: the member's own path from its apply phase on.
            state = problem._solved(candidate, newton, b)
            if isinstance(state, _Candidate):
                state = problem._measured(state)
            return state
        if label not in self.models:
            self._fit(label)
        return problem._measured(self.solved[label], self.models[label])

    def _riders(self) -> dict[str, _Candidate]:
        """The variants that join a Newton stack now, applied.

        A variant rides when the stack holds it, its memo entry is
        missing and :meth:`OpAmpSizingProblem._stackable` admits the
        candidate, so applying it records nothing.
        """
        self._corners_started = True
        memo = self.memo
        riders = {}
        for label, problem in self.members.items():
            if label == "nominal" or (
                memo is not None and memo.holds(memo.tagged(self.key, label))
            ):
                continue
            if problem._stackable(self.params):
                candidate = problem._applied(self.params)
                if isinstance(candidate, _Candidate):
                    riders[label] = candidate
        return riders

    def _start(self, candidates: dict[str, _Candidate]) -> None:
        """Start the Newton runs of freshly applied ``candidates``.

        A lone candidate, or candidates the stack cannot take (see
        :meth:`StampStack.refresh`), are each solved on their own at
        their turn.
        """
        self.candidates.update(candidates)
        if len(candidates) > 1 and self.stack.refresh():
            newton = NewtonStack(
                self.stack,
                {self.index[label]: c.x0 for label, c in candidates.items()},
            )
            self.runs.update(dict.fromkeys(candidates, newton))

    def _clean(self, label: str) -> bool:
        """Whether ``label``'s finished run converged, output unrailed."""
        outcome = self.runs[label].outcomes.get(self.index[label])
        return outcome is not None and not self.members[label]._railed(
            outcome[0]
        )

    def _fit(self, label: str) -> None:
        """Fit ``label`` with every clean, unfitted member of its order."""
        order = self.members[label].awe_order
        group = [
            other
            for other in self.runs
            if other not in self.models
            and self._clean(other)
            and self.members[other].awe_order == order
        ]
        for other in group:
            self.solved[other] = self.members[other]._solved(
                self.candidates[other], self.runs[other], self.index[other]
            )
        if len(group) == 1:
            self.models[label] = None  # fitted by the member's own awe_poles
            return
        x = np.zeros((len(self.index), self.stack.systems[0].size))
        for other in group:
            x[self.index[other]] = self.solved[other].op.x
        fits = awe_poles_stack(
            self.stack, x, [self.index[other] for other in group], "out", order
        )
        for other in group:
            self.models[other] = fits[self.index[other]]


class RobustEvaluator:
    """Evaluate candidates across corners and mismatch samples.

    Owns one :class:`OpAmpSizingProblem` per variant: the nominal
    problem (shared with the plain synthesis path when provided), one
    retargeted problem per corner, and one perturbed-bench problem per
    Monte Carlo sample (:class:`_SampleProblem`).  ``evaluate(params)``
    returns the aggregated ``(cost, worst_case_metrics)`` pair the
    annealer consumes; ``detail(params)`` fans a candidate out to
    *every* variant (screening ignored) for final reporting.

    Structural choices worth noting:

    * A plain ``tt`` corner is an alias of the nominal evaluation (the
      speed shift for ``t`` is the identity), so it reuses the nominal
      metrics instead of re-simulating.
    * Corner/MC problems skip the lint gate (:class:`_VariantProblem`)
      — the electrical rule check is structural + geometric and the
      nominal problem already gates the candidate once.
    * Each variant problem warm-starts from its own template bench:
      a corner's retargeted one, a sample's perturbed one.
    * A candidate's family is evaluated as one stack (:class:`_Family`):
      the nominal problem, its corners and its Monte Carlo samples make
      their first Newton run together and fit their AWE models
      together, bit for bit what each problem's own ``evaluate``
      returns.  Every member the stack cannot take runs its own
      ``evaluate``: candidates outside the device checks, a failed
      plain Newton run (it goes on down its DC ladder) and a railed
      output (it is balanced); and every member while a fault injector
      is armed or on the sparse backend.  Metrics, Diagnostics
      (nominal first, then the :attr:`problems` order), memo traffic,
      retries and the counters below are the per-variant path's.
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
            )
        #: Variant label -> problem; ``None`` marks a nominal alias.
        self.problems: dict[str, OpAmpSizingProblem | None] = {}
        mismatch = robust.mismatch()
        for corner in robust.corners:
            label = f"corner:{corner}"
            if label == NOMINAL_ALIAS:
                self.problems[label] = None
                continue
            spec_c = parse_corner(corner)
            corner_template = retarget_opamp(
                template, derive_corner(template.tech, spec_c)
            )
            self.problems[label] = _VariantProblem(
                corner_template,
                variables,
                retry=retry,
                diagnostics=diagnostics,
            )
        for index in range(robust.mc_samples):
            self.problems[f"mc:{index}"] = _SampleProblem(
                template,
                variables,
                derive_sample_seed(robust.mc_seed, index),
                mismatch,
                retry=retry,
                diagnostics=diagnostics,
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
        #: The stacked systems of the last family evaluation.
        self._stack: StampStack | None = None
        #: Whether the screen kept the last candidate: the next family
        #: then runs its corners' work ahead of the screen (see _Family).
        self._kept_last = True
        #: ``(params, untagged memo key)`` of the candidate being
        #: evaluated (see :meth:`_candidate`).
        self._held: tuple | None = None

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
        self,
        label: str,
        params: dict[str, float],
        family: _Family | None = None,
    ) -> dict[str, float] | None:
        """One variant's metrics (memoized under the variant's tag).

        ``family`` is the candidate's stacked evaluation, when one runs
        (:meth:`_family`); it returns the metrics the variant's problem
        would.
        """
        if label == "nominal":
            problem, tag = self.nominal, None
        else:
            problem, tag = self.problems[label], label
            if problem is None:  # plain tt: identical to nominal
                problem, tag = self.nominal, None
        memo = self.memo
        key = self._key(params, tag)
        if memo is not None:
            found = memo.get(key)
            if found is not None:
                return found[1]
        try:
            if family is None:
                metrics = problem.evaluate(params)
            else:
                metrics = family.evaluate(
                    "nominal" if tag is None else label, problem
                )
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
        if memo is not None:
            memo.put(key, self.base_cost(metrics), metrics)
        return metrics

    def variants(
        self, params: dict[str, float]
    ) -> dict[str, dict[str, float] | None]:
        """Screen-then-verify family evaluation of one candidate."""
        threshold = self.robust.screen_threshold
        with self._candidate(params):
            family = self._family(
                params, speculate=threshold is None or self._kept_last
            )
            out: dict[str, dict[str, float] | None] = {
                "nominal": self.evaluate_variant("nominal", params, family)
            }
            self._kept_last = (
                threshold is None
                or self.base_cost(out["nominal"]) < threshold
            )
            if not self._kept_last:
                self.screened_candidates += 1
                return out
            self._fan_out(out, params, family)
        return out

    def detail(
        self, params: dict[str, float]
    ) -> dict[str, dict[str, float] | None]:
        """Full fan-out (screening ignored) — the final-design report."""
        with self._candidate(params):
            family = self._family(params, speculate=True)
            out: dict[str, dict[str, float] | None] = {
                "nominal": self.evaluate_variant("nominal", params, family)
            }
            self._fan_out(out, params, family)
        return out

    @contextmanager
    def _candidate(self, params: dict[str, float]):
        """Hold ``params``' untagged memo key while the block evaluates
        it, so the candidate computes one key however many variants it
        looks up (:meth:`_key`)."""
        memo = self.memo
        self._held = (params, memo.key(params)) if memo is not None else None
        try:
            yield
        finally:
            self._held = None

    def _key(self, params: dict[str, float], tag: str | None = None):
        """``params``' memo key in the context ``tag`` (``None`` without
        a memo), derived from the held key when ``params`` is the
        candidate being evaluated."""
        memo = self.memo
        if memo is None:
            return None
        held = self._held
        if held is not None and held[0] is params:
            key = held[1]
        else:
            key = memo.key(params)
        return key if tag is None else memo.tagged(key, tag)

    def _fan_out(
        self,
        out: dict[str, dict[str, float] | None],
        params: dict[str, float],
        family: _Family | None,
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
                out[label] = self.evaluate_variant(label, params, family)
            self.corner_evaluations += 1

    def _family(
        self, params: dict[str, float], *, speculate: bool
    ) -> _Family | None:
        """The stacked evaluation of ``params``' family, or ``None``.

        ``None`` runs every variant through its own ``evaluate``: while
        a fault injector is armed (it draws its decisions call by call,
        in that order), on the sparse backend, and until two problems
        have evaluated a candidate (each binds its system at its first).
        """
        if faults.active() is not None:
            return None
        members: dict[str, OpAmpSizingProblem] = {}
        systems: list[System] = []
        for label, problem in (("nominal", self.nominal), *self.problems.items()):
            if problem is None or problem._system is None:
                continue
            members[label] = problem
            systems.append(problem._system)
        if len(members) < 2:
            return None
        if linalg.use_sparse(systems[0].size):
            return None
        stack = self._stack
        if stack is None or len(stack.systems) != len(systems) or any(
            a is not b for a, b in zip(stack.systems, systems)
        ):
            stack = self._stack = StampStack(systems)
        return _Family(
            params, stack, members, speculate, self.memo, self._key(params)
        )

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
