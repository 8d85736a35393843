"""Sizing problems: variables, candidate evaluation, search ranges.

An :class:`OpAmpSizingProblem` fixes the circuit *structure* (the
topology, exactly as ASTRX/OBLX does) and exposes the device geometries
and compensation capacitor as box-bounded unknowns.  Candidate
evaluation follows the ASTRX/OBLX recipe: a DC operating point, then
an AWE reduced-order model for the gain and unity-gain frequency — not
a full AC sweep.  An open-loop output that rails at zero differential
drive is measured at the balanced operating point instead, found by
one bordered Newton solve (bisection as the fallback, see
:func:`~repro.spice.analysis.balance_differential`).  When the
template itself rails, every candidate is balanced directly, starting
from the template's balanced point; otherwise a candidate is solved at
zero drive first and balanced from there only when it rails.  Every
candidate is applied to one bench, built at the template point with
the variable-to-element map its placement declares; it is balanced on
copies of that bench with only the two input sources retargeted, and
the balance's drive column is computed once per problem, not once per
candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from ..devices import MosDevice
from ..errors import ApeError, SimulationError, SizingError, SpecificationError
from ..opamp import OpAmp
from ..opamp.benches import (
    differential_drive,
    opamp_placement,
    open_loop_bench,
)
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..spice import analysis, awe_poles, dc_operating_point
from ..spice.dc import settle_operating_point
from ..spice.analysis import _drive_column, balance_differential
from ..spice.mna import System
from ..technology import Technology

__all__ = [
    "EVALUATOR_VERSION",
    "Variable",
    "SizingProblem",
    "OpAmpSizingProblem",
    "parameterized_opamp",
    "standalone_ranges",
    "ape_ranges",
]

#: Version of the candidate evaluation recipe.  Results journaled or
#: stored under another version are not reused: the persistent store
#: namespace, the run-journal fingerprint and the service job
#: fingerprint all carry it.  Version 2 balances railed outputs by
#: bordered Newton instead of bisection; version 3 warm-starts every
#: problem, Monte Carlo variants included, from its own template.
#: Version 4 balances every candidate of a problem whose template rails
#: directly from the template's balanced point, with no zero-drive
#: solve, and accepts the bordered solution without re-solving it.  So
#: a candidate of such a problem whose own zero-drive output would not
#: rail is now measured balanced too.
EVALUATOR_VERSION = 4

#: Hard geometry bounds for the search [m].
W_HARD = (0.9e-6, 500e-6)
L_HARD_MAX = 20e-6
#: Compensation capacitor search interval [F].
CC_HARD = (0.2e-12, 30e-12)
#: Bias-programming resistor search interval [ohm].  ASTRX/OBLX treats
#: bias points as unknowns; a wrong reference current wrecks the whole
#: amplifier, which is exactly why uninformed search is hard.
RBIAS_HARD = (5e3, 50e6)
#: Zero-drive |V(out)| above which an open-loop output counts as
#: railed and is balanced [V].
RAIL = 0.25
#: Differential drive bracket of the output balancing [V].
BALANCE_SPAN = 0.5


@dataclass(frozen=True)
class Variable:
    """One unknown with its allowable interval (log-scale search)."""

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 < self.lo <= self.hi:
            raise SpecificationError(
                f"variable {self.name}: bad range [{self.lo}, {self.hi}]",
                context={"variable": self.name, "lo": self.lo, "hi": self.hi},
            )


class SizingProblem:
    """Interface: variables + evaluate(params) -> metrics or None."""

    @property
    def variables(self) -> list[Variable]:  # pragma: no cover - interface
        raise NotImplementedError

    def evaluate(self, params: dict[str, float]) -> dict[str, float] | None:
        raise NotImplementedError  # pragma: no cover - interface

    def bounds(self) -> dict[str, tuple[float, float]]:
        return {v.name: (v.lo, v.hi) for v in self.variables}


def parameterized_opamp(template: OpAmp, params: dict[str, float]) -> OpAmp:
    """Clone ``template`` with geometries/compensation from ``params``.

    Keys follow :meth:`OpAmp.initial_point`:
    ``<stage>.<role>.w``, ``<stage>.<role>.l`` and ``cc``.  Unknown
    keys are ignored so annealer dictionaries can carry extras.
    """
    new_stages = {}
    for stage_name, stage in template.stages.items():
        new_devices = {}
        for role, sized in stage.devices.items():
            w = params.get(f"{stage_name}.{role}.w", sized.w)
            l = params.get(f"{stage_name}.{role}.l", sized.l)
            device = MosDevice(sized.device.model, w, l)
            new_devices[role] = replace(sized, device=device)
        new_stages[stage_name] = replace(stage, devices=new_devices)
    devices = {
        f"{stage_name}.{role}": dev
        for stage_name, stage in new_stages.items()
        for role, dev in stage.devices.items()
    }
    return replace(
        template,
        stages=new_stages,
        devices=devices,
        cc=params.get("cc", template.cc),
        r_ref=params.get("r.ref", template.r_ref),
        r_bias=params.get("r.bias", template.r_bias),
    )


@dataclass
class _Candidate:
    """A candidate between the phases of :meth:`OpAmpSizingProblem.evaluate`.

    ``x0`` and ``balanced`` are the run-constant starting vectors of
    :meth:`OpAmpSizingProblem._warm_start`; ``op`` is set by the solve
    phase, which may also swap ``bench`` for the balanced one.
    """

    params: dict[str, float]
    bench: Any
    x0: Any
    balanced: Any
    op: Any = None


def _driven_copies(bench):
    """``build(v)``: a new copy of ``bench`` at differential drive ``v``.

    Only the sources :func:`~repro.opamp.benches.differential_drive`
    names are retargeted; every other element object is shared with
    ``bench``, so a system rebinds to the copy as a source-only edit.
    """

    def build(v: float):
        ckt = bench.copy()
        for name, dc in differential_drive(v).items():
            ckt.replace(replace(ckt.element(name), dc=dc))
        return ckt

    return build


def _geometry_keys(template: OpAmp) -> list[str]:
    return [
        key
        for key in template.initial_point()
        if key.endswith(".w") or key.endswith(".l")
    ]


def _l_hard_min(template: OpAmp, key: str) -> float:
    """Minimum drawn length that keeps Leff positive for this device."""
    stage_name, role, _ = key.split(".")
    sized = template.stages[stage_name].devices[role]
    return max(template.tech.l_min, 2.5 * sized.device.model.ld)


def standalone_ranges(template: OpAmp) -> list[Variable]:
    """Wide, uninformed intervals — the paper's Table 1 mode."""
    tech = template.tech
    out: list[Variable] = []
    for key in _geometry_keys(template):
        if key.endswith(".w"):
            out.append(Variable(key, W_HARD[0], W_HARD[1]))
        else:
            out.append(Variable(key, _l_hard_min(template, key), L_HARD_MAX))
    if template.cc > 0:
        out.append(Variable("cc", *CC_HARD))
    out.append(Variable("r.ref", *RBIAS_HARD))
    if template.r_bias > 0:
        out.append(Variable("r.bias", *RBIAS_HARD))
    return out


def ape_ranges(template: OpAmp, factor: float = 0.2) -> list[Variable]:
    """APE estimate +/- ``factor`` — the paper's Table 4 mode."""
    if not 0 < factor < 1:
        raise SpecificationError(
            f"range factor must be in (0, 1), got {factor}",
            context={"parameter": "factor", "value": factor},
        )
    point = template.initial_point()
    out: list[Variable] = []
    for key in _geometry_keys(template):
        if key.endswith(".w"):
            hard_lo, hard_hi = W_HARD
        else:
            hard_lo, hard_hi = _l_hard_min(template, key), L_HARD_MAX
        # Clamp the centre into the hard box first so a window around a
        # below-minimum value (e.g. a mirror input scaled by a large
        # ratio) cannot collapse to an empty interval.
        value = min(max(point[key], hard_lo), hard_hi)
        lo = max(value * (1 - factor), hard_lo)
        hi = min(value * (1 + factor), hard_hi)
        out.append(Variable(key, lo, hi))
    if template.cc > 0:
        out.append(
            Variable(
                "cc",
                max(template.cc * (1 - factor), CC_HARD[0]),
                min(template.cc * (1 + factor), CC_HARD[1]),
            )
        )
    resistors = {"r.ref": template.r_ref}
    if template.r_bias > 0:
        resistors["r.bias"] = template.r_bias
    for key, value in resistors.items():
        centred = min(max(value, RBIAS_HARD[0]), RBIAS_HARD[1])
        out.append(
            Variable(
                key,
                max(centred * (1 - factor), RBIAS_HARD[0]),
                min(centred * (1 + factor), RBIAS_HARD[1]),
            )
        )
    return out


class OpAmpSizingProblem(SizingProblem):
    """Evaluate op-amp candidates with DC + AWE (the OBLX inner loop).

    One evaluation path serves every caller — every annealing chain,
    in-process or pooled, and robust corner and Monte Carlo variants.
    The problem builds one bench, at the template point, and takes the
    map from search variables to element fields that
    :func:`~repro.opamp.benches.place_opamp` declares.  Each candidate
    is applied to that *in-place* bench as a delta against the last
    applied one: no :class:`~repro.opamp.OpAmp` is built (``tech``
    comes from the template, ``r_ref`` from the params), the
    :class:`~repro.devices.MosDevice` checks run on the changed devices
    before anything is written, only the changed elements are written
    into the bench (which stays the one source of truth), the lint gate
    runs its candidate rules only when a written element is flagged,
    and the shared :class:`~repro.spice.mna.System` rebuilds only the
    changed transistors' devices.  A candidate that fails the device
    checks calls :func:`parameterized_opamp` for its exact
    ``SizingError``.  A dict with extra or missing keys is applied as
    the placed variables it names, a missing one at the template's
    value: what :func:`parameterized_opamp` reads from it.

    Each candidate's DC solve starts from the template's zero-drive
    operating point — or, when the template's output rails, the
    candidate is balanced directly from the template's balanced
    operating point — and railed candidates are balanced on copies of
    the bench with only the drive sources retargeted, with one drive
    column per problem.  All of these are run constants, never a
    previous candidate's state, so evaluation stays *canonical*: the
    result for a parameter dict is independent of evaluation order —
    the invariant the memo cache and the executor's scheduling
    independence rest on.

    :meth:`evaluate` runs three phases in sequence: apply (the
    candidate onto the bench, through the sizing checks and the lint
    gate), solve (the zero-drive operating point, balanced when the
    output rails) and measure (DC metrics and the AWE model).  A robust
    family evaluation interleaves the phases of several problems, to
    make their first Newton runs and their AWE fits as one stack
    (:class:`~repro.synthesis.robust.RobustEvaluator`).
    """

    def __init__(
        self,
        template: OpAmp,
        variables: list[Variable],
        *,
        awe_order: int = 3,
        balance_tolerance: float = 2e-3,
        retry: RetryPolicy | None = None,
        diagnostics: DiagnosticLog | None = None,
    ) -> None:
        self.template = template
        self._variables = variables
        self.awe_order = awe_order
        self.balance_tolerance = balance_tolerance
        #: Candidates rejected by the lint gate without a Newton solve
        #: (see :meth:`_lint_rejects`).
        self.lint_rejections = 0
        self._structural_report = None
        #: Optional retry policy forwarded to the DC solver so transient
        #: non-convergence is re-attempted before the candidate is
        #: declared unusable.
        self.retry = retry
        #: Optional log receiving one record per failed evaluation.
        self.diagnostics = diagnostics
        #: Shared MNA system: every candidate netlist has the same
        #: topology, so validation/indexing happen once per synthesis
        #: run instead of once per evaluation (and per balancing solve).
        self._system: System | None = None
        #: Template operating points at zero drive and, when that one
        #: rails, balanced (see :meth:`_solve_template`), and the error
        #: of a template solve that failed, for every chain to record
        #: (:meth:`record_template_failure`).
        self._warm_x0 = None
        self._balanced_x0 = None
        self._warm_ready = False
        self._template_error: ApeError | None = None
        #: The in-place bench and an untouched copy of it at the
        #: template point, built on first use (:meth:`_placed`).
        self._bench = None
        self._template_bench = None
        #: Placed variable -> its ``(element, field)`` pairs, and each
        #: placed variable's template and last applied value.
        self._map: dict[str, tuple[tuple[str, str], ...]] = {}
        self._point: dict[str, float] = {}
        self._values: dict[str, float] = {}
        #: In-place bench elements that draw a candidate-rule error.
        self._flagged: set[str] = set()
        #: Geometry key -> ``(model card, W key, L key, template W,
        #: template L)`` of its device, for :meth:`_sizable`.
        self._device_keys = {
            f"{stage_name}.{role}.{axis}": (
                sized.device.model,
                f"{stage_name}.{role}.w",
                f"{stage_name}.{role}.l",
                sized.w,
                sized.l,
            )
            for stage_name, stage in template.stages.items()
            for role, sized in stage.devices.items()
            for axis in ("w", "l")
        }
        #: The balance's drive column, computed on first use from the
        #: template bench (see :meth:`_balance_column`).
        self._column = None

    @property
    def variables(self) -> list[Variable]:
        return self._variables

    def evaluate(self, params: dict[str, float]) -> dict[str, float] | None:
        state = self._applied(params)
        if isinstance(state, _Candidate):
            state = self._solved(state)
        if isinstance(state, _Candidate):
            state = self._measured(state)
        return state

    # The three phases of :meth:`evaluate`.  Each returns the candidate
    # for the next phase, or the evaluation's result when the candidate
    # goes no further; a robust family evaluation interleaves them
    # across its problems (:class:`~repro.synthesis.robust.RobustEvaluator`).

    def _applied(self, params: dict[str, float]):
        """Apply phase: ``params`` written onto the bench and gated.

        The sizing checks and the lint gate run here, and the system is
        bound to the bench.  A candidate :meth:`_stackable` admits
        records no Diagnostic here.
        """
        bench = self.prepare()
        changes = self._changes(params)
        if not self._sizable(changes, params):
            # The exact SizingError of the device that fails the checks.
            try:
                parameterized_opamp(self.template, params)
            except ApeError as exc:
                self._note_failure(exc)
                return None
        try:
            faults.check("synthesis.evaluate")
            self._apply(changes)
            if self._lint_rejects(bench, self.template.tech):
                return None
            if self._system is None:
                self._system = System(bench)
            else:
                self._system = self._system.rebind(bench)
            warm, balanced = self._warm_start()
        except SimulationError as exc:
            self._note_failure(exc)
            return None
        return _Candidate(params, bench, warm, balanced)

    def _solved(self, candidate: _Candidate, newton=None, member: int = 0):
        """Solve phase: the operating point the candidate is measured at.

        ``newton`` is the :class:`~repro.spice.dc.NewtonStack` that made
        the zero-drive solve's first plain Newton run, from
        ``candidate.x0`` on this problem's system, as its ``member``;
        the solve goes on from that run's outcome
        (:func:`~repro.spice.dc.settle_operating_point`).
        """
        bench = candidate.bench
        tech = self.template.tech
        try:
            if candidate.balanced is None:
                if newton is None:
                    op = dc_operating_point(
                        bench,
                        x0=candidate.x0,
                        retry=self.retry,
                        system=self._system,
                    )
                else:
                    op = settle_operating_point(
                        bench,
                        newton.stack.systems[member],
                        candidate.x0,
                        newton.outcomes[member],
                        retry=self.retry,
                    )
                x0 = op.x
            else:
                op, x0 = None, candidate.balanced
            if op is None or abs(op.v("out")) > RAIL:
                # The template rails, or this candidate does: balance,
                # starting from the template's balanced point or from
                # this candidate's zero-drive solution, on copies of the
                # bench that share every element object but the drive
                # sources, so the system rebinds to them as a
                # source-only edit and the bench stays at zero drive.
                _, bench, op = balance_differential(
                    _driven_copies(bench),
                    "out",
                    target=0.0,
                    v_span=BALANCE_SPAN,
                    tol=self.balance_tolerance,
                    max_bisections=16,
                    retry=self.retry,
                    system=self._system if op is None else op.system,
                    x0=x0,
                    column=self._balance_column(),
                )
                if abs(op.v("out")) > 1.0:
                    # Unbalanceable: dead amplifier.
                    return self._dead_metrics(bench, op, tech)
        except SimulationError as exc:
            self._note_failure(exc)
            return None
        candidate.bench = bench
        candidate.op = op
        return candidate

    def _measured(self, candidate: _Candidate, model=None):
        """Measure phase: the metrics at the solved operating point.

        ``model`` is the AWE fit when a stacked fit made it
        (:func:`~repro.spice.awe.awe_poles_stack`).
        """
        try:
            return self._measure(
                candidate.bench,
                candidate.op,
                self.template.tech,
                candidate.params.get("r.ref", self.template.r_ref),
                model,
            )
        except SimulationError as exc:
            self._note_failure(exc)
            return None

    def _stackable(self, params: dict[str, float]) -> bool:
        """Whether ``params`` can join a stacked family evaluation.

        True when the candidate passes the device checks and its
        zero-drive solve starts from the template's zero-drive point,
        already computed.  Such a candidate's apply phase records
        nothing, so it may run before the candidate's turn; and its
        zero-drive solve begins with the plain Newton run a
        :class:`~repro.spice.dc.NewtonStack` makes.
        """
        if not (
            self._warm_ready
            and self._warm_x0 is not None
            and self._balanced_x0 is None
        ):
            return False
        return self._sizable(self._changes(params), params)

    def _railed(self, x) -> bool:
        """Whether the zero-drive solution ``x`` rails the output."""
        return abs(self._system.voltage(x, "out")) > RAIL

    def prepare(self):
        """The problem's one-time set-up; returns the in-place bench.

        Builds the bench at the template point (:meth:`_placed`), runs
        the structural lint pass, compiles the system and solves the
        template (:meth:`_solve_template`), each at most once.  Every
        candidate calls it first, and a pool's parent calls it before
        forking, so the workers inherit a ready problem.  It records
        nothing: a bench the structural pass rejects, or a system that
        will not compile, is left to the candidate whose gate records
        it, and a failed template solve is kept for
        :meth:`record_template_failure`.
        """
        bench = self._placed()
        if self._warm_ready or not self._structure_ok(bench):
            return bench
        if self._system is None:
            try:
                self._system = System(bench)
            except ApeError:
                return bench
        self._solve_template()
        return bench

    def _warm_start(self):
        """Run-constant starting vectors ``(zero-drive, balanced)``.

        The template's operating points of :meth:`_solve_template`;
        either is ``None`` when the template will not converge or
        balance, or when the current system's unknown vector has
        another size.  ``None`` at zero drive is the solver's cold
        start; ``None`` balanced solves the candidate at zero drive
        first.
        """
        if not self._warm_ready:
            self._solve_template()
        size = self._system.size
        return tuple(
            x if x is not None and len(x) == size else None
            for x in (self._warm_x0, self._balanced_x0)
        )

    def _solve_template(self) -> None:
        """Solve the template once, from the template bench alone.

        Its operating point at zero drive and, only when its output
        rails there, its balanced operating point (see
        :meth:`_balance_template`), with fault injection suspended so
        the template solves never shift an armed injector's decision
        stream.  A failed solve is kept for
        :meth:`record_template_failure`.
        """
        self._warm_ready = True
        previous = faults.active()
        faults.disarm()
        try:
            bench = self._template_bench
            system = System(bench)
            op = dc_operating_point(bench, system=system)
            self._warm_x0 = op.x.copy()
            if abs(op.v("out")) > RAIL:
                self._balanced_x0 = self._balance_template(system, op.x)
        except ApeError as exc:
            self._template_error = exc
        finally:
            if previous is not None:
                faults.arm(previous)

    def record_template_failure(self) -> None:
        """Record a failed template solve in :attr:`diagnostics`.

        The executor calls it at the start of every chain, after
        :meth:`prepare`, so a run records the failure once per chain,
        whichever process solved the template and whatever it ran
        before.
        """
        if self._template_error is not None and self.diagnostics is not None:
            self.diagnostics.record_exception(
                "synthesis.evaluate",
                self._template_error,
                severity="info",
                suggested_fix=(
                    "template operating point unavailable; "
                    "candidates fall back to cold-started solves"
                ),
            )

    def _balance_template(self, system: System, x0):
        """The template's balanced MNA vector, or ``None``.

        The template is balanced as a candidate is, from its zero-drive
        solution ``x0`` on ``system``, which is bound to the template
        bench, on driven copies of that bench.  ``None`` when the
        output does not land within the balance tolerance.  The balance
        is called through its module, so that this module's
        ``balance_differential`` name, which the benchmark's tracer
        counts, balances candidates only.
        """
        try:
            _, _, op = analysis.balance_differential(
                _driven_copies(system.circuit),
                "out",
                target=0.0,
                v_span=BALANCE_SPAN,
                tol=self.balance_tolerance,
                max_bisections=16,
                system=system,
                x0=x0,
                column=self._balance_column(),
            )
        except ApeError:
            return None
        if not abs(op.v("out")) < self.balance_tolerance:
            return None
        return op.x.copy()

    def _balance_column(self):
        """The balance's drive column ``dF/dv``, one per problem.

        The drive enters only through the source ``dc`` values
        :func:`~repro.opamp.benches.differential_drive` sets, which no
        search variable moves, so the column of the template bench and
        its driven copy at :data:`BALANCE_SPAN` serves every candidate.
        """
        if self._column is None:
            at_zero = self._template_bench
            self._column = _drive_column(
                System(at_zero),
                at_zero,
                _driven_copies(at_zero)(BALANCE_SPAN),
                BALANCE_SPAN,
            )
        return self._column

    # The in-place bench.  A Monte Carlo sample's problem
    # (``repro.synthesis.robust._SampleProblem``) overrides the two
    # hooks below.

    def _build_bench(self):
        """The bench at the template point."""
        return open_loop_bench(self.template)

    def _written(self, element):
        """``element``, whose fields a candidate set, as the bench holds it."""
        return element

    def _placed(self):
        """The in-place bench, built at the template point on first use."""
        if self._bench is None:
            from ..lint.rules import candidate_error

            bench = self._build_bench()
            self._map = opamp_placement(self.template)
            point = self.template.initial_point()
            self._point = {name: point[name] for name in self._map}
            self._values = dict(self._point)
            tech = self.template.tech
            self._flagged = {e.name for e in bench if candidate_error(e, tech)}
            self._template_bench = bench.copy()
            self._bench = bench
        return self._bench

    def _changes(self, params: dict[str, float]) -> dict[str, float]:
        """The placed variables ``params`` moves on the in-place bench.

        A placed variable ``params`` does not name takes the template's
        value, and a key no placed variable has is ignored.
        """
        values = self._values
        return {
            name: value
            for name, default in self._point.items()
            if (value := params.get(name, default)) != values[name]
        }

    def _sizable(
        self, changes: dict[str, float], params: dict[str, float]
    ) -> bool:
        """True when every device ``changes`` resizes passes the
        :class:`~repro.devices.MosDevice` checks.

        Unchanged devices passed them when they were applied.
        """
        for name in changes:
            device = self._device_keys.get(name)
            if device is None:
                continue
            model, w_key, l_key, w, l = device
            try:
                MosDevice(model, params.get(w_key, w), params.get(l_key, l))
            except SizingError:
                return False
        return True

    def _apply(self, changes: dict[str, float]) -> None:
        """Write ``changes`` into the in-place bench.

        Each element is written once, with every field the candidate
        sets in it.  Each written element's
        :func:`~repro.lint.rules.candidate_error` flag is updated with
        it, so the lint gate knows whether the bench can draw a
        candidate-rule error without running the rules.
        """
        from ..lint.rules import candidate_error

        circuit = self._bench
        fields: dict[str, dict[str, float]] = {}
        for name, value in changes.items():
            for element, field in self._map[name]:
                fields.setdefault(element, {})[field] = value
            self._values[name] = value
        tech = self.template.tech
        flagged = self._flagged
        for name, values in fields.items():
            element = self._written(replace(circuit.element(name), **values))
            circuit.replace(element)
            if candidate_error(element, tech):
                flagged.add(name)
            else:
                flagged.discard(name)

    def _lint_rejects(self, bench, tech: Technology) -> bool:
        """True when the ERC finds an error — reject before Newton.

        Every rule outside :data:`~repro.lint.rules.CANDIDATE_RULES`
        (source loops, floating gates, current-source cutsets, ...) runs
        exactly once: every candidate shares the template's topology,
        so that verdict is a property of the problem, not of whichever
        candidate came first.  The candidate rules, whose verdict moves
        with the sizing, run per candidate — only when some element is
        flagged by :func:`~repro.lint.rules.candidate_error`, since a
        bench with no flagged element draws no error from them.  Rejections, noqa
        tags and Diagnostics are therefore those of a full run.
        """
        from ..lint import lint_circuit
        from ..lint.rules import CANDIDATE_RULES

        if self._structure_ok(bench):
            if not self._flagged:
                return False
            report = lint_circuit(bench, tech=tech, rules=CANDIDATE_RULES)
            if report.ok:
                return False
        else:
            report = self._structural_report
        self.lint_rejections += 1
        first = report.errors[0]
        if self.diagnostics is not None:
            self.diagnostics.record(
                Diagnostic(
                    subsystem="synthesis.lint",
                    severity="warning",
                    message=(
                        f"candidate rejected before solve: {first.render()}"
                    ),
                    suggested_fix=first.fix_hint,
                    context={
                        "rule": first.code,
                        "element": first.element,
                        "nodes": list(first.nodes),
                    },
                )
            )
        return True

    def _structure_ok(self, bench) -> bool:
        """Whether the structural lint pass finds no error on ``bench``.

        The pass (every rule outside
        :data:`~repro.lint.rules.CANDIDATE_RULES`) runs once per
        problem; its errors are topological, so any bench of the
        problem draws the same ones.
        """
        if self._structural_report is None:
            from ..lint import lint_circuit
            from ..lint.rules import CANDIDATE_RULES

            self._structural_report = lint_circuit(
                bench, tech=self.template.tech, suppress=CANDIDATE_RULES
            )
        return self._structural_report.ok

    def _note_failure(self, exc: ApeError) -> None:
        if self.diagnostics is not None:
            self.diagnostics.record_exception(
                "synthesis.evaluate",
                exc,
                severity="warning",
                suggested_fix=(
                    "unusable candidate penalized and skipped; raise the "
                    "evaluation budget or tighten the search ranges if "
                    "these dominate the run"
                ),
            )

    def _supply_power(self, op, tech: Technology) -> float:
        return tech.vdd * (-op.i("VDDSUP")) + tech.vss * (-op.i("VSSSUP"))

    def _dead_metrics(self, bench, op, tech: Technology) -> dict[str, float]:
        return {
            "gain": 0.0,
            "ugf": math.nan,
            "gate_area": bench.total_gate_area(),
            "dc_power": self._supply_power(op, tech),
            "offset": op.v("out"),
        }

    def _measure(
        self, bench, op, tech: Technology, r_ref: float, model=None
    ) -> dict[str, float]:
        metrics = {
            "gate_area": bench.total_gate_area(),
            "dc_power": self._supply_power(op, tech),
            "offset": op.v("out"),
        }
        # The realized reference current — Table 1's Ibias is an input
        # the surrounding system provides, so a working design must
        # draw (roughly) that current through its reference branch.
        v_bias = op.v("X1_nbias_a")
        metrics["i_ref"] = (tech.vdd - v_bias) / r_ref
        try:
            if model is None:
                model = awe_poles(bench, "out", order=self.awe_order, op=op)
            metrics["gain"] = abs(model.dc_gain)
            try:
                metrics["ugf"] = model.unity_gain_frequency()
                # Phase margin from the reduced-order model: the open
                # loop must be usable in feedback ("functionally
                # correct design" in the paper's terms).
                h_ugf = model.response_at(metrics["ugf"])
                h_dc = model.response_at(max(metrics["ugf"] * 1e-6, 1e-3))
                shift = math.degrees(
                    math.atan2(h_ugf.imag, h_ugf.real)
                    - math.atan2(h_dc.imag, h_dc.real)
                )
                while shift > 0.0:
                    shift -= 360.0
                metrics["phase_margin"] = 180.0 + shift
            except SimulationError:
                metrics["ugf"] = math.nan
                metrics["phase_margin"] = math.nan
        except SimulationError:
            metrics["gain"] = 0.0
            metrics["ugf"] = math.nan
            metrics["phase_margin"] = math.nan
        return metrics
