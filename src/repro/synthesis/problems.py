"""Sizing problems: variables, candidate evaluation, search ranges.

An :class:`OpAmpSizingProblem` fixes the circuit *structure* (the
topology, exactly as ASTRX/OBLX does) and exposes the device geometries
and compensation capacitor as box-bounded unknowns.  Candidate
evaluation follows the ASTRX/OBLX recipe: the DC operating point at
zero differential drive, then — when the open-loop output rails — the
balanced operating point, found by one bordered Newton solve started
from that solution (bisection as the fallback, see
:func:`~repro.spice.analysis.balance_differential`), then an AWE
reduced-order model for the gain and unity-gain frequency — not a full
AC sweep.  A railed candidate on the in-place bench is balanced on
copies of that bench with only the two input sources retargeted, and
the balance's drive column is computed once per problem, not once per
candidate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Callable

from ..devices import MosDevice
from ..errors import ApeError, SimulationError, SizingError, SpecificationError
from ..opamp import OpAmp
from ..opamp.benches import differential_drive, open_loop_bench
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..spice import awe_poles, dc_operating_point
from ..spice.analysis import _drive_column, balance_differential
from ..spice.mna import System
from ..spice.netlist import VoltageSource
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
EVALUATOR_VERSION = 3

#: Hard geometry bounds for the search [m].
W_HARD = (0.9e-6, 500e-6)
L_HARD_MAX = 20e-6
#: Compensation capacitor search interval [F].
CC_HARD = (0.2e-12, 30e-12)
#: Bias-programming resistor search interval [ohm].  ASTRX/OBLX treats
#: bias points as unknowns; a wrong reference current wrecks the whole
#: amplifier, which is exactly why uninformed search is hard.
RBIAS_HARD = (5e3, 50e6)
#: Differential drive bracket of the output balancing [V].
BALANCE_SPAN = 0.5
#: The drive proof's third drive [V]: negative and not a dyadic
#: fraction, so a factory that rounds or mirrors the drive otherwise
#: than :func:`~repro.opamp.benches.differential_drive` shows it.
PROOF_DRIVE = -0.3


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
    if template.r_ref > 0:
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
    for key, value in (("r.ref", template.r_ref), ("r.bias", template.r_bias)):
        if value > 0:
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

    One evaluation profile serves every caller — every annealing
    chain, in-process or pooled, and robust corner and Monte Carlo
    variants.  Each candidate's DC solve starts from the template's
    zero-drive operating point, the cached bench is updated in place
    whenever a one-time probe proves that exact, and railed candidates
    are balanced on copies of it whenever a second one-time proof, of
    how the factory applies the drive, does too.  All three are run
    constants, never a previous candidate's state, so evaluation stays
    *canonical*: the result for a parameter dict is independent of
    evaluation order — the invariant the memo cache and the executor's
    scheduling independence rest on.

    On the in-place bench a candidate is applied as a delta against
    the last applied one: no :class:`~repro.opamp.OpAmp` is built
    (``tech`` comes from the template, ``r_ref`` from the params), the
    :class:`~repro.devices.MosDevice` checks run on the changed devices
    before anything is written, only the changed elements are written
    into the bench (which stays the one source of truth), the lint gate
    runs its candidate rules only when a written element is flagged,
    and the shared :class:`~repro.spice.mna.System` rebuilds only the
    changed transistors' devices.  A candidate that fails the device
    checks calls :func:`parameterized_opamp` for its exact
    ``SizingError``.  The factory path — ``reuse_state=False``, Monte
    Carlo variants, custom factories the probe rejects, non-canonical
    dicts — builds an ``OpAmp`` and a bench per candidate and is the
    tests' reference.
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
        reuse_state: bool = True,
        bench_factory: Callable[..., object] | None = None,
    ) -> None:
        self.template = template
        self._variables = variables
        self.awe_order = awe_order
        self.balance_tolerance = balance_tolerance
        #: Candidates rejected by the lint gate without a Newton solve
        #: (see :meth:`_lint_rejects`).
        self.lint_rejections = 0
        #: Bench constructor ``(amp, v_diff=...) -> Circuit``; defaults
        #: to :func:`~repro.opamp.benches.open_loop_bench`.  Monte Carlo
        #: variants inject their mismatch benches through this hook.
        self.bench_factory = (
            open_loop_bench if bench_factory is None else bench_factory
        )
        self._structural_report = None
        #: ``False`` evaluates every candidate from scratch (no shared
        #: system, template warm start, in-place bench or drive, or
        #: warm-started bisections) — the tests' reference.
        self.reuse_state = reuse_state
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
        #: Template operating point (see :meth:`_warm_guess`).
        self._warm_x0 = None
        self._warm_ready = False
        #: In-place bench: ``(circuit, applied params, mapping)`` once
        #: :meth:`_probe_bench_map` proves every search variable maps
        #: *identically* onto element fields (MOSFET W/L, CC, RREF,
        #: RBIASB); any derived dependence (a Monte Carlo bench's
        #: geometry-dependent mismatch), structure change or unknown
        #: key keeps the factory build, so the fast path is bit-for-bit
        #: equivalent or not taken at all.
        self._bench_map: tuple | None = None
        self._bench_broken = False
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
        #: In-place drive: the balancing solve's drive column once
        #: :meth:`_prove_drive` shows, from the template's bench, that
        #: the factory applies the drive exactly as
        #: :func:`~repro.opamp.benches.differential_drive` does and in
        #: nothing else.  The proof runs at most once, at the first
        #: railed candidate on the in-place bench; a custom factory
        #: that fails it (``None``) keeps factory-built drives.
        self._column = None
        self._column_ready = False

    @property
    def variables(self) -> list[Variable]:
        return self._variables

    def evaluate(self, params: dict[str, float]) -> dict[str, float] | None:
        changes = self._changes(params)
        amp = None
        if changes is None or not self._sizable(changes, params):
            # The factory path; on the in-place bench, the exact
            # SizingError of a candidate that fails the device checks.
            try:
                amp = parameterized_opamp(self.template, params)
            except ApeError as exc:
                self._note_failure(exc)
                return None
        try:
            faults.check("synthesis.evaluate")
            if changes is None:
                bench = self._candidate_bench(amp, params)
            else:
                bench = self._apply(changes)
            tech = self.template.tech
            if self._lint_rejects(bench, tech):
                return None
            if not self.reuse_state:
                self._system = None
            elif self._system is None:
                self._system = System(bench)
            else:
                self._system = self._system.rebind(bench)
            op = dc_operating_point(
                bench,
                x0=self._warm_guess(),
                retry=self.retry,
                system=self._system,
            )
            v_out = op.v("out")
            if abs(v_out) > 0.25:
                # Output railed at zero offset: balance, starting from
                # this zero-drive solution.
                build, column = self._drive(amp, params, bench)
                _, bench, op = balance_differential(
                    build,
                    "out",
                    target=0.0,
                    v_span=BALANCE_SPAN,
                    tol=self.balance_tolerance,
                    max_bisections=16,
                    retry=self.retry,
                    system=self._system,
                    warm_start=self.reuse_state,
                    x0=op.x,
                    column=column,
                )
                if abs(op.v("out")) > 1.0:
                    # Unbalanceable: dead amplifier.
                    return self._dead_metrics(bench, op, tech)
            return self._measure(
                bench, op, tech, params.get("r.ref", self.template.r_ref)
            )
        except SimulationError as exc:
            self._note_failure(exc)
            return None

    def _warm_guess(self):
        """Run-constant DC starting vector (template OP), or ``None``.

        Computed at most once, from the template alone, with fault
        injection suspended so the template solve never shifts an armed
        injector's decision stream.  ``None`` (the solver's cold start)
        without ``reuse_state``, when the template itself will not
        converge, or when the current system's unknown vector has
        another size.
        """
        if not self.reuse_state:
            return None
        if not self._warm_ready:
            self._warm_ready = True
            previous = faults.active()
            faults.disarm()
            try:
                bench = self.bench_factory(self.template, v_diff=0.0)
                op = dc_operating_point(bench, system=System(bench))
                self._warm_x0 = op.x.copy()
            except ApeError as exc:
                self._warm_x0 = None
                if self.diagnostics is not None:
                    self.diagnostics.record_exception(
                        "synthesis.evaluate",
                        exc,
                        severity="info",
                        suggested_fix=(
                            "template operating point unavailable; "
                            "candidates fall back to cold-started solves"
                        ),
                    )
            finally:
                if previous is not None:
                    faults.arm(previous)
        x0 = self._warm_x0
        if (
            x0 is not None
            and self._system is not None
            and len(x0) != self._system.size
        ):
            return None
        return x0

    def _changes(self, params: dict[str, float]) -> dict[str, float] | None:
        """The variables ``params`` moves on the in-place bench, or ``None``.

        ``None`` (the factory path) until the bench-map probe has proven
        the in-place bench, and for a dict whose keys are not exactly
        the mapped variables: unknown or missing keys could affect the
        bench in ways the probe never saw.
        """
        if self._bench_map is None:
            return None
        applied = self._bench_map[1]
        if params.keys() != applied.keys():
            return None
        return {
            name: value
            for name, value in params.items()
            if value != applied[name]
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

    def _apply(self, changes: dict[str, float]):
        """Write ``changes`` into the in-place bench and return it.

        Each written element's :func:`~repro.lint.rules.candidate_error`
        flag is updated with it, so the lint gate knows whether the
        bench can draw a candidate-rule error without running the rules.
        """
        from ..lint.rules import candidate_error

        circuit, applied, mapping = self._bench_map
        tech = self.template.tech
        flagged = self._flagged
        for name, value in changes.items():
            for elem_name, field_name in mapping[name]:
                elem = replace(circuit.element(elem_name), **{field_name: value})
                circuit.replace(elem)
                if candidate_error(elem, tech):
                    flagged.add(elem_name)
                else:
                    flagged.discard(elem_name)
            applied[name] = value
        return circuit

    def _candidate_bench(self, amp: OpAmp, params: dict[str, float]):
        """The bench of a candidate :meth:`_changes` cannot place.

        A factory build, except at the first canonical candidate of a
        problem whose bench map is unproven: the probe runs, and the
        bench it built at exactly ``params`` becomes the in-place bench.
        """
        if self.reuse_state and self._bench_map is None and not self._bench_broken:
            self._probe_bench_map(params)
            if self._bench_map is not None:
                return self._bench_map[0]
        return self.bench_factory(amp, v_diff=0.0)

    def _probe_bench_map(self, params: dict[str, float]) -> None:
        """One-time discovery of the variable -> element-field mapping.

        Builds the bench once at ``params`` and once per variable with
        that variable nudged, and accepts only *identity* mappings: the
        changed field's old/new values must equal the parameter's
        old/new values exactly.  Anything else (derived values, changed
        structure, non-positive parameters) marks the fast path broken
        and every candidate keeps using the factory build.
        """
        from ..lint.rules import candidate_error

        if set(params) != {v.name for v in self._variables}:
            # A non-canonical dict (extra or missing keys) could bake
            # effects into the cached bench the mapping would not track;
            # skip probing and try again on a canonical candidate.
            return
        try:
            base_amp = parameterized_opamp(self.template, params)
            base = self.bench_factory(base_amp, v_diff=0.0)
        except ApeError:
            self._bench_broken = True
            return
        base_elements = base.elements
        base_sig = [(type(e), e.name, e.nodes) for e in base_elements]
        mapping: dict[str, tuple[tuple[str, str], ...]] = {}
        for variable in self._variables:
            name = variable.name
            value = params.get(name)
            if value is None or value <= 0.0:
                self._bench_broken = True
                return
            probe_value = value * 1.0625
            probe_params = dict(params)
            probe_params[name] = probe_value
            try:
                probe = self.bench_factory(
                    parameterized_opamp(self.template, probe_params),
                    v_diff=0.0,
                )
            except ApeError:
                self._bench_broken = True
                return
            probe_elements = probe.elements
            if [(type(e), e.name, e.nodes) for e in probe_elements] != base_sig:
                self._bench_broken = True
                return
            entries: list[tuple[str, str]] = []
            for e0, e1 in zip(base_elements, probe_elements):
                if e0 == e1:
                    continue
                for f in dataclasses.fields(e0):
                    v0 = getattr(e0, f.name)
                    v1 = getattr(e1, f.name)
                    if v0 == v1:
                        continue
                    if v0 == value and v1 == probe_value:
                        entries.append((e0.name, f.name))
                    else:
                        self._bench_broken = True
                        return
            mapping[name] = tuple(entries)
        applied = {name: params[name] for name in mapping}
        tech = self.template.tech
        self._flagged = {
            e.name for e in base_elements if candidate_error(e, tech)
        }
        self._bench_map = (base, applied, mapping)

    def _drive(self, amp: OpAmp | None, params: dict[str, float], bench):
        """``(build, column)`` for balancing a railed candidate.

        On the in-place bench, once :meth:`_prove_drive` has shown the
        factory drives it only through the sources
        :func:`~repro.opamp.benches.differential_drive` names, every
        driven circuit is a new copy of ``bench`` with those sources
        retargeted, and the drive column is the problem's own.  The
        copies share every other element object with ``bench``, so the
        system rebinds to them as a source-only edit, and ``bench``
        itself stays at zero drive.  Anything else builds every drive
        with the factory (from ``amp``, built from ``params`` when the
        candidate was placed without one) and leaves the column to the
        balance.
        """
        if self._bench_map is not None and bench is self._bench_map[0]:
            if not self._column_ready:
                self._column_ready = True
                self._column = self._prove_drive()
            if self._column is not None:

                def build(v: float):
                    ckt = bench.copy()
                    for name, dc in differential_drive(v).items():
                        ckt.replace(replace(ckt.element(name), dc=dc))
                    return ckt

                return build, self._column
        if amp is None:
            amp = parameterized_opamp(self.template, params)
        return (lambda v: self.bench_factory(amp, v_diff=v)), None

    def _prove_drive(self):
        """One-time proof of the in-place drive; its column, or ``None``.

        Builds the template's bench at zero drive, at
        :data:`BALANCE_SPAN` and at :data:`PROOF_DRIVE`, and accepts
        only when every build differs from the zero-drive one in
        exactly the ``dc`` of the sources
        :func:`~repro.opamp.benches.differential_drive` names, with
        exactly its values.  Like :meth:`_warm_guess` it reads only the
        template, so the verdict never depends on which candidate
        rails first.  The column then comes from the zero and span
        builds, as the balance would compute it for any candidate: no
        other source moves with the drive, and none moves with the
        search variables (the bench-map probe proved that).
        """
        try:
            builds = {
                v: self.bench_factory(self.template, v_diff=v)
                for v in (0.0, BALANCE_SPAN, PROOF_DRIVE)
            }
        except ApeError:
            return None
        at_zero = builds[0.0]
        if not (
            self._system.structure_matches(at_zero)
            and all(name in at_zero for name in differential_drive(0.0))
        ):
            return None
        for v, ckt in builds.items():
            drive = differential_drive(v)
            if len(ckt) != len(at_zero):
                return None
            for a, b in zip(at_zero, ckt):
                if b.name not in drive:
                    if a != b:
                        return None
                elif not (
                    isinstance(b, VoltageSource)
                    and replace(b, dc=a.dc) == a
                    and b.dc == drive[b.name]
                ):
                    return None
        return _drive_column(
            System(at_zero), at_zero, builds[BALANCE_SPAN], BALANCE_SPAN
        )

    def _lint_rejects(self, bench, tech: Technology) -> bool:
        """True when the ERC finds an error — reject before Newton.

        Every rule outside :data:`~repro.lint.rules.CANDIDATE_RULES`
        (source loops, floating gates, current-source cutsets, ...) runs
        exactly once: every candidate shares the template's topology,
        so that verdict is a property of the problem, not of whichever
        candidate came first.  The candidate rules, whose verdict moves
        with the sizing, run per candidate — on the in-place bench only
        when some element is flagged by
        :func:`~repro.lint.rules.candidate_error`, since a bench with
        no flagged element draws no error from them.  Rejections, noqa
        tags and Diagnostics are therefore those of a full run.
        """
        from ..lint import lint_circuit
        from ..lint.rules import CANDIDATE_RULES

        if self._structural_report is None:
            self._structural_report = lint_circuit(
                bench, tech=tech, suppress=CANDIDATE_RULES
            )
        report = self._structural_report
        if report.ok:
            if (
                not self._flagged
                and self._bench_map is not None
                and bench is self._bench_map[0]
            ):
                return False
            report = lint_circuit(bench, tech=tech, rules=CANDIDATE_RULES)
            if report.ok:
                return False
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
        self, bench, op, tech: Technology, r_ref: float
    ) -> dict[str, float]:
        metrics = {
            "gate_area": bench.total_gate_area(),
            "dc_power": self._supply_power(op, tech),
            "offset": op.v("out"),
        }
        # The realized reference current — Table 1's Ibias is an input
        # the surrounding system provides, so a working design must
        # draw (roughly) that current through its reference branch.
        if r_ref > 0:
            v_bias = op.v("X1_nbias_a")
            metrics["i_ref"] = (tech.vdd - v_bias) / r_ref
        try:
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
