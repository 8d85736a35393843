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
AC sweep.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Callable

from ..errors import ApeError, SimulationError, SpecificationError
from ..opamp import OpAmp
from ..opamp.benches import open_loop_bench
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..spice import awe_poles, dc_operating_point
from ..spice.analysis import balance_differential
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
    from ..devices import MosDevice

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

    One evaluation profile serves every caller — the serial path,
    pooled chains, robust corner and Monte Carlo variants.  Each
    candidate's DC solve starts from the template's zero-drive
    operating point, and the cached bench is updated in place whenever
    a one-time probe proves that exact.  Both are run constants, never
    a previous candidate's state, so evaluation stays *canonical*: the
    result for a parameter dict is independent of evaluation order —
    the invariant the memo cache and the executor's scheduling
    independence rest on.
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
        lint: bool = True,
        bench_factory: Callable[..., object] | None = None,
    ) -> None:
        self.template = template
        self._variables = variables
        self.awe_order = awe_order
        self.balance_tolerance = balance_tolerance
        #: Gate each candidate through the electrical rule checker
        #: before any matrix is assembled: the full structural catalog
        #: once per topology (cached — the structure never changes
        #: between candidates), then the cheap per-candidate value and
        #: geometry subset (:data:`repro.lint.rules.CANDIDATE_RULES`).
        self.lint = lint
        #: Candidates rejected by the lint gate without a Newton solve.
        self.lint_rejections = 0
        #: Bench constructor ``(amp, v_diff=...) -> Circuit``; defaults
        #: to :func:`~repro.opamp.benches.open_loop_bench`.  Benchmarks
        #: inject structurally broken benches through this hook.
        self.bench_factory = (
            open_loop_bench if bench_factory is None else bench_factory
        )
        self._structural_report = None
        #: ``False`` evaluates every candidate from scratch (no shared
        #: system, template warm start, in-place bench or warm-started
        #: bisections) — the benchmark baseline and the tests' reference.
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

    @property
    def variables(self) -> list[Variable]:
        return self._variables

    def evaluate(self, params: dict[str, float]) -> dict[str, float] | None:
        try:
            amp = parameterized_opamp(self.template, params)
        except ApeError as exc:
            self._note_failure(exc)
            return None
        try:
            faults.check("synthesis.evaluate")
            bench = self._candidate_bench(amp, params)
            if self.lint and self._lint_rejects(bench, amp):
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
                _, bench, op = balance_differential(
                    lambda v: self.bench_factory(amp, v_diff=v),
                    "out",
                    target=0.0,
                    v_span=0.5,
                    tol=self.balance_tolerance,
                    max_bisections=16,
                    retry=self.retry,
                    system=self._system,
                    warm_start=self.reuse_state,
                    x0=op.x,
                )
                if abs(op.v("out")) > 1.0:
                    # Unbalanceable: dead amplifier.
                    return self._dead_metrics(bench, op, amp)
            metrics = self._measure(bench, op, amp)
            return metrics
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

    def _candidate_bench(self, amp: OpAmp, params: dict[str, float]):
        """The candidate's bench: factory build or in-place update."""
        if not self.reuse_state:
            return self.bench_factory(amp, v_diff=0.0)
        if self._bench_map is None and not self._bench_broken:
            self._probe_bench_map(params)
        if self._bench_broken or self._bench_map is None:
            return self.bench_factory(amp, v_diff=0.0)
        circuit, applied, mapping = self._bench_map
        if set(params) != set(applied):
            # Unknown or missing keys could affect the bench in ways the
            # probe never saw; build this candidate the slow, safe way.
            return self.bench_factory(amp, v_diff=0.0)
        for name, value in params.items():
            if value == applied[name]:
                continue
            for elem_name, field_name in mapping[name]:
                elem = circuit.element(elem_name)
                circuit.replace(replace(elem, **{field_name: value}))
            applied[name] = value
        return circuit

    def _probe_bench_map(self, params: dict[str, float]) -> None:
        """One-time discovery of the variable -> element-field mapping.

        Builds the bench once at ``params`` and once per variable with
        that variable nudged, and accepts only *identity* mappings: the
        changed field's old/new values must equal the parameter's
        old/new values exactly.  Anything else (derived values, changed
        structure, non-positive parameters) marks the fast path broken
        and every candidate keeps using the factory build.
        """
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
        self._bench_map = (base, applied, mapping)

    def _lint_rejects(self, bench, amp: OpAmp) -> bool:
        """True when the ERC finds an error — reject before Newton.

        The full structural catalog (source loops, floating gates,
        current-source cutsets, ...) runs exactly once: every candidate
        shares the template's topology, so the structural verdict is a
        property of the run, not of the candidate.  Per candidate only
        the cheap value/geometry subset runs — no graph analysis, no
        matrix assembly.
        """
        from ..lint import lint_circuit
        from ..lint.rules import CANDIDATE_RULES

        if self._structural_report is None:
            self._structural_report = lint_circuit(bench, tech=amp.tech)
        report = self._structural_report
        if report.ok:
            report = lint_circuit(
                bench, tech=amp.tech, rules=CANDIDATE_RULES
            )
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

    def _dead_metrics(self, bench, op, amp: OpAmp) -> dict[str, float]:
        return {
            "gain": 0.0,
            "ugf": math.nan,
            "gate_area": bench.total_gate_area(),
            "dc_power": self._supply_power(op, amp.tech),
            "offset": op.v("out"),
        }

    def _measure(self, bench, op, amp: OpAmp) -> dict[str, float]:
        metrics = {
            "gate_area": bench.total_gate_area(),
            "dc_power": self._supply_power(op, amp.tech),
            "offset": op.v("out"),
        }
        # The realized reference current — Table 1's Ibias is an input
        # the surrounding system provides, so a working design must
        # draw (roughly) that current through its reference branch.
        if amp.r_ref > 0:
            v_bias = op.v("X1_nbias_a")
            metrics["i_ref"] = (amp.tech.vdd - v_bias) / amp.r_ref
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
