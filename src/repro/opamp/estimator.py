"""Op-amp sizing and performance composition (the APE core algorithm).

Given an :class:`~repro.opamp.topology.OpAmpSpec` and an
:class:`~repro.opamp.topology.OpAmpTopology`, :func:`design_opamp`
walks the hierarchy bottom-up exactly as the paper describes: the tail
current source is sized first (its output conductance feeds the
differential-stage equations), then the differential stage, the
common-source gain stage, the output buffer, and finally the composed
performance estimate, with every transistor sized along the way.

Design rules encoded here (classic two-stage Miller practice):

* Miller capacitor ``Cc >= 0.22 CL`` (right-half-plane zero nulled by a
  series resistor ``Rz = 1/gm6``),
* ``gm6 >= 10 gm1`` for phase margin,
* first-stage overdrive picked to satisfy *both* the UGF (through
  ``gm1 = 2 pi UGF Cc``) and the gain split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..components import (
    Component,
    DiffCmos,
    DiffNmos,
    GainCmos,
    PerformanceEstimate,
    SourceFollower,
    current_source_by_name,
)
from ..components.current_sources import DEFAULT_MIRROR_VOV
from ..devices.sizing import MIN_OVERDRIVE
from ..errors import EstimationError
from ..runtime import faults
from ..runtime.diagnostics import Diagnostic
from ..technology import MosPolarity, Technology
from .topology import OpAmpSpec, OpAmpTopology

__all__ = ["OpAmp", "design_opamp", "coarse_design_opamp"]

#: Compensation capacitor floor relative to the load (stability rule).
CC_OVER_CL = 0.22
#: Phase-margin rule: second-stage gm over first-stage gm.
GM6_OVER_GM1 = 10.0
#: Overdrive window for the input pair [V].
VOV1_MIN, VOV1_MAX = MIN_OVERDRIVE, 1.0
#: Overdrive window for the second-stage driver [V].
VOV6_MIN, VOV6_MAX = 0.08, 1.0
#: Current in the sink-bias distribution branch [A].
SINK_BIAS_CURRENT = 10e-6


@dataclass
class OpAmp(Component):
    """A fully sized operational amplifier with composed estimates.

    ``stages`` holds the level-2 sub-components by role
    (``'tail_source'``, ``'diff'``, ``'stage2'``, ``'buffer'``);
    ``currents`` the branch currents by name.  The netlist/bench
    machinery lives in :mod:`repro.opamp.benches`.
    """

    spec: OpAmpSpec = None  # type: ignore[assignment]
    topology: OpAmpTopology = None  # type: ignore[assignment]
    stages: dict[str, Component] = field(default_factory=dict)
    currents: dict[str, float] = field(default_factory=dict)
    #: Miller capacitor [F] (0 when single-stage).
    cc: float = 0.0
    #: Zero-nulling resistor in series with Cc [ohm].
    rz: float = 0.0
    #: Bias-programming resistors [ohm].  These are part of the design
    #: point: ASTRX/OBLX treats bias values as unknowns.  ``r_ref``
    #: programs the tail source and is always positive once
    #: :func:`design_opamp` sized it; ``r_bias`` is 0 when there is no
    #: sink-bias branch.
    r_ref: float = 0.0
    r_bias: float = 0.0

    @property
    def two_stage(self) -> bool:
        return "stage2" in self.stages

    @property
    def has_buffer(self) -> bool:
        return "buffer" in self.stages

    def total_current(self) -> float:
        """Sum of all branch currents [A]."""
        return sum(self.currents.values())

    def stage(self, role: str) -> Component:
        try:
            return self.stages[role]
        except KeyError:
            raise EstimationError(
                f"{self.name}: no stage {role!r}; have "
                f"{', '.join(sorted(self.stages))}"
            ) from None

    def initial_point(self) -> dict[str, float]:
        """Flat parameter dict for seeding a synthesis engine.

        Keys are ``<stage>.<role>.w`` / ``.l`` in metres plus the
        compensation values — the "initial design point" the paper
        feeds to ASTRX/OBLX.
        """
        point: dict[str, float] = {}
        for stage_name, stage in self.stages.items():
            for role, dev in stage.devices.items():
                point[f"{stage_name}.{role}.w"] = dev.w
                point[f"{stage_name}.{role}.l"] = dev.l
        if self.cc > 0:
            point["cc"] = self.cc
        point["r.ref"] = self.r_ref
        if self.r_bias > 0:
            point["r.bias"] = self.r_bias
        for branch, value in self.currents.items():
            point[f"i.{branch}"] = value
        return point


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def design_opamp(
    tech: Technology,
    spec: OpAmpSpec,
    topology: OpAmpTopology | None = None,
    name: str = "opamp",
) -> OpAmp:
    """Size a complete op-amp and estimate its performance.

    Follows the paper's bottom-up flow; raises
    :class:`~repro.errors.EstimationError` when the specification is
    infeasible for the chosen topology (e.g. more gain than two stages
    can deliver in this technology).
    """
    faults.check("estimator.opamp")
    if topology is None:
        topology = OpAmpTopology()
    lam_sum = tech.nmos.lambda_ + tech.pmos.lambda_
    a1_max = 2.0 / (VOV1_MIN * lam_sum)
    a2_max = 2.0 / (VOV6_MIN * lam_sum)

    # ------------------------------------------------------------- buffer
    buffer: SourceFollower | None = None
    a_buf = 1.0
    i_buf = 0.0
    if topology.output_buffer:
        if math.isfinite(topology.z_load):
            gm_buf = 2.0 / topology.z_load
        else:
            gm_buf = 2.0 / 10e3  # default drive strength
        i_buf = max(
            gm_buf * DEFAULT_MIRROR_VOV / 2.0,
            spec.slew_rate * spec.cl,
            5e-6,
        )
        buffer = SourceFollower.design(
            tech,
            current=i_buf,
            z_out=1.0 / gm_buf,
            r_load=topology.z_load,
            name=f"{name}.buffer",
        )
        a_buf = buffer.estimate.gain

    a_needed = spec.gain / a_buf
    diff_kind = topology.diff_pair.lower()
    diff_is_cmos = diff_kind == "cmos"
    diff_is_folded = diff_kind == "folded"

    # --------------------------------------------------- stage count choice
    if diff_is_folded:
        # The folded cascode is single-stage by construction; its gain
        # is set by the cascode structure, not the overdrive split.
        two_stage = False
    elif topology.gain_stage is None:
        # Single stage only when the mirror-loaded pair can reach the
        # gain comfortably AND doing so doesn't explode the tail current
        # (single-stage UGF needs gm1 = 2 pi f CL, ~5x the two-stage gm).
        # The paper's op-amps are single-stage (diff amp + optional
        # buffer) wherever the mirror-loaded pair can reach the gain;
        # the common-source stage is added only beyond that.  spec.ibias
        # is the *reference* current — the tail is a mirrored multiple —
        # so current headroom never forces the second stage.
        vov1_ss = 2.0 / (max(a_needed, 1.0) * lam_sum)
        single_ok = diff_is_cmos and 0.06 <= vov1_ss <= 1.2
        two_stage = not single_ok
    else:
        two_stage = topology.gain_stage
        if diff_kind == "nmos" and not two_stage:
            raise EstimationError(
                f"{name}: a diode-loaded (NMOS) differential stage needs "
                "the common-source stage for single-ended output"
            )
    if a_needed > a1_max * a2_max:
        raise EstimationError(
            f"{name}: gain {spec.gain:g} exceeds the two-stage limit "
            f"~{a1_max * a2_max:.0f} in {tech.name}"
        )

    # --------------------------------------------------------- first stage
    if two_stage:
        cc_min = CC_OVER_CL * spec.cl
        gm1_req = 2.0 * math.pi * spec.ugf * cc_min
        itail = spec.ibias
        vov1 = itail / gm1_req
        if vov1 < VOV1_MIN:
            # The spec current cannot make the UGF: raise the tail.
            itail = gm1_req * VOV1_MIN
            vov1 = VOV1_MIN
        # Keep the overdrive in the gain-friendly window; extra gm just
        # raises the UGF above spec, which is acceptable.
        vov1 = _clamp(vov1, VOV1_MIN, VOV1_MAX)
        gm1 = itail / vov1
        cc = max(gm1 / (2.0 * math.pi * spec.ugf), cc_min)
        a1_target = _clamp(2.0 / (vov1 * lam_sum), 1.0, a1_max)
        if not diff_is_cmos:
            # Diode loads cap the pair gain and the single-ended
            # pick-off halves it; the second stage covers the rest.
            a1_target = min(a1_target, 12.0)
            a1_for_split = a1_target / 2.0
        else:
            a1_for_split = a1_target
        a2_target = _clamp(a_needed / a1_for_split, 9.0, a2_max)
        # The second-stage overdrive and the first-stage load overdrive
        # MUST be the same value: the diff stage's output DC level is
        # VDD - (Vthp + load_vov) and the PMOS driver's required input
        # level is VDD - (Vthp + vov6) — equality eliminates systematic
        # offset (the classic two-stage alignment condition).  The
        # overdrive is also capped by saturation headroom: the stage-2
        # output rests at the buffer's Vgs (or mid-rail without one),
        # and the PMOS driver needs |Vds| >= vov6 there.  Clamp vov6,
        # then re-derive the stage-2 gain from it so the GainCmos
        # sizing reproduces vov6 exactly.
        n2_rest = buffer.devices["driver"].op.vgs if buffer is not None else 0.0
        vov6_max = max(tech.vdd - n2_rest - 0.15, VOV6_MIN)
        vov6 = _clamp(2.0 / (a2_target * lam_sum), VOV6_MIN, min(vov6_max, 2.2))
        a2_target = 2.0 / (vov6 * lam_sum)
    else:
        if not diff_is_folded and a_needed > a1_max:
            raise EstimationError(
                f"{name}: single-stage gain {a_needed:.0f} exceeds the "
                f"one-stage limit ~{a1_max:.0f}; enable the gain stage "
                "or use the folded-cascode pair"
            )
        if diff_is_folded:
            # Gain is structural; the overdrive is the mirror default
            # and only sets gm1 = Itail / vov1.
            vov1 = DEFAULT_MIRROR_VOV
            a1_target = a_needed
        else:
            vov1 = _clamp(2.0 / (a_needed * lam_sum), VOV1_MIN, 1.2)
            a1_target = 2.0 / (vov1 * lam_sum)
        if topology.output_buffer:
            # The buffer isolates CL, so the dominant pole is set by an
            # explicit compensation capacitor at the diff output; a
            # small value keeps the tail current (gm1 = 2 pi f Cc /
            # a_buf, itail = gm1 * vov1) low.
            cc = max(0.5e-12, 0.05 * spec.cl)
            gm1 = 2.0 * math.pi * (spec.ugf / a_buf) * cc
            itail = max(gm1 * vov1, spec.ibias)
            gm1 = itail / vov1
            # If the reference current floor raised gm1, grow Cc so the
            # UGF lands near (not far above) the spec.
            cc = max(cc, a_buf * gm1 / (2.0 * math.pi * spec.ugf * 1.5))
        else:
            cc = 0.0
            gm1 = 2.0 * math.pi * spec.ugf * spec.cl
            itail = max(gm1 * vov1, spec.ibias)
            gm1 = itail / vov1
        vov6 = DEFAULT_MIRROR_VOV
        a2_target = 1.0

    # ---------------------------------------------------------- tail source
    source_cls = current_source_by_name(topology.current_source)
    tail_source = source_cls.design(
        tech,
        current=itail,
        ratio=max(itail / spec.ibias, 1e-3),
        name=f"{name}.tail",
    )
    g0 = 1.0 / tail_source.estimate.zout

    # ----------------------------------------------------------- diff stage
    stage1_cl = cc if two_stage else spec.cl
    if diff_is_folded:
        from ..components.folded_cascode import FoldedCascodeDiff

        diff: Component = FoldedCascodeDiff.design(
            tech,
            adm=a1_target,
            tail_current=itail,
            cl=max(stage1_cl if cc > 0 else spec.cl, 1e-15),
            g0=g0,
            name=f"{name}.diff",
        )
        a1_actual = diff.estimate.gain
    elif diff_is_cmos:
        diff: Component = DiffCmos.design(
            tech,
            adm=a1_target,
            tail_current=itail,
            cl=max(stage1_cl, 1e-15),
            g0=g0,
            # Alignment: the load overdrive mirrors the second-stage
            # driver overdrive (see the vov6 derivation above).
            load_vov=vov6 if two_stage else DEFAULT_MIRROR_VOV,
            name=f"{name}.diff",
        )
        a1_actual = diff.estimate.gain
    else:
        diff = DiffNmos.design(
            tech,
            adm=-a1_target,
            tail_current=itail,
            cl=max(stage1_cl, 1e-15),
            g0=g0,
            name=f"{name}.diff",
        )
        # Single-ended pick-off halves the differential gain.
        a1_actual = abs(diff.estimate.gain) / 2.0

    gm1_actual = diff.devices["pair"].gm

    # ---------------------------------------------------------- second stage
    stage2: GainCmos | None = None
    i6 = 0.0
    if two_stage:
        gm6 = GM6_OVER_GM1 * gm1_actual
        i6 = max(gm6 * vov6 / 2.0, spec.slew_rate * spec.cl, itail)
        stage2 = GainCmos.design(
            tech,
            gain=-a2_target,
            current=i6,
            cl=spec.cl,
            driver_polarity=MosPolarity.PMOS,
            load_vov=DEFAULT_MIRROR_VOV,  # sink shares the nbias rail
            name=f"{name}.stage2",
        )

    # ------------------------------------------------------------- compose
    stages: dict[str, Component] = {"tail_source": tail_source, "diff": diff}
    if diff_is_folded:
        # The tail current is *re-used* by the fold: VDD supplies only
        # the two folding branches (each Itail/2 + Ibranch).
        currents = {
            "tail_ref": spec.ibias,
            "fold": 2.0 * (itail / 2.0 + diff.branch_current),
        }
    else:
        currents = {"tail_ref": spec.ibias, "tail": itail}
    a2_actual = 1.0
    rz = 0.0
    if stage2 is not None:
        stages["stage2"] = stage2
        a2_actual = abs(stage2.estimate.gain)
        gm6_actual = stage2.devices["driver"].gm
        rz = 1.0 / gm6_actual
        currents["stage2"] = i6
        currents["sink_bias"] = SINK_BIAS_CURRENT
    if buffer is not None:
        stages["buffer"] = buffer
        currents["buffer"] = i_buf
        currents.setdefault("sink_bias", SINK_BIAS_CURRENT)

    gain_total = a1_actual * a2_actual * a_buf
    # The unity crossing is observed at the (possibly buffered) output,
    # so the buffer's sub-unity gain scales the effective UGF.
    if two_stage:
        ugf = a_buf * gm1_actual / (2.0 * math.pi * cc)
        slew = min(itail / cc, i6 / spec.cl)
    elif cc > 0:  # single stage behind a buffer: Cc at the diff output
        ugf = a_buf * gm1_actual / (2.0 * math.pi * cc)
        slew = itail / cc
    else:
        ugf = gm1_actual / (2.0 * math.pi * spec.cl)
        slew = itail / spec.cl
    if buffer is not None:
        zout = buffer.estimate.zout
    elif stage2 is not None:
        zout = stage2.estimate.zout
    else:
        zout = diff.estimate.zout
    total_current = sum(currents.values())
    # Use each stage's own estimate (the differential stage counts its
    # matched pairs twice; the raw role->device sum would not).
    gate_area = sum(s.estimate.gate_area for s in stages.values())
    # Bias-programming resistors: reference branch for the tail source
    # and (when present) the sink-bias diode branch.
    from ..components import CascodeCurrentSource, WilsonCurrentSource

    if isinstance(tail_source, WilsonCurrentSource):
        v_tail_ref = (
            tech.vss
            + tail_source.devices["diode"].op.vgs
            + tail_source.devices["output"].op.vgs
        )
    elif isinstance(tail_source, CascodeCurrentSource):
        v_tail_ref = (
            tech.vss
            + tail_source.devices["input_bottom"].op.vgs
            + tail_source.devices["input_top"].op.vgs
        )
    else:
        v_tail_ref = tech.vss + tail_source.devices["input"].op.vgs
    r_ref = (tech.vdd - v_tail_ref) / spec.ibias
    r_bias = 0.0
    if "sink_bias" in currents:
        # One diode device in the sink-bias branch, mirror-vov sized.
        from ..devices import size_for_id_vov

        bias_diode = size_for_id_vov(
            tech.nmos, tech, ids=SINK_BIAS_CURRENT, vov=DEFAULT_MIRROR_VOV
        )
        gate_area += bias_diode.gate_area
        r_bias = (tech.vdd - (tech.vss + bias_diode.op.vgs)) / SINK_BIAS_CURRENT
    estimate = PerformanceEstimate(
        gate_area=gate_area,
        dc_power=tech.supply_span * total_current,
        gain=gain_total,
        ugf=ugf,
        bandwidth=ugf / max(gain_total, 1.0),
        current=itail,
        zout=zout,
        cmrr=diff.estimate.cmrr * (a2_actual if not diff_is_cmos else 1.0),
        slew_rate=slew,
        acm=diff.estimate.acm,
        extras={
            "cc": cc,
            "rz": rz,
            "a1": a1_actual,
            "a2": a2_actual,
            "a_buf": a_buf,
            "cl": spec.cl,
            "cap_area": tech.capacitor_area(cc) if cc > 0 else 0.0,
        },
    )
    devices = {
        f"{stage_name}.{role}": dev
        for stage_name, stage in stages.items()
        for role, dev in stage.devices.items()
    }
    return OpAmp(
        name=name,
        tech=tech,
        devices=devices,
        estimate=estimate,
        spec=spec,
        topology=topology,
        stages=stages,
        currents=currents,
        cc=cc,
        rz=rz,
        r_ref=r_ref,
        r_bias=r_bias,
    )


def coarse_design_opamp(
    tech: Technology,
    spec: OpAmpSpec,
    topology: OpAmpTopology | None = None,
    name: str = "opamp",
    *,
    max_gain_halvings: int = 6,
) -> tuple[OpAmp, list[Diagnostic]]:
    """Graceful-degradation wrapper around :func:`design_opamp`.

    When the exact sizing raises :class:`EstimationError`, walk a
    relaxation ladder — retry unchanged (covers transient failures),
    enable the common-source gain stage, then repeatedly halve the gain
    target — and return the first coarser estimate that sizes, together
    with the :class:`Diagnostic` records describing every relaxation.
    Re-raises only when the whole ladder fails.
    """
    from dataclasses import replace as _replace

    diagnostics: list[Diagnostic] = []
    try:
        return design_opamp(tech, spec, topology, name=name), diagnostics
    except EstimationError as first_exc:
        diagnostics.append(
            Diagnostic.from_exception(
                "estimator.opamp",
                first_exc,
                severity="warning",
                suggested_fix=(
                    "exact sizing infeasible; a coarser analytical "
                    "estimate will be substituted"
                ),
                context={"component": name, "gain": spec.gain},
            )
        )
    attempts: list[tuple[str, OpAmpSpec, OpAmpTopology | None]] = []
    attempts.append(("retry unchanged", spec, topology))
    base_topology = topology or OpAmpTopology()
    # The folded-cascode stage is single-stage by construction, so the
    # gain-stage relaxation only applies to the other diff pairs.
    foldable = base_topology.diff_pair.lower() != "folded"
    relaxed_topology = (
        _replace(base_topology, gain_stage=True) if foldable else base_topology
    )
    if foldable and base_topology.gain_stage is not True:
        attempts.append(
            ("enable the common-source gain stage", spec, relaxed_topology)
        )
    gain = spec.gain
    for _ in range(max_gain_halvings):
        gain = gain / 2.0
        attempts.append(
            (
                f"halve the gain target to {gain:g}",
                _replace(spec, gain=gain),
                relaxed_topology,
            )
        )
    last_exc: EstimationError | None = None
    for description, attempt_spec, attempt_topology in attempts:
        try:
            amp = design_opamp(tech, attempt_spec, attempt_topology, name=name)
        except EstimationError as exc:
            last_exc = exc
            continue
        diagnostics.append(
            Diagnostic(
                subsystem="estimator.opamp",
                severity="warning",
                message=f"{name}: degraded estimate after: {description}",
                suggested_fix=(
                    "reduce the gain specification, pick a higher-gain "
                    "topology (folded cascode), or use a longer-channel "
                    "technology"
                ),
                context={
                    "component": name,
                    "requested_gain": spec.gain,
                    "delivered_gain": attempt_spec.gain,
                },
            )
        )
        return amp, diagnostics
    raise last_exc if last_exc is not None else EstimationError(
        f"{name}: relaxation ladder produced no attempts",
        context={"component": name},
    )
