"""Op-amp netlist generation and verification benches.

``place_opamp`` stamps a sized :class:`~repro.opamp.estimator.OpAmp`
into a circuit — bias distribution, tail source, differential stage,
common-source stage with Miller compensation, buffer — and the bench
builders wrap it with stimuli.  :func:`verify_opamp` runs the full
measurement suite (the "sim" columns of the paper's Tables 1, 3, 4).
"""

from __future__ import annotations

import math

from ..components.current_sources import DEFAULT_MIRROR_VOV
from ..devices import size_for_id_vov
from ..errors import SimulationError
from ..spice import (
    Circuit,
    PulseWave,
    ac_analysis,
    balance_differential,
    gain_at,
    measure_output_impedance,
    measure_slew_rate,
    transient_analysis,
    unity_gain_frequency,
)
from ..spice.ac import log_frequencies
from .estimator import OpAmp, SINK_BIAS_CURRENT

__all__ = [
    "PlacementMap",
    "place_opamp",
    "opamp_placement",
    "differential_drive",
    "open_loop_bench",
    "balanced_open_loop",
    "cmrr_benches",
    "step_bench",
    "verify_opamp",
]


#: Search variable -> the ``(element, field)`` pairs that carry its value.
PlacementMap = dict[str, tuple[tuple[str, str], ...]]


def place_opamp(
    opamp: OpAmp,
    circuit: Circuit,
    prefix: str,
    *,
    inp: str,
    inn: str,
    out: str,
    vdd: str,
    vss: str,
) -> PlacementMap:
    """Stamp the complete amplifier between the given nodes.

    Returns its placement map: each key of :meth:`OpAmp.initial_point`
    that the netlist carries verbatim — every device's
    ``<stage>.<role>.w`` and ``.l``, ``r.ref``, and ``cc`` and
    ``r.bias`` when the amplifier has them — names the ``(element,
    field)`` pairs holding its value.  Derived elements (the nulling
    resistor, the sink-bias diode) are not in it.
    """
    tech = opamp.tech
    placed: PlacementMap = {}

    def report(stage_name: str, roles: dict[str, tuple[str, ...]]) -> None:
        for role, elements in roles.items():
            for axis in ("w", "l"):
                placed[f"{stage_name}.{role}.{axis}"] = tuple(
                    (element, axis) for element in elements
                )
    nbias_a = f"{prefix}_nbias_a"
    tail = f"{prefix}_tail"

    # Bias branch A: resistor-programmed reference for the tail source.
    circuit.r(vdd, nbias_a, opamp.r_ref, name=f"{prefix}RREF")
    placed["r.ref"] = ((f"{prefix}RREF", "value"),)
    report("tail_source", opamp.stages["tail_source"].place(
        circuit, f"{prefix}TS", ref=nbias_a, out=tail, rail=vss
    ))

    # Differential stage.
    diff = opamp.stages["diff"]
    two_stage = opamp.two_stage
    if two_stage:
        d1 = f"{prefix}_d1"
        n2 = f"{prefix}_n2" if opamp.has_buffer else out
    else:
        d1 = f"{prefix}_d1" if opamp.has_buffer else out
        n2 = d1
    # Keep `inp` the non-inverting input of the whole amplifier: the
    # common-source second stage inverts, so a two-stage signal path
    # needs the differential inputs swapped at the pair.
    eff_inp, eff_inn = (inn, inp) if two_stage else (inp, inn)
    if type(diff).__name__ == "FoldedCascodeDiff":
        # The fold's internal bias rails are generated as ideal sources
        # (a real design would add a bias-distribution ladder; the
        # estimate accounts its branches in the power figure).
        bp, bpc, bnc = (
            f"{prefix}_vbp", f"{prefix}_vbpc", f"{prefix}_vbnc",
        )
        circuit.v(bp, "0", dc=diff.v_bias_p, name=f"{prefix}VBP")
        circuit.v(bpc, "0", dc=diff.v_bias_pc, name=f"{prefix}VBPC")
        circuit.v(bnc, "0", dc=diff.v_bias_nc, name=f"{prefix}VBNC")
        roles = diff.place(
            circuit, f"{prefix}DF",
            inp=eff_inp, inn=eff_inn, out=d1, tail=tail,
            vdd=vdd, vss=vss, bias_p=bp, bias_pc=bpc, bias_nc=bnc,
        )
    elif type(diff).__name__ == "DiffNmos":
        # Each diode-loaded side inverts; the single-ended pick-off at
        # ``outp`` (driven by the inn-side device) plus the stage-2
        # inversion makes ``inp`` non-inverting with the swap above.
        outn = f"{prefix}_d1n"
        roles = diff.place(
            circuit, f"{prefix}DF",
            inp=eff_inp, inn=eff_inn, outp=d1, outn=outn,
            tail=tail, vdd=vdd, vss=vss,
        )
    else:
        roles = diff.place(
            circuit, f"{prefix}DF",
            inp=eff_inp, inn=eff_inn, out=d1, tail=tail, vdd=vdd, vss=vss,
        )
    report("diff", roles)

    # Bias branch B: diode reference for the stage-2/buffer sinks.
    needs_sink_bias = "sink_bias" in opamp.currents
    nbias_b = f"{prefix}_nbias_b"
    if needs_sink_bias:
        bias_diode = size_for_id_vov(
            tech.nmos, tech, ids=SINK_BIAS_CURRENT, vov=DEFAULT_MIRROR_VOV
        )
        circuit.r(vdd, nbias_b, opamp.r_bias, name=f"{prefix}RBIASB")
        placed["r.bias"] = ((f"{prefix}RBIASB", "value"),)
        circuit.m(
            nbias_b, nbias_b, vss, vss,
            bias_diode.device.model, bias_diode.w, bias_diode.l,
            name=f"{prefix}MBIASB",
        )

    # Single-stage behind a buffer: dominant-pole capacitor at the
    # high-impedance diff output.
    if not two_stage and opamp.cc > 0:
        circuit.c(d1, vss, opamp.cc, name=f"{prefix}CCOMP")
        placed["cc"] = ((f"{prefix}CCOMP", "value"),)

    # Second stage with Miller compensation.
    if two_stage:
        report("stage2", opamp.stages["stage2"].place(
            circuit, f"{prefix}S2",
            **{"in": d1, "out": n2, "bias_load": nbias_b,
               "vdd": vdd, "vss": vss},
        ))
        if opamp.cc > 0:
            ncomp = f"{prefix}_comp"
            circuit.r(n2, ncomp, max(opamp.rz, 1e-3), name=f"{prefix}RZ")
            circuit.c(ncomp, d1, opamp.cc, name=f"{prefix}CC")
            placed["cc"] = ((f"{prefix}CC", "value"),)

    # Output buffer.
    if opamp.has_buffer:
        report("buffer", opamp.stages["buffer"].place(
            circuit, f"{prefix}BF",
            **{"in": n2, "out": out, "bias": nbias_b, "vdd": vdd, "vss": vss},
        ))
    return placed


def opamp_placement(opamp: OpAmp) -> PlacementMap:
    """The placement map of ``opamp`` as every bench here places it.

    The benches place the amplifier as ``X1``; element names depend on
    that prefix alone, so a scratch circuit gives the same map.
    """
    return place_opamp(
        opamp, Circuit(), "X1",
        inp="inp", inn="inn", out="out", vdd="vdd", vss="vss",
    )


def _bench_shell(opamp: OpAmp, title: str) -> Circuit:
    ckt = Circuit(title)
    ckt.v("vdd", "0", dc=opamp.tech.vdd, name="VDDSUP")
    ckt.v("vss", "0", dc=opamp.tech.vss, name="VSSSUP")
    return ckt


def _attach_loads(opamp: OpAmp, ckt: Circuit) -> None:
    ckt.c("out", "0", opamp.spec.cl, name="CLOAD")
    if math.isfinite(opamp.topology.z_load):
        ckt.r("out", "0", opamp.topology.z_load, name="RLOAD")


def differential_drive(v_diff: float, v_cm: float = 0.0) -> dict[str, float]:
    """DC values of the open-loop bench's input sources at one drive.

    ``v_diff`` is split symmetrically around the common mode ``v_cm``:
    ``VINP`` sits at ``v_cm + v_diff / 2`` and ``VINN`` at
    ``v_cm - v_diff / 2``.  No other element of the bench depends on
    the drive.
    """
    return {"VINP": v_cm + v_diff / 2.0, "VINN": v_cm - v_diff / 2.0}


def open_loop_bench(
    opamp: OpAmp,
    v_diff: float = 0.0,
    ac_mode: str = "differential",
    v_cm: float = 0.0,
) -> Circuit:
    """Open-loop bench: differential or common-mode AC drive.

    ``v_diff`` is the DC differential offset applied around the common
    mode ``v_cm`` (used by the balancing search).
    """
    if ac_mode not in ("differential", "common", "none"):
        raise SimulationError(f"unknown ac_mode {ac_mode!r}")
    acp, acn = {
        "differential": (0.5, -0.5),
        "common": (1.0, 1.0),
        "none": (0.0, 0.0),
    }[ac_mode]
    drive = differential_drive(v_diff, v_cm)
    ckt = _bench_shell(opamp, f"{opamp.name}-openloop-{ac_mode}")
    ckt.v("inp", "0", dc=drive["VINP"], ac=acp, name="VINP")
    ckt.v("inn", "0", dc=drive["VINN"], ac=acn, name="VINN")
    place_opamp(
        opamp, ckt, "X1", inp="inp", inn="inn", out="out", vdd="vdd", vss="vss"
    )
    _attach_loads(opamp, ckt)
    return ckt


def balanced_open_loop(opamp: OpAmp, target: float = 0.0):
    """Find the input offset centring the output; returns (vofs, ckt, op)."""
    return balance_differential(
        lambda v: open_loop_bench(opamp, v_diff=v),
        "out",
        target=target,
        v_span=0.5,
    )


def cmrr_benches(opamp: OpAmp, v_diff: float) -> tuple[Circuit, Circuit]:
    """Matched differential / common-mode benches at a balanced offset."""
    return (
        open_loop_bench(opamp, v_diff=v_diff, ac_mode="differential"),
        open_loop_bench(opamp, v_diff=v_diff, ac_mode="common"),
    )


def step_bench(
    opamp: OpAmp, step: float = 0.5, t_delay: float = 1e-7
) -> Circuit:
    """Unity-gain follower driven by a voltage step (slew-rate bench)."""
    ckt = _bench_shell(opamp, f"{opamp.name}-step")
    ckt.v(
        "inp", "0", dc=-step / 2.0,
        wave=PulseWave(
            v1=-step / 2.0, v2=step / 2.0, delay=t_delay,
            rise=1e-9, width=1.0,
        ),
        name="VINP",
    )
    # Unity-gain: the inverting input *is* the output node.
    place_opamp(
        opamp, ckt, "X1", inp="inp", inn="out", out="out", vdd="vdd", vss="vss"
    )
    _attach_loads(opamp, ckt)
    return ckt


def verify_opamp(
    opamp: OpAmp,
    *,
    measure_slew: bool = True,
    measure_zout: bool = True,
    measure_cmrr: bool = False,
) -> dict[str, float]:
    """Full-simulation measurement of a sized op-amp.

    Returns the "sim" counterparts of the paper's table columns:
    ``gain``, ``ugf``, ``dc_power``, ``gate_area``, plus optionally
    ``zout``, ``slew_rate`` and ``cmrr``.  Raises
    :class:`~repro.errors.SimulationError` when the amplifier cannot be
    biased or never crosses unity gain.
    """
    v_ofs, ckt, op = balanced_open_loop(opamp)
    f_hi = max(opamp.estimate.ugf * 30.0, 1e6)
    ac = ac_analysis(ckt, op=op, frequencies=log_frequencies(1.0, f_hi, 20))
    mag = ac.magnitude("out")
    results: dict[str, float] = {
        "gain": float(mag[0]),
        "ugf": unity_gain_frequency(ac, "out"),
        "input_offset": v_ofs,
    }
    # Power from the supply branch currents at the balanced OP.
    i_vdd = -op.i("VDDSUP")
    i_vss = -op.i("VSSSUP")
    results["dc_power"] = opamp.tech.vdd * i_vdd + opamp.tech.vss * i_vss
    results["gate_area"] = ckt.total_gate_area()
    if measure_zout:
        quiet = open_loop_bench(opamp, v_diff=v_ofs, ac_mode="none")
        results["zout"] = measure_output_impedance(quiet, "out", frequency=1e3)
    if measure_cmrr:
        bench_d, bench_c = cmrr_benches(opamp, v_ofs)
        adm = gain_at(bench_d, "out", 10.0)
        acm = gain_at(bench_c, "out", 10.0)
        results["cmrr"] = adm / max(acm, 1e-18)
    if measure_slew:
        t_unit = 1.0 / opamp.estimate.ugf
        bench = step_bench(opamp, step=0.5, t_delay=5 * t_unit)
        tran = transient_analysis(
            bench, t_stop=60 * t_unit, dt=t_unit / 4.0
        )
        results["slew_rate"] = measure_slew_rate(
            tran, "out", t_start=5 * t_unit, t_stop=40 * t_unit
        )
    return results
