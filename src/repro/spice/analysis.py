"""Measurement helpers over simulation results.

These are the "simulate and measure" routines the paper's tables rely
on: DC gain, unity-gain frequency, -3 dB bandwidth, phase margin, slew
rate, output impedance and CMRR, plus a differential-input balancing
helper that centres an open-loop amplifier's output before AC analysis
(the real-world trick for simulating open-loop gain).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from ..errors import SimulationError
from ..runtime import faults
from .ac import ACResult, ac_analysis
from .dc import (
    Border,
    OperatingPointResult,
    _newton,
    _operating_point,
    dc_operating_point,
)
from .engine import stamps_for
from .mna import System
from .netlist import Circuit, CurrentSource, VoltageSource
from .transient import TransientResult

__all__ = [
    "find_crossing",
    "dc_gain",
    "gain_at",
    "unity_gain_frequency",
    "bandwidth_3db",
    "phase_margin",
    "measure_slew_rate",
    "measure_output_impedance",
    "measure_cmrr",
    "balance_differential",
]

#: Largest drive change of one bordered Newton iteration, as a share of
#: the balancing span.
DRIVE_STEP = 0.1


def find_crossing(
    x: np.ndarray, y: np.ndarray, target: float, log_x: bool = True
) -> float:
    """First x where ``y`` crosses ``target`` (downward or upward).

    Interpolates between samples (logarithmically in x when ``log_x``).
    Raises :class:`SimulationError` when no crossing exists.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    above = y >= target
    for k in range(len(y) - 1):
        if above[k] != above[k + 1]:
            y0, y1 = y[k], y[k + 1]
            frac = (target - y0) / (y1 - y0)
            if log_x:
                lx = math.log10(x[k]) + frac * (
                    math.log10(x[k + 1]) - math.log10(x[k])
                )
                return 10.0**lx
            return float(x[k] + frac * (x[k + 1] - x[k]))
    raise SimulationError(f"no crossing of {target:g} found")


def dc_gain(ac: ACResult, output_node: str) -> float:
    """|H| at the lowest analysed frequency (the low-frequency gain)."""
    return float(ac.magnitude(output_node)[0])


def gain_at(
    circuit: Circuit,
    output_node: str,
    frequency: float,
    op: OperatingPointResult | None = None,
) -> float:
    """|H| at one frequency; the circuit's AC sources are the stimulus."""
    ac = ac_analysis(circuit, op=op, frequencies=[frequency])
    return float(ac.magnitude(output_node)[0])


def unity_gain_frequency(ac: ACResult, output_node: str) -> float:
    """Frequency [Hz] where the magnitude response crosses 1."""
    return find_crossing(ac.frequencies, ac.magnitude(output_node), 1.0)


def bandwidth_3db(ac: ACResult, output_node: str) -> float:
    """-3 dB bandwidth [Hz] relative to the low-frequency gain."""
    mag = ac.magnitude(output_node)
    return find_crossing(ac.frequencies, mag, float(mag[0]) / math.sqrt(2.0))


def phase_margin(ac: ACResult, output_node: str) -> float:
    """Phase margin [deg] at the unity-gain crossover.

    Assumes the AC stimulus is the loop input so that the node response
    is the loop gain.
    """
    freqs = ac.frequencies
    mag = ac.magnitude(output_node)
    f_unity = find_crossing(freqs, mag, 1.0)
    # Unwrap before interpolating: a ±180° jump between the two samples
    # bracketing the crossover would otherwise be averaged into the
    # margin, throwing it off by up to 360°.  (``phase_deg`` unwraps as
    # well; doing it here keeps this measurement correct regardless of
    # how the phase array was produced.)
    phase = np.degrees(
        np.unwrap(np.radians(ac.phase_deg(output_node)))
    )
    ph_at = float(np.interp(np.log10(f_unity), np.log10(freqs), phase))
    # Measure the phase *shift* accumulated since DC so that an
    # inverting amplifier's built-in 180 degrees does not count as lag.
    return 180.0 + (ph_at - float(phase[0]))


def measure_slew_rate(
    tran: TransientResult,
    node: str,
    *,
    t_start: float = 0.0,
    t_stop: float | None = None,
) -> float:
    """Maximum |dV/dt| [V/s] of a node over a window of a transient run."""
    times = tran.times
    values = tran.v(node)
    mask = times >= t_start
    if t_stop is not None:
        mask &= times <= t_stop
    t = times[mask]
    v = values[mask]
    if len(t) < 3:
        raise SimulationError("too few transient points for slew measurement")
    dv = np.diff(v) / np.diff(t)
    return float(np.max(np.abs(dv)))


def measure_output_impedance(
    circuit: Circuit,
    output_node: str,
    frequency: float = 1e3,
    op: OperatingPointResult | None = None,
) -> float:
    """|Zout| [ohm] by injecting a 1 A AC probe current at the output.

    All existing AC stimuli are left in place but should be zero-AC for
    a clean measurement; the circuit itself is not modified (a copy is
    probed).
    """
    probe = circuit.copy(title=f"{circuit.title}-zout")
    probe.i("0", output_node, ac=1.0, name="IPROBE_ZOUT")
    if op is not None:
        # The probe adds no unknowns, so the OP still applies; re-solve
        # anyway to keep the result self-contained and safe.
        op = None
    ac = ac_analysis(probe, op=op, frequencies=[frequency])
    return float(ac.magnitude(output_node)[0])


def measure_cmrr(
    ac_differential: ACResult,
    ac_common: ACResult,
    output_node: str,
    frequency_index: int = 0,
) -> float:
    """CMRR = |Adm| / |Acm| from two AC runs with matched stimuli."""
    adm = ac_differential.magnitude(output_node)[frequency_index]
    acm = ac_common.magnitude(output_node)[frequency_index]
    if acm == 0.0:
        return math.inf
    return float(adm / acm)


def _drive_column(
    system: System, at_zero: Circuit, at_span: Circuit, v_span: float
) -> np.ndarray | None:
    """``dF/dv`` of the DC residual, or ``None`` when it is not affine.

    The drive is affine when the two builds differ only in
    independent-source ``dc`` values; the column is then the change of
    the compiled source vector per volt of drive.  Leaves ``system``
    bound to ``at_zero``.
    """
    zero, span = at_zero.elements, at_span.elements
    if len(zero) != len(span):
        return None
    for a, b in zip(zero, span):
        if a is b or a == b:
            continue
        if type(a) is not type(b) or not isinstance(
            b, (VoltageSource, CurrentSource)
        ):
            return None
        if replace(b, dc=a.dc) != a:
            return None
    system.rebind(at_span)
    src_span = stamps_for(system).src_dc.copy()
    system.rebind(at_zero)
    return (src_span - stamps_for(system).src_dc) / v_span


def _balance_bordered(
    build, output_node, target, v_span, tol, retry, system, x0, column
) -> tuple[float, Circuit, OperatingPointResult] | None:
    """The bordered-Newton balance, or ``None``.

    The converged vector is taken as the operating point of
    ``build(v)`` without another solve: Newton's residual gate tested
    ``F(x) + v * column``, which is ``build(v)``'s own residual because
    the drive enters only through source ``dc`` values.
    """
    if column is None:
        at_zero = build(0.0)
        system = System(at_zero) if system is None else system.rebind(at_zero)
        column = _drive_column(system, at_zero, build(v_span), v_span)
    else:
        at_zero = system.circuit
    index = system.index(output_node)
    if column is None or index < 0:
        return None
    gmin = 1e-12
    try:
        if x0 is None:
            x0 = dc_operating_point(at_zero, retry=retry, system=system).x
        border = Border(column, index, target, v_span, DRIVE_STEP * v_span)
        solved = _newton(system, np.append(x0, 0.0), gmin=gmin, border=border)
        if solved is None:
            return None
        x, iterations = solved
        v = float(x[-1])
        ckt = build(v)
        # The accepted point is a DC solution of ``ckt``, so it answers
        # to the DC solve's fault site like any other.
        faults.check("spice.dc")
        op = _operating_point(system.rebind(ckt), x[:-1], iterations, gmin)
    except SimulationError:
        return None
    if not abs(op.v(output_node) - target) < tol:
        return None
    return v, ckt, op


def balance_differential(
    build: Callable[[float], Circuit],
    output_node: str,
    target: float = 0.0,
    *,
    v_span: float = 0.2,
    tol: float = 1e-6,
    max_bisections: int = 60,
    retry=None,
    system: System | None = None,
    x0: np.ndarray | None = None,
    column: np.ndarray | None = None,
) -> tuple[float, Circuit, OperatingPointResult]:
    """Find the DC differential input that centres an amplifier's output.

    ``build(v_offset)`` must return a fresh circuit with the given DC
    differential drive.  The offset where ``V(output_node) == target``
    is the standard bias of a high-gain open-loop amplifier before AC
    analysis.

    One bordered Newton solve finds it first: its unknowns are the MNA
    vector plus the drive, its extra equation is ``V(output_node) ==
    target``, and the drive's Jacobian column comes from the compiled
    source vectors of ``build(0)`` and ``build(v_span)`` — exact,
    because the drive enters only through independent-source ``dc``
    values.  It starts from ``x0`` at zero drive: the zero-drive
    solution (solved here when not given) or any vector near the
    balanced point, such as a similar circuit's balanced solution.
    Newton's residual gate tests ``build(v)``'s own residual, so the
    converged vector is returned as the operating point of
    ``build(v)`` without another solve, once its output lies within
    ``tol`` of the target.

    When the bordered solve fails — no convergence, a drive outside
    ``[-v_span, +v_span]``, or builds that differ in more than source
    ``dc`` values — a bisection over ``[-v_span, +v_span]`` runs
    instead.  An optional :class:`~repro.runtime.retry.RetryPolicy` is
    forwarded to every DC solve.  Every ``build`` result shares one
    :class:`System` (they are the same topology at different drives);
    pass ``system`` to share an already-built one.  Every bisection's
    Newton solve starts from the previous bisection's solution, which
    keeps the search on one solution branch in multistable circuits.

    A caller that knows the drive column already passes it as
    ``column``: it depends only on which sources the drive moves and
    how, so it is the same for every circuit of one topology driven
    the same way.  The bordered solve then calls neither ``build(0)``
    nor ``build(v_span)``, and starts from ``system``, which must be
    given, bound to the zero-drive circuit.

    Returns ``(v_offset, circuit, op)`` at the balanced point.
    """
    if column is not None and system is None:
        raise ValueError("balance_differential: column= needs system=")
    balanced = _balance_bordered(
        build, output_node, target, v_span, tol, retry, system, x0, column
    )
    if balanced is not None:
        return balanced
    shared: list[System | None] = [system]
    x_last: list = [None]

    def output_at(vofs: float) -> tuple[float, Circuit, OperatingPointResult]:
        ckt = build(vofs)
        sys = shared[0]
        sys = System(ckt) if sys is None else sys.rebind(ckt)
        shared[0] = sys
        op = dc_operating_point(
            ckt, retry=retry, system=sys, x0=x_last[0]
        )
        x_last[0] = op.x
        return op.v(output_node) - target, ckt, op

    lo, hi = -v_span, v_span
    f_lo, ckt_lo, op_lo = output_at(lo)
    f_hi, ckt_hi, op_hi = output_at(hi)
    if f_lo == 0.0:
        return lo, ckt_lo, op_lo
    if f_hi == 0.0:
        return hi, ckt_hi, op_hi
    if f_lo * f_hi > 0:
        # No sign change: return whichever end is closer to the target.
        if abs(f_lo) <= abs(f_hi):
            return lo, ckt_lo, op_lo
        return hi, ckt_hi, op_hi
    sign_lo = math.copysign(1.0, f_lo)
    best = (lo, ckt_lo, op_lo, abs(f_lo))
    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        f_mid, ckt_mid, op_mid = output_at(mid)
        if abs(f_mid) < best[3]:
            best = (mid, ckt_mid, op_mid, abs(f_mid))
        if abs(f_mid) < tol or (hi - lo) < 1e-12:
            return mid, ckt_mid, op_mid
        if math.copysign(1.0, f_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    v_best, ckt_best, op_best, _ = best
    return v_best, ckt_best, op_best
