"""Transient (time-domain) analysis.

Fixed-step integration with Newton iteration at every time point,
each step damped and gated as the DC solver's.  Explicit capacitors
use the trapezoidal companion model; MOSFET parasitic capacitances use
backward Euler (their values are bias-dependent, and BE's damping
keeps the nonlinear loop robust); inductors use the trapezoidal branch
companion.  A failing step is retried at half the step size a few
times before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .dc import OperatingPointResult, _step, dc_operating_point
from .engine import assemble_tran, solve_assembled
from .mna import System, system_for_op
from .netlist import Capacitor, Circuit

__all__ = ["TransientResult", "transient_analysis"]


@dataclass
class TransientResult:
    """Sampled waveforms from a transient run."""

    system: System
    times: np.ndarray
    solutions: np.ndarray  # shape (n_times, n_unknowns)

    def v(self, node: str) -> np.ndarray:
        idx = self.system.index(node)
        if idx < 0:
            return np.zeros(len(self.times))
        return self.solutions[:, idx]

    def branch_current(self, name: str) -> np.ndarray:
        return self.solutions[:, self.system.branch_index[name]]

    def at(self, node: str, t: float) -> float:
        """Linearly interpolated node voltage at time ``t``."""
        return float(np.interp(t, self.times, self.v(node)))


def _newton_tran(
    system: System,
    x_prev: np.ndarray,
    cap_currents: dict[str, float],
    t: float,
    h: float,
    gmin: float,
    max_iter: int = 60,
) -> np.ndarray | None:
    """One time point's Newton run from ``x_prev``; None when it fails.

    Each step is damped and gated by the DC solver's :func:`_step`.
    """
    x = x_prev.copy()
    for _ in range(max_iter):
        res, jac = assemble_tran(system, x, x_prev, cap_currents, t, h, gmin)
        try:
            dx = solve_assembled(system, jac, -res, kind="tran", key=(h, gmin))
        except np.linalg.LinAlgError:
            return None
        verdict = _step(x, dx, res, jac, system.n_nodes)
        if verdict is not None:
            return x if verdict else None
    return None


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    *,
    op: OperatingPointResult | None = None,
    gmin: float = 1e-12,
) -> TransientResult:
    """Integrate the circuit from its DC operating point to ``t_stop``.

    ``dt`` is the nominal step; individual steps are halved (up to 6
    times) when Newton fails.  Waveform sources start from their
    ``value_at(0)``, so let the DC values match the waveforms' t=0
    values for a clean start.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise SimulationError(f"bad transient range t_stop={t_stop}, dt={dt}")
    if op is None:
        op = dc_operating_point(circuit, gmin=gmin)
    system = system_for_op(circuit, op.system)
    times = [0.0]
    solutions = [op.x.copy()]
    cap_currents: dict[str, float] = {
        e.name: 0.0 for e in circuit if isinstance(e, Capacitor)
    }
    t = 0.0
    x_prev = op.x.copy()
    while t < t_stop - 1e-15:
        step = min(dt, t_stop - t)
        halvings = 0
        while True:
            x_new = _newton_tran(
                system, x_prev, cap_currents, t + step, step, gmin
            )
            if x_new is not None:
                break
            step /= 2.0
            halvings += 1
            if halvings > 6:
                raise ConvergenceError(
                    f"{circuit.title}: transient step failed at t={t:g}s "
                    f"even at dt={step:g}s"
                )
        # Update trapezoidal capacitor currents.
        for element in circuit:
            if isinstance(element, Capacitor) and element.value > 0.0:
                a, b = system.index(element.n1), system.index(element.n2)
                v_new = (x_new[a] if a >= 0 else 0.0) - (
                    x_new[b] if b >= 0 else 0.0
                )
                v_old = (x_prev[a] if a >= 0 else 0.0) - (
                    x_prev[b] if b >= 0 else 0.0
                )
                geq = 2.0 * element.value / step
                cap_currents[element.name] = geq * (v_new - v_old) - cap_currents[
                    element.name
                ]
        t += step
        times.append(t)
        solutions.append(x_new)
        x_prev = x_new
    return TransientResult(
        system=system,
        times=np.asarray(times),
        solutions=np.asarray(solutions),
    )
