"""Small-signal AC analysis.

Linearizes the circuit at a DC operating point and solves the complex
MNA system over a frequency grid.  The usual measurement workflow is::

    op = dc_operating_point(ckt)
    ac = ac_analysis(ckt, op, frequencies)
    gain = ac.magnitude("out")      # with a 1 V AC input source

or :func:`transfer_function` for a single-call H(f).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from . import linalg
from .dc import OperatingPointResult, dc_operating_point
from .engine import linearize_ac, sparse_pattern_for
from .mna import System, system_for_op
from .netlist import Circuit

__all__ = ["ACResult", "ac_analysis", "transfer_function", "log_frequencies"]


def log_frequencies(
    f_start: float, f_stop: float, points_per_decade: int = 20
) -> np.ndarray:
    """Logarithmic frequency grid [Hz], inclusive of both endpoints."""
    if f_start <= 0 or f_stop <= f_start:
        raise SimulationError(
            f"bad frequency range [{f_start}, {f_stop}]"
        )
    decades = np.log10(f_stop / f_start)
    n = max(int(round(decades * points_per_decade)) + 1, 2)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


@dataclass
class ACResult:
    """Frequency response: complex node voltages per frequency."""

    system: System
    frequencies: np.ndarray
    solutions: np.ndarray  # shape (n_freq, n_unknowns), complex

    def phasor(self, node: str) -> np.ndarray:
        """Complex voltage of ``node`` across the sweep."""
        idx = self.system.index(node)
        if idx < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.solutions[:, idx]

    def differential(self, node_p: str, node_n: str) -> np.ndarray:
        return self.phasor(node_p) - self.phasor(node_n)

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.phasor(node))

    def magnitude_db(self, node: str) -> np.ndarray:
        mag = self.magnitude(node)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, node: str) -> np.ndarray:
        """Unwrapped phase in degrees."""
        return np.degrees(np.unwrap(np.angle(self.phasor(node))))

    def branch_current(self, name: str) -> np.ndarray:
        idx = self.system.branch_index[name]
        return self.solutions[:, idx]


def ac_analysis(
    circuit: Circuit,
    op: OperatingPointResult | None = None,
    frequencies: np.ndarray | list[float] | None = None,
) -> ACResult:
    """Solve the linearized circuit at each frequency.

    ``op`` defaults to a fresh DC solution; ``frequencies`` defaults to
    1 Hz .. 1 GHz at 20 points/decade.
    """
    if op is None:
        op = dc_operating_point(circuit)
    if frequencies is None:
        frequencies = log_frequencies(1.0, 1e9)
    freqs = np.asarray(frequencies, dtype=float)
    if np.any(freqs <= 0):
        raise SimulationError("AC frequencies must be positive")
    system = system_for_op(circuit, op.system)
    solutions = np.zeros((len(freqs), system.size), dtype=complex)
    # Sweep-level cache: linearize once at the operating point, then
    # each frequency point is one scale-and-add plus one solve.
    g, c, b = linearize_ac(system, op.x)
    if linalg.use_sparse(system.size):
        # The symbolic structure (one CSC pattern from the compiled
        # scatter positions) is shared by every frequency point; per
        # point only the numeric values move.
        pattern = sparse_pattern_for(system)
        g_data = pattern.gather(g)
        c_data = pattern.gather(c)
        for k, freq in enumerate(freqs):
            data = g_data + (2j * np.pi * freq) * c_data
            try:
                solutions[k] = linalg.sparse_solve(pattern.csc(data), b)
            except np.linalg.LinAlgError as exc:
                raise SimulationError(
                    f"{circuit.title}: singular AC system at {freq:g} Hz"
                ) from exc
        return ACResult(system=system, frequencies=freqs, solutions=solutions)
    for k, freq in enumerate(freqs):
        y = g + (2j * np.pi * freq) * c
        try:
            solutions[k] = np.linalg.solve(y, b)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"{circuit.title}: singular AC system at {freq:g} Hz"
            ) from exc
    return ACResult(system=system, frequencies=freqs, solutions=solutions)


def transfer_function(
    circuit: Circuit,
    output_node: str,
    frequencies: np.ndarray | list[float],
    op: OperatingPointResult | None = None,
    output_node_n: str | None = None,
) -> np.ndarray:
    """Complex H(f) from the circuit's AC sources to ``output_node``.

    The circuit must contain exactly the AC stimulus you intend (one or
    more sources with nonzero ``ac``); with a single unit-magnitude
    source the result is the canonical transfer function.
    """
    result = ac_analysis(circuit, op=op, frequencies=frequencies)
    if output_node_n is not None:
        return result.differential(output_node, output_node_n)
    return result.phasor(output_node)
