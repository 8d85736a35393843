"""Small-signal noise analysis.

Computes the output noise voltage spectral density of a circuit at a
designated node, summing the classical device noise sources:

* resistor thermal noise, ``i_n^2 = 4kT/R`` [A^2/Hz],
* MOSFET channel thermal noise, ``i_n^2 = 4kT gamma gm`` with
  ``gamma = 2/3`` in saturation (1 in triode),
* MOSFET flicker noise, ``i_n^2 = KF Id^AF / (f Cox Leff^2)`` when the
  model card carries ``KF``/``AF``.

Each source's transfer to the output is obtained with one *adjoint*
solve per frequency (``Y^T z = e_out``), so the cost is independent of
the number of noise sources — the textbook trick production simulators
use.  Input-referred density divides by the gain from a designated
input source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from . import linalg
from .dc import (
    MosfetOp,
    OperatingPointResult,
    _mosfet_op_table,
    dc_operating_point,
)
from .engine import linearize_ac, sparse_pattern_for
from .mna import system_for_op
from .netlist import Circuit, Mosfet, Resistor, VoltageSource

__all__ = ["NoiseResult", "noise_analysis", "BOLTZMANN", "TEMPERATURE"]

#: Boltzmann constant [J/K] and analysis temperature [K].
BOLTZMANN = 1.380649e-23
TEMPERATURE = 300.0
#: Channel thermal-noise coefficient in saturation (long-channel 2/3).
GAMMA_SAT = 2.0 / 3.0


@dataclass
class NoiseResult:
    """Noise densities over a frequency grid.

    ``output_psd`` is the total output noise voltage density [V^2/Hz];
    ``contributions`` maps element names to their share, and
    ``input_psd`` (when an input source was named) is referred to the
    input.
    """

    frequencies: np.ndarray
    output_psd: np.ndarray
    contributions: dict[str, np.ndarray] = field(default_factory=dict)
    gain: np.ndarray | None = None
    input_psd: np.ndarray | None = None

    def output_rms(self, f_lo: float | None = None, f_hi: float | None = None) -> float:
        """Integrated output noise [V rms] over [f_lo, f_hi].

        Trapezoidal integration of the density over the analysed grid
        (log-spaced grids are handled exactly as sampled).
        """
        freqs = self.frequencies
        psd = self.output_psd
        mask = np.ones(len(freqs), dtype=bool)
        if f_lo is not None:
            mask &= freqs >= f_lo
        if f_hi is not None:
            mask &= freqs <= f_hi
        if mask.sum() < 2:
            raise SimulationError("too few points in the integration band")
        return float(math.sqrt(np.trapezoid(psd[mask], freqs[mask])))

    def dominant_contributor(self, index: int = 0) -> str:
        """Element name with the largest share at one frequency point."""
        return max(
            self.contributions,
            key=lambda name: self.contributions[name][index],
        )


def _mosfet_noise_split(
    mos: Mosfet, l_eff: float, op: MosfetOp
) -> tuple[float, float]:
    """Split one device's drain-current noise at its operating point.

    Returns ``(thermal, flicker_coeff)`` so the PSD at any frequency is
    ``thermal + flicker_coeff / freq`` — the frequency-independent part
    is computed once per analysis instead of once per sweep point.
    """
    if op.gm <= 0:
        return 0.0, 0.0
    gamma = GAMMA_SAT if op.region == "saturation" else 1.0
    thermal = 4.0 * BOLTZMANN * TEMPERATURE * gamma * op.gm
    model = mos.model
    kf = model.extra.get("kf", 0.0)
    af = model.extra.get("af", 1.0)
    flicker_coeff = 0.0
    if kf > 0 and op.ids > 0:
        flicker_coeff = kf * op.ids**af / (model.cox * l_eff * l_eff)
    return thermal, flicker_coeff


def noise_analysis(
    circuit: Circuit,
    output_node: str,
    frequencies,
    *,
    input_source: str | None = None,
    op: OperatingPointResult | None = None,
) -> NoiseResult:
    """Output (and optionally input-referred) noise densities.

    ``input_source`` names a voltage source in the circuit whose
    transfer to the output defines the gain for input referral; it does
    not need a nonzero AC value.
    """
    if op is None:
        op = dc_operating_point(circuit)
    system = system_for_op(circuit, op.system)
    freqs = np.asarray(frequencies, dtype=float)
    if np.any(freqs <= 0):
        raise SimulationError("noise frequencies must be positive")
    out_idx = system.index(output_node)
    if out_idx < 0:
        raise SimulationError(f"unknown output node {output_node!r}")
    n_freq = len(freqs)
    output_psd = np.zeros(n_freq)
    contributions: dict[str, np.ndarray] = {}
    gain = np.zeros(n_freq) if input_source is not None else None
    if input_source is not None:
        element = circuit.element(input_source)
        if not isinstance(element, VoltageSource):
            raise SimulationError(
                f"{input_source!r} is not a voltage source"
            )
    e_out = np.zeros(system.size)
    e_out[out_idx] = 1.0
    # Everything except the 1/f flicker term is frequency-independent:
    # linearize once, precompute each noisy element's (constant PSD,
    # flicker coefficient, terminal indices), and per frequency do one
    # scale-and-add plus the adjoint solve.
    g_mat, c_mat, _ = linearize_ac(system, op.x)
    mosfet_ops = _mosfet_op_table(system, op.x)
    noisy: list[tuple[str, float, float, int, int]] = []
    for element in circuit:
        if isinstance(element, Resistor):
            psd_const = 4.0 * BOLTZMANN * TEMPERATURE / element.value
            noisy.append(
                (
                    element.name,
                    psd_const,
                    0.0,
                    system.index(element.n1),
                    system.index(element.n2),
                )
            )
        elif isinstance(element, Mosfet):
            thermal, flicker_coeff = _mosfet_noise_split(
                element,
                system.device(element.name).l_eff,
                mosfet_ops[element.name],
            )
            noisy.append(
                (
                    element.name,
                    thermal,
                    flicker_coeff,
                    system.index(element.nd),
                    system.index(element.ns),
                )
            )
    sparse = linalg.use_sparse(system.size)
    pattern = sparse_pattern_for(system) if sparse else None
    if sparse:
        g_data = pattern.gather(g_mat)
        c_data = pattern.gather(c_mat)
        e_out_c = e_out.astype(complex)
    for k, freq in enumerate(freqs):
        # Adjoint solve: z[a] is the output voltage produced by a unit
        # current injected into node a.
        try:
            if sparse:
                data = g_data + (2j * math.pi * freq) * c_data
                z = linalg.SparseFactor(pattern.csc(data)).solve_t(e_out_c)
            else:
                y = g_mat + (2j * math.pi * freq) * c_mat
                z = np.linalg.solve(y.T, e_out)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"{circuit.title}: singular noise system at {freq:g} Hz"
            ) from exc
        for name, psd_const, flicker_coeff, a, b in noisy:
            psd_i = psd_const
            if flicker_coeff:
                psd_i += flicker_coeff / freq
            za = z[a] if a >= 0 else 0.0
            zb = z[b] if b >= 0 else 0.0
            share = float(abs(za - zb) ** 2) * psd_i
            output_psd[k] += share
            contributions.setdefault(name, np.zeros(n_freq))[k] = share
        if input_source is not None:
            br = system.branch_index[input_source]
            # Branch-current adjoint entry = output response to a unit
            # voltage in series with that source.
            gain[k] = abs(z[br])
    input_psd = None
    if gain is not None:
        safe = np.maximum(gain, 1e-300)
        input_psd = output_psd / safe**2
    return NoiseResult(
        frequencies=freqs,
        output_psd=output_psd,
        contributions=contributions,
        gain=gain,
        input_psd=input_psd,
    )
