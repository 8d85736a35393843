"""Exact rational transfer-function extraction (pole/zero analysis).

The paper's related work leans on ISAAC-style symbolic simulation; this
module provides the numeric equivalent: the *exact* rational transfer
function of the linearized circuit, not a fitted approximation.

Method: with the MNA system ``(G + sC) x = b``, Cramer's rule gives

    H(s) = det(A_out(s)) / det(A(s)),   A(s) = G + sC

where ``A_out`` replaces the output-node column by ``b``.  Every matrix
entry is *linear* in ``s``, so both determinants are polynomials of
degree <= n.  Evaluating them at n+1 sample points and interpolating
recovers the coefficients exactly (up to floating point), after which
poles and zeros are polynomial roots — no moment truncation, no sweep
fitting.

Sample points are taken on a circle of radius ``1/tau`` (the dominant
time constant from the first two moments) for conditioning, and
trailing near-zero coefficients are trimmed against the leading ones.

The extraction interpolates on up to three circles: at the dominant
time constant; re-centred on the geometric mean of the pole magnitudes
the first one detects (which balances coefficient magnitudes when time
constants spread over many decades); and centred on the geometric mean
of the network's natural frequencies (the finite generalized
eigenvalues of ``G x = -s C x``), for spreads so wide that the first
circle detects noise.  The candidate that best matches direct complex
solves at off-sample points, around every circle and at every natural
frequency, wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ..errors import SimulationError
from .dc import OperatingPointResult, dc_operating_point
from .engine import linearize_ac
from .netlist import Circuit

__all__ = ["RationalTransfer", "extract_transfer_function"]

#: Coefficients smaller than this (relative to the largest) are noise.
COEFF_TRIM = 1e-9


@dataclass(frozen=True)
class RationalTransfer:
    """H(s) = N(s)/D(s) with coefficients in ascending powers of s."""

    numerator: np.ndarray
    denominator: np.ndarray

    @property
    def dc_gain(self) -> float:
        if self.denominator[0] == 0.0:
            return math.inf
        return float(self.numerator[0] / self.denominator[0])

    @property
    def order(self) -> int:
        """Denominator degree (number of poles)."""
        return len(self.denominator) - 1

    def poles(self) -> np.ndarray:
        """Denominator roots [rad/s], sorted by magnitude."""
        roots = np.roots(self.denominator[::-1])
        return roots[np.argsort(np.abs(roots))]

    def zeros(self) -> np.ndarray:
        """Numerator roots [rad/s], sorted by magnitude."""
        if len(self.numerator) < 2:
            return np.array([], dtype=complex)
        roots = np.roots(self.numerator[::-1])
        return roots[np.argsort(np.abs(roots))]

    def evaluate(self, frequencies) -> np.ndarray:
        """Complex H(j 2 pi f) over a frequency grid [Hz]."""
        s = 2j * np.pi * np.asarray(frequencies, dtype=float)
        num = np.polyval(self.numerator[::-1], s)
        den = np.polyval(self.denominator[::-1], s)
        return num / den

    def dominant_pole_hz(self) -> float:
        """|Re| of the slowest stable pole, in Hz.

        Same semantics as ``AweApproximant.dominant_pole_hz``: for a
        complex-conjugate pair the corner is set by the decay rate
        |Re(p)|, not the pole magnitude.
        """
        stable = [p for p in self.poles() if p.real < 0]
        if not stable:
            raise SimulationError("no stable poles")
        return float(min(abs(p.real) for p in stable) / (2.0 * math.pi))

    def is_stable(self) -> bool:
        return bool(np.all(np.real(self.poles()) < 1e-6))


def _trim(coeffs: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return coeffs[:1]
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) < COEFF_TRIM * scale:
        keep -= 1
    return coeffs[:keep]


def extract_transfer_function(
    circuit: Circuit,
    output_node: str,
    op: OperatingPointResult | None = None,
) -> RationalTransfer:
    """Exact H(s) from the circuit's AC sources to ``output_node``.

    The circuit's AC stimuli define the input (as in
    :func:`~repro.spice.ac.transfer_function`); the result is the full
    rational function with every pole and zero of the linearized
    network.
    """
    if op is None:
        op = dc_operating_point(circuit)
    system = op.system
    out = system.index(output_node)
    if out < 0:
        raise SimulationError(f"unknown output node {output_node!r}")
    g_matrix, c_matrix, b = linearize_ac(system, op.x)
    b = np.real(b)
    if not np.any(b):
        raise SimulationError(
            f"{circuit.title}: no AC stimulus (set ac= on a source)"
        )
    n = system.size
    # Conditioning: sample s on a circle of radius ~1/tau where tau is
    # the dominant time constant from the first two moments.
    try:
        m0 = np.linalg.solve(g_matrix, b)
        m1 = np.linalg.solve(g_matrix, -c_matrix @ m0)
        tau = abs(m1[out] / m0[out]) if m0[out] != 0 else 0.0
    except np.linalg.LinAlgError:
        tau = 0.0
    if not math.isfinite(tau) or tau <= 0:
        tau = 1e-9
    n_pts = n + 1

    def interpolate(radius: float) -> RationalTransfer:
        # n+1 points for degree-n polynomials; complex roots of unity
        # give a perfectly conditioned (DFT) interpolation.
        angles = 2.0 * np.pi * np.arange(n_pts) / n_pts
        samples = radius * np.exp(1j * angles)
        det_den = np.empty(n_pts, dtype=complex)
        det_num = np.empty(n_pts, dtype=complex)
        for k, s in enumerate(samples):
            a = g_matrix + s * c_matrix
            det_den[k] = np.linalg.det(a)
            a_out = a.copy()
            a_out[:, out] = b
            det_num[k] = np.linalg.det(a_out)
        # With p_j = sum_k (c_k r^k) e^{+2 pi i jk/n}, the coefficient
        # vector is the *forward* DFT of the samples divided by n.
        den_scaled = _trim(np.real(np.fft.fft(det_den)) / n_pts)
        num_scaled = _trim(np.real(np.fft.fft(det_num)) / n_pts)
        # Degree detection happens in the scaled basis (s/radius) where
        # genuine coefficients are comparable in magnitude.
        den = den_scaled / radius ** np.arange(len(den_scaled))
        num = num_scaled / radius ** np.arange(len(num_scaled))
        scale = float(np.max(np.abs(den)))
        if scale == 0.0:
            raise SimulationError("singular network: zero denominator")
        return RationalTransfer(numerator=num / scale, denominator=den / scale)

    def fit_error(tf: RationalTransfer, probes: list[complex]) -> float:
        # Consistency against direct complex solves at off-sample points.
        err = 0.0
        for s in probes:
            ref = np.linalg.solve(g_matrix + s * c_matrix, b)[out]
            approx = np.polyval(
                tf.numerator[::-1], s
            ) / np.polyval(tf.denominator[::-1], s)
            denom = max(abs(ref), 1e-12)
            err += abs(approx - ref) / denom
        return err

    # Candidate circles: the dominant time constant; the geometric mean
    # of the pole magnitudes the first pass detects, which balances the
    # coefficient magnitudes when the time constants spread over many
    # decades; and the geometric mean of the network's natural
    # frequencies, for spreads so wide that the first pass detects
    # noise instead of poles.
    radii = [1.0 / tau]
    first = interpolate(radii[0])
    candidates = [first]
    natural = _natural_frequencies(g_matrix, c_matrix)
    for magnitudes in (_magnitudes(first.poles()), natural):
        if len(magnitudes) > 0:
            radius = float(np.exp(np.mean(np.log(magnitudes))))
            if radius > 0 and math.isfinite(radius):
                radii.append(radius)
                candidates.append(interpolate(radius))
    # Every candidate is checked at the same points: around each circle
    # and at each natural frequency, where a dropped pole shows.
    probes = [1j * r * f for r in radii for f in (0.11, 1.7, 9.3)]
    probes += [1j * m for m in natural]
    errors = [fit_error(candidate, probes) for candidate in candidates]
    return candidates[errors.index(min(errors))]


def _magnitudes(roots: np.ndarray) -> np.ndarray:
    """Magnitudes of the finite, non-zero ``roots``."""
    return np.abs(roots[np.isfinite(roots) & (np.abs(roots) > 0)])


def _natural_frequencies(g_matrix: np.ndarray, c_matrix: np.ndarray) -> np.ndarray:
    """Magnitudes of the finite, non-zero roots of det(G + sC).

    The generalized eigenvalues of ``G x = -s C x`` (QZ); a singular C
    contributes infinite ones, which are dropped.
    """
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = scipy.linalg.eigvals(g_matrix, -c_matrix)
    except (np.linalg.LinAlgError, ValueError):
        return np.empty(0)
    return _magnitudes(roots)
