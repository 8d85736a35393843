"""Asymptotic Waveform Evaluation (Pillage & Rohrer, IEEE TCAD 1990).

ASTRX/OBLX evaluates candidate circuits with AWE instead of full AC
sweeps (paper §3); this module implements the method on top of our MNA
matrices.  From the linearized system ``(G + sC) x = b`` the moments of
the output-node voltage are

    G m0 = b,      G mk = -C m(k-1)

and a q-pole Pade approximant ``H(s) = sum k_i / (s - p_i)`` is fitted
to the first 2q moments by solving the Hankel (Prony) system.  Moments
are computed in a normalized frequency variable to keep the Hankel
system well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import SimulationError
from ..runtime import faults
from . import linalg
from .dc import OperatingPointResult, dc_operating_point
from .engine import StampStack, linearize_ac
from .mna import system_for_op
from .netlist import Circuit

__all__ = [
    "AweApproximant",
    "awe_moments",
    "awe_poles",
    "awe_poles_stack",
    "awe_transfer",
]


@dataclass(frozen=True)
class AweApproximant:
    """A reduced-order pole/residue model of one transfer function."""

    poles: np.ndarray  # complex, [rad/s]
    residues: np.ndarray  # complex
    moments: np.ndarray  # raw (unnormalized) output moments

    @property
    def dc_gain(self) -> float:
        """H(0) = -sum(k_i / p_i) — equals the zeroth moment."""
        return float(np.real(-np.sum(self.residues / self.poles)))

    @property
    def dominant_pole_hz(self) -> float:
        """|Re| of the slowest stable pole, in Hz.

        For real poles this is the smallest pole magnitude; for a
        complex-conjugate pair the bandwidth-setting quantity is the
        decay rate |Re(p)|, not |p| — a high-Q pair has |p| near the
        resonance frequency while its response corner is set by the
        (much smaller) real part.
        """
        stable = self.poles[np.real(self.poles) < 0]
        if len(stable) == 0:
            raise SimulationError("AWE model has no stable poles")
        return float(np.min(np.abs(np.real(stable))) / (2.0 * np.pi))

    def evaluate(self, frequencies: np.ndarray | list[float]) -> np.ndarray:
        """Complex H(j 2 pi f) over a frequency grid [Hz]."""
        s = 2j * np.pi * np.asarray(frequencies, dtype=float)
        return np.sum(
            self.residues[None, :] / (s[:, None] - self.poles[None, :]),
            axis=1,
        )

    @cached_property
    def _terms(self) -> tuple[tuple[complex, complex], ...]:
        """(pole, residue) pairs as plain Python complex numbers.

        :meth:`response_at` and the unity-gain bisection evaluate |H|
        at one frequency at a time — the bisection about 55 times per
        candidate; for a handful of poles, scalar complex arithmetic
        beats broadcasting one-element numpy arrays by an order of
        magnitude, and the synthesis inner loop calls this for every
        candidate.
        """
        return tuple(
            (complex(p), complex(r))
            for p, r in zip(self.poles, self.residues)
        )

    def response_at(self, frequency: float) -> complex:
        """Complex H(j 2 pi f) at a single frequency [Hz] (scalar)."""
        s = 2j * math.pi * frequency
        total = 0j
        for pole, residue in self._terms:
            total += residue / (s - pole)
        return total

    def magnitude_at(self, frequency: float) -> float:
        """|H(j 2 pi f)| at a single frequency [Hz] (scalar fast path)."""
        return abs(self.response_at(frequency))

    def unity_gain_frequency(
        self, f_lo: float = 1.0, f_hi: float = 1e12
    ) -> float:
        """Frequency [Hz] where |H| crosses 1, by bisection on a log axis.

        At most 80 halvings; the loop stops early once a step leaves the
        bracket unchanged, because every later step would repeat it, so
        the result is the one 80 full steps return.  A local function
        evaluates |H| term for term as :meth:`response_at` does, without
        its method lookups.  Raises
        :class:`SimulationError` when |H| never crosses unity in the
        given range (e.g. DC gain below 1).
        """
        lo, hi = math.log10(f_lo), math.log10(f_hi)
        terms = self._terms
        omega_scale = 2j * math.pi

        def magnitude(log_f: float) -> float:
            s = omega_scale * 10.0**log_f
            total = 0j
            for pole, residue in terms:
                total += residue / (s - pole)
            return abs(total)

        if magnitude(lo) < 1.0:
            raise SimulationError("gain below unity at the low end")
        if magnitude(hi) > 1.0:
            raise SimulationError("gain above unity at the high end")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if magnitude(mid) > 1.0:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return 10.0 ** (0.5 * (lo + hi))


def awe_moments(
    circuit: Circuit,
    output_node: str,
    n_moments: int,
    op: OperatingPointResult | None = None,
) -> np.ndarray:
    """The first ``n_moments`` moments of the output-node voltage."""
    if op is None:
        op = dc_operating_point(circuit)
    system = system_for_op(circuit, op.system)
    # One linearization gives G, C and the AC source vector together.
    g_matrix, cmat, b = linearize_ac(system, op.x)
    b = np.real(b)
    out = system.index(output_node)
    if out < 0:
        raise SimulationError(f"unknown output node {output_node!r}")
    # One factorization serves all moment recursions; the backend
    # (dense LAPACK LU vs SuperLU) follows the solver mode and size.
    try:
        factor = linalg.factorize(g_matrix)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(
            f"{circuit.title}: singular conductance matrix in AWE"
        ) from exc
    moments = np.zeros(n_moments)
    vec = factor.solve(b)
    moments[0] = vec[out]
    for k in range(1, n_moments):
        vec = factor.solve(-cmat @ vec)
        moments[k] = vec[out]
    return moments


def _pade_from_moments(moments: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Prony/Hankel system for poles and residues.

    ``moments`` must hold at least ``2*order`` values.  Returns
    (poles, residues) in the same frequency units as the moments.
    """
    q = order
    mu = moments[: 2 * q]
    hankel = np.empty((q, q))
    for row in range(q):
        hankel[row] = mu[row : row + q]
    rhs = -mu[q : 2 * q]
    coeffs = np.linalg.solve(hankel, rhs)
    # b_i (= 1/p_i) are roots of z^q + a_{q-1} z^{q-1} + ... + a_0.
    if coeffs[0] != 0.0:
        # The companion matrix np.roots builds for a monic polynomial
        # without zero roots, built here without its trimming passes.
        companion = np.eye(q, k=-1)
        companion[0] = -coeffs[::-1]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.roots(np.concatenate(([1.0], coeffs[::-1])))
    roots = roots[np.abs(roots) > 1e-300]
    poles = 1.0 / roots
    # Residues: mu_j = sum_i c_i b_i^j for j = 0..q-1, c_i = -k_i / p_i.
    vander = np.vander(roots, N=len(roots), increasing=True).T
    c = np.linalg.solve(vander, mu[: len(roots)].astype(complex))
    residues = -c * poles
    return poles, residues


def awe_poles(
    circuit: Circuit,
    output_node: str,
    order: int = 2,
    op: OperatingPointResult | None = None,
) -> AweApproximant:
    """Fit a ``order``-pole AWE model of the AC response at a node.

    The circuit's AC sources define the stimulus.  When the requested
    order yields a singular Hankel matrix (fewer significant poles than
    asked for), the order is reduced automatically.
    """
    faults.check("spice.awe")
    if order < 1:
        raise SimulationError("AWE order must be >= 1")
    if op is None:
        op = dc_operating_point(circuit)
    moments = awe_moments(circuit, output_node, 2 * order + 2, op=op)
    return _fit(circuit.title, output_node, moments, order)


def _scaled(title: str, output_node: str, moments: np.ndarray):
    """``(tau, moments / tau**k)``: the frequency normalization."""
    if moments[0] == 0.0 and abs(moments[1]) == 0.0:
        raise SimulationError(
            f"{title}: zero response at {output_node!r} "
            "(is an AC source present?)"
        )
    # Normalize the frequency variable by the dominant time constant to
    # condition the Hankel system.
    if moments[0] != 0.0 and moments[1] != 0.0:
        tau = abs(moments[1] / moments[0])
    else:
        tau = abs(moments[2] / moments[1]) if moments[1] else 1.0
    tau = tau if tau > 0 else 1.0
    return tau, moments / tau ** np.arange(len(moments))


def _fit(
    title: str, output_node: str, moments: np.ndarray, order: int
) -> AweApproximant:
    """The Pade model of ``moments``, reducing the order as needed."""
    tau, scaled = _scaled(title, output_node, moments)
    for q in range(order, 0, -1):
        try:
            poles_n, residues_n = _pade_from_moments(scaled, q)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(poles_n)) and np.all(np.isfinite(residues_n)):
            return AweApproximant(
                poles=poles_n / tau,
                residues=residues_n / tau,
                moments=moments,
            )
    raise SimulationError(
        f"{title}: AWE moment matching failed at every order <= {order}"
    )


def awe_poles_stack(
    stack: StampStack,
    x: np.ndarray,
    members: list[int],
    output_node: str,
    order: int,
) -> dict[int, AweApproximant | None]:
    """:func:`awe_poles` of several members of ``stack``, fitted together.

    Row ``b`` of ``x`` is member ``b``'s operating point; the other rows
    must be finite.  One stacked linearization feeds every member's
    moment recursion — a :class:`~repro.spice.linalg.DenseFactor` per
    member and one stacked ``-C @ v`` per moment — and the Hankel
    solves and companion eigenvalues of the full order each run as one
    batched call.  numpy's rule that ``eigvals`` returns a real array
    only when every eigenvalue of the call is real is applied member by
    member, as a call of its own would apply it.  So each model is, bit
    for bit, the one ``awe_poles`` fits at the member's operating point
    on the dense backend.  ``None`` marks a member whose fit fails, for
    :func:`awe_poles` to raise its error.  No fault site is consulted.
    """
    moments = _moments_stack(stack, x, members, output_node, 2 * order + 2)
    scaled = {}
    for member, raw in moments.items():
        title = stack.systems[member].circuit.title
        try:
            scaled[member] = _scaled(title, output_node, raw)
        except SimulationError:
            continue  # awe_poles raises it
    pade = _pade_stack(
        {member: normalized for member, (_, normalized) in scaled.items()},
        order,
    )
    fits: dict[int, AweApproximant | None] = dict.fromkeys(members)
    for member, (tau, _) in scaled.items():
        fit = pade[member]
        if fit is not None and (
            np.all(np.isfinite(fit[0])) and np.all(np.isfinite(fit[1]))
        ):
            fits[member] = AweApproximant(
                poles=fit[0] / tau, residues=fit[1] / tau, moments=moments[member]
            )
            continue
        # A lower order, or a branch the batched calls do not take.
        title = stack.systems[member].circuit.title
        try:
            fits[member] = _fit(title, output_node, moments[member], order)
        except SimulationError:
            pass
    return fits


def _moments_stack(
    stack: StampStack,
    x: np.ndarray,
    members: list[int],
    output_node: str,
    n_moments: int,
) -> dict[int, np.ndarray]:
    """:func:`awe_moments` of several members of ``stack`` at ``x``.

    A member whose moments ``awe_moments`` would not return — an output
    at ground, a non-finite matrix or moment — is left out.
    """
    g, cmat, b = stack.linearize_ac(x)
    live = []
    for member in members:
        try:
            out = stack.systems[member].index(output_node)
            if out < 0:
                continue
            factor = linalg.DenseFactor(g[member])
            vec = factor.solve(np.real(b[member]))
        except (SimulationError, ValueError):
            continue
        live.append((member, factor, out, vec))
    moments = {member: np.zeros(n_moments) for member, *_ in live}
    if not live:
        return moments
    vecs = np.array([vec for *_, vec in live])
    neg_c = -cmat[[member for member, *_ in live]]
    for k in range(n_moments):
        if k:
            rhs = np.matmul(neg_c, vecs[:, :, None])[:, :, 0]
        for j, (member, factor, out, _vec) in enumerate(live):
            if member not in moments:
                continue
            if k:
                try:
                    vecs[j] = factor.solve(rhs[j])
                except ValueError:
                    del moments[member]
                    vecs[j] = 0.0
                    continue
            moments[member][k] = vecs[j, out]
    return moments


def _pade_stack(
    scaled: dict[int, np.ndarray], q: int
) -> dict[int, tuple[np.ndarray, np.ndarray] | None]:
    """:func:`_pade_from_moments` at order ``q`` of several members.

    One batched Hankel solve and one batched ``eigvals``; ``None``
    marks a member this cannot fit (a singular system anywhere in the
    batch, a non-monic companion, a singular Vandermonde system), which
    :func:`_pade_from_moments` itself then handles.
    """
    members = list(scaled)
    out: dict[int, tuple[np.ndarray, np.ndarray] | None] = dict.fromkeys(members)
    if not members:
        return out
    mu = np.array([scaled[member][: 2 * q] for member in members])
    hankel = np.empty((len(members), q, q))
    for row in range(q):
        hankel[:, row] = mu[:, row : row + q]
    try:
        coeffs = np.linalg.solve(hankel, -mu[:, q : 2 * q, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return out
    monic = [j for j in range(len(members)) if coeffs[j, 0] != 0.0]
    if not monic:
        return out
    companion = np.zeros((len(monic), q, q))
    companion[:] = np.eye(q, k=-1)
    companion[:, 0] = -coeffs[monic, ::-1]
    try:
        eigenvalues = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        return out
    for j, roots in zip(monic, eigenvalues):
        if (roots.imag == 0).all():
            roots = roots.real
        roots = roots[np.abs(roots) > 1e-300]
        poles = 1.0 / roots
        vander = np.vander(roots, N=len(roots), increasing=True).T
        try:
            c = np.linalg.solve(vander, mu[j, : len(roots)].astype(complex))
        except np.linalg.LinAlgError:
            continue
        out[members[j]] = (poles, -c * poles)
    return out


def awe_transfer(
    circuit: Circuit,
    output_node: str,
    frequencies: np.ndarray | list[float],
    order: int = 2,
    op: OperatingPointResult | None = None,
) -> np.ndarray:
    """AWE-approximated complex transfer function on a frequency grid."""
    return awe_poles(circuit, output_node, order=order, op=op).evaluate(
        frequencies
    )
