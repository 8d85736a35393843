"""Monte Carlo mismatch analysis.

Local (device-to-device) variation follows the Pelgrom law: the
standard deviation of a matched-pair parameter scales as
``A / sqrt(W L)``.  Each sample clones the circuit with every MOSFET's
model perturbed in threshold voltage and current factor, then runs a
caller-supplied measurement; the result collects per-sample metrics
with mean/sigma/yield summaries.

A sample is two standard normals per MOSFET, drawn in circuit order
(:func:`mismatch_normals`); a device's card is a function of its
unperturbed card, its W and L and its normals
(:func:`mismatched_model`), so a resize re-derives only its own card.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import ApeError, SimulationError
from ..spice import Circuit, Mosfet
from ..technology import MosModelParams

__all__ = [
    "MismatchModel",
    "MonteCarloResult",
    "derive_sample_seed",
    "mismatch_normals",
    "mismatched_model",
    "perturbed_circuit",
    "monte_carlo",
    "opamp_offset_spread",
]

#: Weyl increment (golden-ratio based), the same stride
#: :func:`repro.parallel.derive_chain_seed` uses per chain: consecutive
#: sample indices land far apart in seed space and sample 0 keeps the
#: master seed itself.
_SEED_STRIDE = 0x9E3779B97F4A7C15


def derive_sample_seed(master_seed: int, sample_index: int) -> int:
    """Deterministic per-sample seed; sample 0 is the master seed.

    Sample ``i``'s mismatch realization depends only on
    ``(master_seed, i)`` — never on how many samples ran before it, in
    which process, or in what order.  That makes chains x samples
    compose reproducibly: a Monte Carlo sample evaluated inside any
    annealing chain (or replayed from a run journal) perturbs the
    circuit identically everywhere.
    """
    if sample_index == 0:
        return master_seed
    return (master_seed + _SEED_STRIDE * sample_index) % 2**63


@dataclass(frozen=True)
class MismatchModel:
    """Pelgrom coefficients (typical 0.5 um CMOS values)."""

    #: Threshold mismatch coefficient [V m] (sigma_VT = a_vt / sqrt(WL)).
    a_vt: float = 10e-3 * 1e-6
    #: Current-factor mismatch coefficient [m] (relative sigma).
    a_beta: float = 0.01 * 1e-6

    def sigma_vt(self, w: float, l: float) -> float:
        return self.a_vt / math.sqrt(w * l)

    def sigma_beta(self, w: float, l: float) -> float:
        return self.a_beta / math.sqrt(w * l)


@dataclass
class MonteCarloResult:
    """Per-sample metrics plus summary statistics."""

    samples: list[dict[str, float]] = field(default_factory=list)
    failures: int = 0

    def values(self, key: str) -> list[float]:
        return [s[key] for s in self.samples if key in s]

    def mean(self, key: str) -> float:
        return statistics.fmean(self.values(key))

    def sigma(self, key: str) -> float:
        vals = self.values(key)
        return statistics.stdev(vals) if len(vals) > 1 else 0.0

    def yield_fraction(self, predicate: Callable[[dict[str, float]], bool]) -> float:
        """Fraction of all runs (including failures) passing a check."""
        total = len(self.samples) + self.failures
        if total == 0:
            raise ApeError("no Monte Carlo samples")
        passing = sum(1 for s in self.samples if predicate(s))
        return passing / total


def mismatch_normals(
    circuit: Circuit, rng: random.Random
) -> dict[str, tuple[float, float]]:
    """MOSFET name -> its ``(threshold, current factor)`` standard normals.

    Two draws per MOSFET, in circuit order: a circuit's sample depends
    on its element order and ``rng``, never on its geometry.
    """
    return {
        element.name: (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        for element in circuit
        if isinstance(element, Mosfet)
    }


def mismatched_model(
    model: MosModelParams,
    w: float,
    l: float,
    normals: tuple[float, float],
    mismatch: MismatchModel,
) -> MosModelParams:
    """``model`` perturbed for a ``w`` x ``l`` device by its two normals.

    Threshold shifts are additive Gaussians with Pelgrom sigma; the
    current factor is scaled by ``1 + N(0, sigma_beta)``.  The shift is
    applied toward weaker conduction when it would flip the sign of
    VTO (pathological only for near-zero-VT models).
    """
    z_vt, z_beta = normals
    # ``0.0 + z * sigma`` is what ``rng.gauss(0.0, sigma)`` returns for
    # the draw ``z``, so a card derived here is the one a direct draw
    # at this geometry gives, bit for bit.
    d_vt = 0.0 + z_vt * mismatch.sigma_vt(w, l)
    d_beta = 0.0 + z_beta * mismatch.sigma_beta(w, l)
    # The shift applies to the threshold *magnitude* so the model's
    # polarity constraint (NMOS VTO > 0 > PMOS VTO) is preserved.
    sign = 1.0 if model.vto >= 0 else -1.0
    return model.with_(
        vto=sign * max(abs(model.vto) + d_vt, 1e-3),
        kp=model.kp_effective * max(1.0 + d_beta, 0.01),
    )


def perturbed_circuit(
    circuit: Circuit,
    rng: random.Random,
    mismatch: MismatchModel | None = None,
) -> Circuit:
    """A copy of ``circuit`` with every MOSFET's model perturbed.

    Each MOSFET's card is :func:`mismatched_model` of its own card at
    its own geometry, by its normals of :func:`mismatch_normals`.
    """
    if mismatch is None:
        mismatch = MismatchModel()
    dup = circuit.copy(title=f"{circuit.title}-mc")
    for name, normals in mismatch_normals(circuit, rng).items():
        element = circuit.element(name)
        dup.replace(replace(element, model=mismatched_model(
            element.model, element.w, element.l, normals, mismatch
        )))
    return dup


def monte_carlo(
    circuit: Circuit,
    measure: Callable[[Circuit], dict[str, float]],
    *,
    n: int = 50,
    seed: int = 1,
    mismatch: MismatchModel | None = None,
) -> MonteCarloResult:
    """Run ``measure`` over ``n`` mismatch samples of ``circuit``.

    Samples whose measurement raises a simulation error count as
    ``failures`` (they matter for yield).  Sample ``i`` draws from a
    dedicated :class:`random.Random` seeded
    ``derive_sample_seed(seed, i)``, so each realization is a pure
    function of ``(seed, i)`` — not of the preceding samples — and the
    same sample evaluated from different workers or resumed runs is
    bit-for-bit identical.
    """
    if n < 1:
        raise ApeError("need at least one Monte Carlo sample")
    result = MonteCarloResult()
    for index in range(n):
        sample = perturbed_circuit(
            circuit, random.Random(derive_sample_seed(seed, index)), mismatch
        )
        try:
            result.samples.append(measure(sample))
        except (ApeError, SimulationError):
            result.failures += 1
    return result


def opamp_offset_spread(
    opamp,
    *,
    n: int = 30,
    seed: int = 1,
    mismatch: MismatchModel | None = None,
) -> MonteCarloResult:
    """Input-offset distribution of a sized op-amp under mismatch.

    Each sample rebuilds the open-loop bench with perturbed devices and
    finds the input offset that centres the output — the standard
    Monte Carlo offset simulation.
    """
    from ..opamp.benches import open_loop_bench
    from ..spice.analysis import balance_differential

    if mismatch is None:
        mismatch = MismatchModel()
    result = MonteCarloResult()
    for index in range(n):
        # One mismatch realization, shared by all bench rebuilds inside
        # the balancing search; derived per-sample so realization i is
        # the same no matter how many samples ran before it.
        sample_seed = derive_sample_seed(seed, index)

        def build(v_diff: float) -> Circuit:
            bench = open_loop_bench(opamp, v_diff=v_diff)
            return perturbed_circuit(
                bench, random.Random(sample_seed), mismatch
            )

        try:
            v_ofs, _, op = balance_differential(
                build, "out", target=0.0, v_span=0.5
            )
            result.samples.append(
                {"offset": v_ofs, "out": op.v("out")}
            )
        except (ApeError, SimulationError):
            result.failures += 1
    return result
