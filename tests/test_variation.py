"""Process-corner and Monte Carlo mismatch tests."""

import random
import sys
from pathlib import Path

import pytest

from repro.errors import ApeError, TechnologyError
from repro.opamp import OpAmpSpec, coarse_design_opamp, design_opamp
from repro.opamp.benches import open_loop_bench
from repro.spice import Circuit, dc_operating_point
from repro.technology import generic_05um
from repro.variation import (
    CORNER_NAMES,
    MismatchModel,
    corner_sweep,
    derive_corner,
    monte_carlo,
    opamp_offset_spread,
    perturbed_circuit,
)
from repro.variation.montecarlo import derive_sample_seed
from tests import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import TABLE1  # noqa: E402

TECH = generic_05um()


class TestCorners:
    def test_tt_is_nominal(self):
        tt = derive_corner(TECH, "tt")
        assert tt.nmos.vto == TECH.nmos.vto
        assert tt.pmos.kp_effective == pytest.approx(TECH.pmos.kp_effective)

    def test_ss_raises_thresholds(self):
        ss = derive_corner(TECH, "ss")
        assert ss.nmos.vto > TECH.nmos.vto
        assert abs(ss.pmos.vto) > abs(TECH.pmos.vto)
        assert ss.nmos.kp_effective < TECH.nmos.kp_effective

    def test_ff_lowers_thresholds(self):
        ff = derive_corner(TECH, "ff")
        assert ff.nmos.vto < TECH.nmos.vto
        assert ff.nmos.kp_effective > TECH.nmos.kp_effective

    def test_sf_mixes(self):
        sf = derive_corner(TECH, "sf")
        assert sf.nmos.vto > TECH.nmos.vto  # slow NMOS
        assert abs(sf.pmos.vto) < abs(TECH.pmos.vto)  # fast PMOS

    def test_corner_names_all_derivable(self):
        for name in CORNER_NAMES:
            tech = derive_corner(TECH, name)
            assert tech.name.endswith(name)

    def test_unknown_corner_rejected(self):
        with pytest.raises(TechnologyError):
            derive_corner(TECH, "xx")

    def test_corner_sweep_of_device_current(self):
        """FF conducts more than TT conducts more than SS."""

        def drain_current(tech):
            ckt = Circuit("c")
            ckt.v("d", "0", dc=2.0)
            ckt.v("g", "0", dc=1.2)
            ckt.m("d", "g", "0", "0", tech.nmos, 10e-6, 1.2e-6, name="M1")
            op = dc_operating_point(ckt)
            return {"ids": op.mosfet_ops["M1"].ids}

        sweep = corner_sweep(TECH, drain_current, corners=("ss", "tt", "ff"))
        assert sweep["ss"]["ids"] < sweep["tt"]["ids"] < sweep["ff"]["ids"]

    def test_opamp_resized_per_corner(self):
        """APE re-sizes at each corner; the UGF spec holds everywhere."""
        spec = OpAmpSpec(gain=150.0, ugf=3e6, ibias=2e-6, cl=10e-12)

        def estimate(tech):
            amp = design_opamp(tech, spec, name="corner")
            return {"ugf": amp.estimate.ugf, "gain": amp.estimate.gain}

        sweep = corner_sweep(TECH, estimate)
        for corner, metrics in sweep.items():
            assert metrics["ugf"] >= 3e6 * 0.9, corner
            assert metrics["gain"] >= 150.0 * 0.9, corner


class TestMismatchModel:
    def test_pelgrom_scaling(self):
        mm = MismatchModel()
        small = mm.sigma_vt(1e-6, 1e-6)
        large = mm.sigma_vt(4e-6, 4e-6)
        assert small == pytest.approx(4 * large)

    def test_default_magnitudes(self):
        mm = MismatchModel()
        # A 10x1 um device: sigma_VT ~ 3 mV with the default 10 mV.um.
        assert mm.sigma_vt(10e-6, 1e-6) == pytest.approx(3.16e-3, rel=0.01)


class TestPerturbedCircuit:
    def make(self):
        ckt = Circuit("pc")
        ckt.v("d", "0", dc=2.0)
        ckt.v("g", "0", dc=1.2)
        ckt.m("d", "g", "0", "0", TECH.nmos, 10e-6, 1.2e-6, name="M1")
        return ckt

    def test_original_untouched(self):
        ckt = self.make()
        perturbed_circuit(ckt, random.Random(1))
        assert ckt.element("M1").model is TECH.nmos

    def test_models_shift(self):
        ckt = self.make()
        dup = perturbed_circuit(ckt, random.Random(1))
        assert dup.element("M1").model.vto != TECH.nmos.vto

    def test_polarity_preserved(self):
        ckt = Circuit("p")
        ckt.v("s", "0", dc=2.5)
        ckt.m("0", "g", "s", "s", TECH.pmos, 10e-6, 1.2e-6, name="MP")
        ckt.v("g", "0", dc=1.0)
        for seed in range(10):
            dup = perturbed_circuit(ckt, random.Random(seed))
            assert dup.element("MP").model.vto < 0

    def test_deterministic_for_rng(self):
        ckt = self.make()
        a = perturbed_circuit(ckt, random.Random(7)).element("M1").model.vto
        b = perturbed_circuit(ckt, random.Random(7)).element("M1").model.vto
        assert a == b

    @pytest.mark.parametrize("row", TABLE1, ids=lambda row: row.name)
    def test_cards_from_normals_equal_direct_draws(self, row):
        """Drawing every MOSFET's normals first and deriving its card
        from them gives the cards of drawing each shift directly at the
        device's own sigma, bit for bit, on every Table-1 bench (the
        sink-bias diode included)."""
        template, _ = coarse_design_opamp(
            TECH, row.spec(), row.topology(), name=row.name
        )
        bench = open_loop_bench(template)
        mismatch = MismatchModel()
        for seed in (derive_sample_seed(1, i) for i in range(3)):
            got = perturbed_circuit(bench, random.Random(seed), mismatch)
            want = oracles.perturbed_circuit(
                bench, random.Random(seed), mismatch
            )
            assert got.title == want.title
            assert [repr(e) for e in got] == [repr(e) for e in want]
            if "X1MBIASB" in bench:
                diode = got.element("X1MBIASB").model
                assert diode != bench.element("X1MBIASB").model


class TestMonteCarlo:
    def test_current_spread(self):
        ckt = Circuit("mc")
        ckt.v("d", "0", dc=2.0)
        ckt.v("g", "0", dc=1.2)
        ckt.m("d", "g", "0", "0", TECH.nmos, 10e-6, 1.2e-6, name="M1")

        def measure(sample):
            op = dc_operating_point(sample)
            return {"ids": op.mosfet_ops["M1"].ids}

        result = monte_carlo(ckt, measure, n=30, seed=3)
        assert len(result.samples) == 30
        assert result.failures == 0
        nominal = measure(ckt)["ids"]
        assert result.mean("ids") == pytest.approx(nominal, rel=0.1)
        assert 0.0 < result.sigma("ids") < 0.2 * nominal

    def test_yield_fraction(self):
        ckt = Circuit("mcy")
        ckt.v("d", "0", dc=2.0)
        ckt.v("g", "0", dc=1.2)
        ckt.m("d", "g", "0", "0", TECH.nmos, 10e-6, 1.2e-6, name="M1")

        def measure(sample):
            op = dc_operating_point(sample)
            return {"ids": op.mosfet_ops["M1"].ids}

        result = monte_carlo(ckt, measure, n=20, seed=3)
        assert result.yield_fraction(lambda s: s["ids"] > 0) == 1.0
        assert result.yield_fraction(lambda s: s["ids"] > 1.0) == 0.0

    def test_bad_n_rejected(self):
        ckt = Circuit("x")
        ckt.v("a", "0", dc=1.0)
        ckt.r("a", "0", 1e3)
        with pytest.raises(ApeError):
            monte_carlo(ckt, lambda c: {}, n=0)

    def test_empty_yield_rejected(self):
        from repro.variation.montecarlo import MonteCarloResult

        with pytest.raises(ApeError):
            MonteCarloResult().yield_fraction(lambda s: True)


class TestOpampOffsetSpread:
    def test_offset_distribution(self):
        amp = design_opamp(
            TECH, OpAmpSpec(gain=150.0, ugf=3e6, ibias=2e-6, cl=10e-12),
            name="mc-offset",
        )
        result = opamp_offset_spread(amp, n=12, seed=5)
        assert len(result.samples) >= 10
        sigma = result.sigma("offset")
        # Matched microamp pairs: a few mV of random offset.
        assert 1e-5 < sigma < 0.1
