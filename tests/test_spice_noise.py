"""Noise-analysis tests against closed-form results."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.opamp import coarse_design_opamp, open_loop_bench
from repro.spice import Circuit, dc_operating_point, noise, noise_analysis
from repro.spice.ac import log_frequencies
from repro.spice.noise import BOLTZMANN, GAMMA_SAT, TEMPERATURE
from repro.technology import generic_05um
from tests.oracles import mosfet_op_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import TABLE1  # noqa: E402

TECH = generic_05um()
KT4 = 4.0 * BOLTZMANN * TEMPERATURE


class TestResistorNoise:
    def test_single_resistor_density(self):
        # One grounded resistor driven by nothing: V_n^2 = 4kTR.
        ckt = Circuit("rn")
        ckt.v("in", "0", dc=0.0, name="VIN")
        ckt.r("in", "out", 10e3, name="R1")
        ckt.r("out", "0", 1e15, name="RBLEED")  # keep the node defined
        result = noise_analysis(ckt, "out", [1e3])
        assert result.output_psd[0] == pytest.approx(KT4 * 10e3, rel=0.01)

    def test_divider_parallel_combination(self):
        # Output noise of a divider = 4kT (R1 || R2).
        r1, r2 = 10e3, 30e3
        ckt = Circuit("div")
        ckt.v("in", "0", dc=1.0, name="VIN")
        ckt.r("in", "out", r1, name="R1")
        ckt.r("out", "0", r2, name="R2")
        result = noise_analysis(ckt, "out", [1e3])
        r_par = r1 * r2 / (r1 + r2)
        assert result.output_psd[0] == pytest.approx(KT4 * r_par, rel=1e-6)

    def test_white_spectrum(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        result = noise_analysis(ckt, "out", [1.0, 1e3, 1e6])
        assert np.allclose(result.output_psd, result.output_psd[0])

    def test_kt_over_c(self):
        # Integrated RC noise -> sqrt(kT/C), independent of R.
        r, c = 10e3, 1e-9
        ckt = Circuit("ktc")
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "out", r)
        ckt.c("out", "0", c)
        f_pole = 1.0 / (2 * math.pi * r * c)
        freqs = log_frequencies(f_pole / 1e3, f_pole * 1e3, 40)
        result = noise_analysis(ckt, "out", freqs)
        expected = math.sqrt(BOLTZMANN * TEMPERATURE / c)
        assert result.output_rms() == pytest.approx(expected, rel=0.05)

    def test_contributions_sum_to_total(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "out", 1e3, name="R1")
        ckt.r("out", "0", 2e3, name="R2")
        result = noise_analysis(ckt, "out", [1e3])
        total = sum(c[0] for c in result.contributions.values())
        assert total == pytest.approx(result.output_psd[0], rel=1e-9)

    def test_dominant_contributor(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "out", 1e3, name="RSMALL")
        ckt.r("out", "0", 100e3, name="RBIG")
        result = noise_analysis(ckt, "out", [1e3])
        # The small series resistor is shunted; the big one dominates?
        # Parallel combination: both see the same node impedance, the
        # *smaller* R has larger current PSD but identical |H|; its
        # share is proportional to 1/R -> RSMALL dominates.
        assert result.dominant_contributor() == "RSMALL"


class TestMosfetNoise:
    def make_cs(self):
        ckt = Circuit("csn")
        ckt.v("vdd", "0", dc=2.5, name="VDD")
        ckt.v("vin", "0", dc=0.9, name="VIN")
        ckt.r("vdd", "out", 20e3, name="RD")
        ckt.m("out", "vin", "0", "0", TECH.nmos, 10e-6, 1.2e-6, name="M1")
        return ckt

    def test_channel_thermal_noise_present(self):
        ckt = self.make_cs()
        result = noise_analysis(ckt, "out", [1e3])
        assert "M1" in result.contributions
        assert result.contributions["M1"][0] > 0

    def test_thermal_density_formula(self):
        ckt = self.make_cs()
        op = dc_operating_point(ckt)
        mop = op.mosfet_ops["M1"]
        r_out = 1.0 / (1.0 / 20e3 + mop.gds)
        expected_m1 = KT4 * GAMMA_SAT * mop.gm * r_out**2
        result = noise_analysis(ckt, "out", [1e3], op=op)
        assert result.contributions["M1"][0] == pytest.approx(
            expected_m1, rel=0.01
        )

    def test_input_referred_density(self):
        ckt = self.make_cs()
        op = dc_operating_point(ckt)
        mop = op.mosfet_ops["M1"]
        result = noise_analysis(
            ckt, "out", [1e3], input_source="VIN", op=op
        )
        # Input-referred floor ~ 4kT gamma / gm plus the RD share.
        floor = KT4 * GAMMA_SAT / mop.gm
        assert result.input_psd[0] >= floor * 0.9
        assert result.input_psd[0] < floor * 5.0

    def test_gain_matches_ac(self):
        from repro.spice import gain_at

        ckt = self.make_cs()
        op = dc_operating_point(ckt)
        ckt_ac = ckt.copy()
        from dataclasses import replace

        ckt_ac.replace(replace(ckt_ac.element("VIN"), ac=1.0))
        expected = gain_at(ckt_ac, "out", 1e3)
        result = noise_analysis(ckt, "out", [1e3], input_source="VIN", op=op)
        assert result.gain[0] == pytest.approx(expected, rel=1e-6)

    def test_flicker_noise_slope(self):
        kf_model = TECH.nmos.with_(extra={"kf": 1e-26, "af": 1.0})
        ckt = Circuit("flicker")
        ckt.v("vdd", "0", dc=2.5, name="VDD")
        ckt.v("vin", "0", dc=0.9, name="VIN")
        ckt.r("vdd", "out", 20e3, name="RD")
        ckt.m("out", "vin", "0", "0", kf_model, 10e-6, 1.2e-6, name="M1")
        result = noise_analysis(ckt, "out", [1.0, 10.0])
        m1 = result.contributions["M1"]
        # 1/f: decade up in frequency -> ~decade down in density (above
        # the thermal floor the ratio is slightly below 10).
        assert 3.0 < m1[0] / m1[1] <= 10.5

    def test_cutoff_device_is_quiet(self):
        ckt = Circuit()
        ckt.v("vdd", "0", dc=2.5, name="VDD")
        ckt.v("vin", "0", dc=0.0, name="VIN")  # below threshold
        ckt.r("vdd", "out", 20e3, name="RD")
        ckt.m("out", "vin", "0", "0", TECH.nmos, 10e-6, 1.2e-6, name="M1")
        result = noise_analysis(ckt, "out", [1e3])
        assert result.contributions["M1"][0] == 0.0


class TestNoiseErrors:
    def test_bad_frequency_rejected(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "0", 1e3)
        with pytest.raises(SimulationError):
            noise_analysis(ckt, "in", [-1.0])

    def test_unknown_output_rejected(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "0", 1e3)
        with pytest.raises(SimulationError):
            noise_analysis(ckt, "nowhere", [1e3])

    def test_input_source_must_be_voltage(self):
        ckt = Circuit()
        ckt.i("0", "in", dc=1e-3, name="IIN")
        ckt.r("in", "0", 1e3)
        with pytest.raises(SimulationError):
            noise_analysis(ckt, "in", [1e3], input_source="IIN")

    def test_rms_needs_band_points(self):
        ckt = Circuit()
        ckt.v("in", "0", name="VIN")
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        result = noise_analysis(ckt, "out", [1e3])
        with pytest.raises(SimulationError):
            result.output_rms()


class TestOpAmpNoise:
    def test_opamp_input_noise_reasonable(self):
        """Input-referred noise of an APE op-amp is nV-scale/sqrt(Hz)."""
        from repro.opamp import OpAmpSpec, design_opamp
        from repro.opamp.benches import balanced_open_loop

        amp = design_opamp(
            TECH, OpAmpSpec(gain=150.0, ugf=3e6, ibias=2e-6, cl=10e-12),
            name="noise-test",
        )
        _, bench, op = balanced_open_loop(amp)
        result = noise_analysis(
            bench, "out", [1e4], input_source="VINP", op=op
        )
        density = math.sqrt(result.input_psd[0])
        # Microamp-biased pairs: tens to hundreds of nV/sqrt(Hz).
        assert 1e-9 < density < 5e-6


def _with_flicker(bench: Circuit) -> Circuit:
    """A copy of ``bench`` whose MOSFET cards carry flicker KF and AF."""
    noisy = bench.copy()
    for mos in noisy.mosfets():
        card = mos.model.with_(extra={"kf": 1e-26, "af": 1.2})
        noisy.replace(dataclasses.replace(mos, model=card))
    return noisy


@pytest.mark.parametrize("row", TABLE1, ids=lambda row: row.name)
def test_mosfet_terms_come_from_the_scalar_evaluation(row, monkeypatch):
    """Noise results equal those from a table of four device-model
    evaluations per MOSFET (``evaluate_mosfet``, ``device.gm``,
    ``device.region``), bit for bit, on each Table-1 bench with flicker
    cards at zero drive and at ±0.5 V drives that rail the output."""
    template, _ = coarse_design_opamp(
        TECH, row.spec(), row.topology(), name=row.name
    )
    freqs = [1.0, 1e3, 1e6]
    for v_diff in (0.0, 0.5, -0.5):
        bench = _with_flicker(open_loop_bench(template, v_diff=v_diff))
        op = dc_operating_point(bench)
        result = noise_analysis(bench, "out", freqs, op=op)
        with monkeypatch.context() as patch:
            patch.setattr(noise, "_mosfet_op_table", mosfet_op_table)
            scalar = noise_analysis(bench, "out", freqs, op=op)
        assert np.array_equal(result.output_psd, scalar.output_psd)
        assert result.contributions.keys() == scalar.contributions.keys()
        for name, psd in scalar.contributions.items():
            assert np.array_equal(result.contributions[name], psd)
