"""SPICE Level-2/3 model refinements: mobility degradation and
velocity saturation."""

import pytest

from repro.devices import MosDevice
from repro.technology import MosModelParams, MosPolarity, parse_model_card

LEVEL1 = MosModelParams(
    polarity=MosPolarity.NMOS, level=1, vto=0.7, kp=110e-6,
    lambda_=0.04, tox=14e-9,
)
LEVEL2_THETA = LEVEL1.with_(level=2, theta=0.3)
LEVEL3_VSAT = LEVEL1.with_(level=3, theta=0.1, vmax=1.0e5, u0=0.046)


def dev(model, w=10e-6, l=1.2e-6):
    return MosDevice(model, w, l)


class TestMobilityDegradation:
    def test_theta_reduces_current_at_high_vov(self):
        i1 = dev(LEVEL1).ids(2.0, 2.5)
        i2 = dev(LEVEL2_THETA).ids(2.0, 2.5)
        assert i2 < i1

    def test_theta_negligible_at_low_vov(self):
        i1 = dev(LEVEL1).ids(0.8, 2.5)
        i2 = dev(LEVEL2_THETA).ids(0.8, 2.5)
        assert i2 == pytest.approx(i1, rel=0.05)

    def test_theta_follows_formula(self):
        vov = 1.3
        expected = dev(LEVEL1).ids(2.0, 2.5) / (1.0 + 0.3 * vov)
        assert dev(LEVEL2_THETA).ids(2.0, 2.5) == pytest.approx(
            expected, rel=1e-9
        )

    def test_gm_still_matches_numeric_derivative(self):
        d = dev(LEVEL2_THETA)
        h = 1e-6
        numeric = (d.ids(1.5 + h, 2.0) - d.ids(1.5 - h, 2.0)) / (2 * h)
        # theta makes the analytic gm approximate; 10 % is the model's
        # documented accuracy for these operating points.
        assert d.gm(1.5, 2.0) == pytest.approx(numeric, rel=0.1)


class TestVelocitySaturation:
    def test_vdsat_reduced(self):
        d1, d3 = dev(LEVEL1), dev(LEVEL3_VSAT)
        vov = 1.3
        assert d3.law(0.0).vdsat(vov) < d1.law(0.0).vdsat(vov)

    def test_vdsat_blend_formula(self):
        d3 = dev(LEVEL3_VSAT)
        vov = 1.0
        vc = LEVEL3_VSAT.vmax * d3.l_eff / LEVEL3_VSAT.u0
        assert d3.law(0.0).vdsat(vov) == pytest.approx(vov * vc / (vov + vc))

    def test_short_channel_saturates_earlier(self):
        long_ch = MosDevice(LEVEL3_VSAT, 10e-6, 5e-6)
        short_ch = MosDevice(LEVEL3_VSAT, 10e-6, 0.8e-6)
        assert short_ch.law(0.0).vdsat(1.0) < long_ch.law(0.0).vdsat(1.0)

    def test_region_uses_reduced_vdsat(self):
        d3 = dev(LEVEL3_VSAT)
        vov = 1.3
        # Pick vds between the reduced vdsat and vov: Level 1 would call
        # this triode; Level 3 is already saturated.
        vds = 0.5 * (d3.law(0.0).vdsat(vov) + vov)
        assert d3.law(0.0).vdsat(vov) < vds < vov
        assert d3.region(0.7 + vov, vds).value == "saturation"

    def test_current_continuous_at_reduced_vdsat(self):
        d3 = dev(LEVEL3_VSAT)
        vgs = 2.0
        vdsat = d3.law(0.0).vdsat(d3.overdrive(vgs))
        below = d3.ids(vgs, vdsat - 1e-9)
        above = d3.ids(vgs, vdsat + 1e-9)
        assert below == pytest.approx(above, rel=1e-5)


class TestLevel3CardEndToEnd:
    CARD = """
    .MODEL MN3 NMOS (LEVEL=3 VTO=0.7 KP=110E-6 GAMMA=0.45 PHI=0.7
    + LAMBDA=0.04 TOX=1.4E-8 THETA=0.12 VMAX=1.5E5 U0=460)
    """

    def test_card_parses_level3(self):
        model = parse_model_card(self.CARD)
        assert model.level == 3
        assert model.theta == pytest.approx(0.12)
        assert model.vmax == pytest.approx(1.5e5)

    def test_level3_simulates(self):
        from repro.spice import Circuit, dc_operating_point

        model = parse_model_card(self.CARD)
        ckt = Circuit("l3")
        ckt.v("d", "0", dc=2.0)
        ckt.v("g", "0", dc=1.5)
        ckt.m("d", "g", "0", "0", model, 10e-6, 1.2e-6, name="M1")
        op = dc_operating_point(ckt)
        assert op.mosfet_ops["M1"].ids > 0

    def test_level3_sizing_accounts_degradation(self):
        """Sizing at high overdrive on a Level-3 card yields a wider
        device than the same spec on Level 1 (it compensates theta)."""
        from repro.devices import size_for_id_vov
        from repro.technology import generic_05um

        tech = generic_05um()
        model3 = parse_model_card(self.CARD)
        s1 = size_for_id_vov(tech.nmos, tech, ids=100e-6, vov=1.0)
        s3 = size_for_id_vov(model3, tech, ids=100e-6, vov=1.0)
        assert s3.ids == pytest.approx(100e-6, rel=0.03)
        assert s3.w >= s1.w
