"""DC operating-point solver tests against hand-solvable circuits."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.opamp import balanced_open_loop, coarse_design_opamp, open_loop_bench
from repro.spice import Circuit, dc_operating_point, dc_sweep
from repro.technology import generic_05um
from tests.oracles import mosfet_op_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import TABLE1  # noqa: E402

TECH = generic_05um()
NMOS = TECH.nmos
PMOS = TECH.pmos


class TestLinearDC:
    def test_voltage_divider(self):
        ckt = Circuit("divider")
        ckt.v("in", "0", dc=10.0)
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 3e3)
        op = dc_operating_point(ckt)
        assert op.v("out") == pytest.approx(7.5, rel=1e-6)

    def test_source_branch_current(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=10.0, name="VIN")
        ckt.r("in", "0", 2e3)
        op = dc_operating_point(ckt)
        # Positive branch current flows np -> nn through the source.
        assert op.i("VIN") == pytest.approx(-5e-3, rel=1e-6)
        assert op.supply_current("VIN") == pytest.approx(5e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.i("0", "out", dc=1e-3)
        ckt.r("out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.v("out") == pytest.approx(1.0, rel=1e-6)

    def test_capacitor_open_at_dc(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=5.0)
        ckt.r("in", "out", 1e3)
        ckt.c("out", "0", 1e-9)
        ckt.r("out", "0", 1e6)
        op = dc_operating_point(ckt)
        assert op.v("out") == pytest.approx(5.0 * 1e6 / (1e6 + 1e3), rel=1e-6)

    def test_inductor_short_at_dc(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=5.0)
        ckt.r("in", "mid", 1e3)
        ckt.ind("mid", "out", 1e-3)
        ckt.r("out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.v("mid") == pytest.approx(op.v("out"), abs=1e-9)
        assert op.v("out") == pytest.approx(2.5, rel=1e-6)

    def test_vcvs(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=0.5)
        ckt.r("in", "0", 1e3)
        ckt.e("out", "0", "in", "0", gain=10.0)
        ckt.r("out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.v("out") == pytest.approx(5.0, rel=1e-6)

    def test_vccs(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "0", 1e3)
        ckt.g("0", "out", "in", "0", gm=1e-3)
        ckt.r("out", "0", 2e3)
        op = dc_operating_point(ckt)
        # 1 mA into 'out' -> 2 V.
        assert op.v("out") == pytest.approx(2.0, rel=1e-6)

    def test_two_sources_superposition(self):
        ckt = Circuit()
        ckt.v("a", "0", dc=4.0)
        ckt.v("b", "0", dc=2.0)
        ckt.r("a", "out", 1e3)
        ckt.r("b", "out", 1e3)
        ckt.r("out", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.v("out") == pytest.approx(2.0, rel=1e-6)

    def test_floating_series_string(self):
        ckt = Circuit()
        ckt.v("top", "0", dc=9.0)
        for a, b in [("top", "n1"), ("n1", "n2"), ("n2", "0")]:
            ckt.r(a, b, 1e3)
        op = dc_operating_point(ckt)
        assert op.v("n1") == pytest.approx(6.0, rel=1e-5)
        assert op.v("n2") == pytest.approx(3.0, rel=1e-5)


class TestMosfetDC:
    def test_diode_connected_nmos(self):
        """A diode NMOS pulled by a current source settles at Vgs(I)."""
        ckt = Circuit("diode")
        ckt.i("vdd", "d", dc=50e-6)
        ckt.v("vdd", "0", dc=2.5)
        ckt.m("d", "d", "0", "0", NMOS, w=20e-6, l=1.2e-6, name="M1")
        op = dc_operating_point(ckt)
        mop = op.mosfet_ops["M1"]
        assert mop.region == "saturation"
        assert mop.ids == pytest.approx(50e-6, rel=1e-4)
        assert mop.vgs > NMOS.vto

    def test_common_source_amplifier_op(self):
        ckt = Circuit("cs-amp")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.9)
        ckt.r("vdd", "out", 20e3)
        ckt.m("out", "vin", "0", "0", NMOS, w=10e-6, l=1.2e-6, name="M1")
        op = dc_operating_point(ckt)
        mop = op.mosfet_ops["M1"]
        ids_expected = mop.ids
        assert op.v("out") == pytest.approx(2.5 - 20e3 * ids_expected, rel=1e-6)

    def test_nmos_cutoff(self):
        ckt = Circuit()
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.2)
        ckt.r("vdd", "out", 10e3)
        ckt.m("out", "vin", "0", "0", NMOS, w=10e-6, l=1.2e-6, name="M1")
        op = dc_operating_point(ckt)
        assert op.mosfet_ops["M1"].region == "cutoff"
        assert op.v("out") == pytest.approx(2.5, abs=1e-3)

    def test_pmos_common_source(self):
        ckt = Circuit()
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=1.2)  # Vsg = 1.3 > |Vtp|
        ckt.m("out", "vin", "vdd", "vdd", PMOS, w=30e-6, l=1.2e-6, name="M1")
        ckt.r("out", "0", 20e3)
        op = dc_operating_point(ckt)
        mop = op.mosfet_ops["M1"]
        assert mop.ids > 0
        assert op.v("out") == pytest.approx(20e3 * mop.ids, rel=1e-6)

    def test_cmos_inverter_high_input(self):
        ckt = Circuit("inverter")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=2.5)
        ckt.m("out", "vin", "0", "0", NMOS, w=10e-6, l=0.6e-6, name="MN")
        ckt.m("out", "vin", "vdd", "vdd", PMOS, w=20e-6, l=0.6e-6, name="MP")
        ckt.r("out", "0", 1e9)  # tiny load to pin the output
        op = dc_operating_point(ckt)
        assert op.v("out") < 0.05

    def test_cmos_inverter_low_input(self):
        ckt = Circuit("inverter")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.0)
        ckt.m("out", "vin", "0", "0", NMOS, w=10e-6, l=0.6e-6, name="MN")
        ckt.m("out", "vin", "vdd", "vdd", PMOS, w=20e-6, l=0.6e-6, name="MP")
        ckt.r("out", "0", 1e9)
        op = dc_operating_point(ckt)
        assert op.v("out") > 2.45

    def test_source_drain_swap(self):
        """Pass transistor conducting 'backwards' still solves."""
        ckt = Circuit()
        ckt.v("a", "0", dc=0.0)
        ckt.v("g", "0", dc=2.5)
        ckt.v("bsrc", "0", dc=1.0)
        ckt.r("bsrc", "b", 1e3)
        # Drain terminal wired to the lower-voltage side on purpose.
        ckt.m("a", "g", "b", "0", NMOS, w=10e-6, l=0.6e-6, name="M1")
        op = dc_operating_point(ckt)
        assert op.mosfet_ops["M1"].swapped
        assert op.v("b") < 1.0  # transistor pulls b toward a

    def test_current_mirror_copies(self):
        ckt = Circuit("mirror")
        ckt.v("vdd", "0", dc=2.5)
        ckt.i("vdd", "ref", dc=20e-6)
        ckt.m("ref", "ref", "0", "0", NMOS, w=10e-6, l=2e-6, name="M1")
        ckt.m("out", "ref", "0", "0", NMOS, w=10e-6, l=2e-6, name="M2")
        ckt.r("vdd", "out", 10e3)
        op = dc_operating_point(ckt)
        i_out = op.mosfet_ops["M2"].ids
        # Lambda mismatch between Vds values keeps this within ~10 %.
        assert i_out == pytest.approx(20e-6, rel=0.15)

    def test_saturation_fraction(self):
        ckt = Circuit()
        ckt.v("vdd", "0", dc=2.5)
        ckt.i("vdd", "d", dc=50e-6)
        ckt.m("d", "d", "0", "0", NMOS, w=20e-6, l=1.2e-6)
        op = dc_operating_point(ckt)
        assert op.saturation_fraction() == 1.0


@pytest.mark.parametrize("row", TABLE1, ids=lambda row: row.name)
def test_op_table_equals_four_evaluations(row):
    """One drain-law evaluation per MOSFET gives the table of four
    device-model evaluations, bit for bit, at each Table-1 bench's
    zero-drive and balanced operating points and at ±0.5 V drives that
    rail the output (triode and cutoff devices)."""
    template, _ = coarse_design_opamp(
        TECH, row.spec(), row.topology(), name=row.name
    )
    ops = [
        dc_operating_point(open_loop_bench(template, v_diff=v_diff))
        for v_diff in (0.0, 0.5, -0.5)
    ]
    ops.append(balanced_open_loop(template)[2])
    for op in ops:
        table = op.mosfet_ops
        assert len(table) == len(op.system.circuit.mosfets())
        assert repr(table) == repr(mosfet_op_table(op.system, op.x))


class TestRobustness:
    def test_invalid_circuit_raises_netlist_error(self):
        ckt = Circuit()
        ckt.r("a", "b", 1e3)
        with pytest.raises(NetlistError):
            dc_operating_point(ckt)

    def test_nonconvergent_raises(self):
        # Two ideal voltage sources fighting across the same nodes makes
        # a singular system.
        ckt = Circuit("conflict")
        ckt.v("a", "0", dc=1.0)
        ckt.v("a", "0", dc=2.0)
        ckt.r("a", "0", 1e3)
        with pytest.raises(ConvergenceError):
            dc_operating_point(ckt)

    def test_iterations_recorded(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "0", 1e3)
        op = dc_operating_point(ckt)
        assert op.iterations >= 1

    def test_ill_conditioned_ladder_converges(self):
        # Regression: a wide spread of resistor values makes the
        # Jacobian ill-conditioned enough that the Newton step never
        # drops below an *absolute* 1 nV — the dx noise floor scales
        # with the solution.  The reltol·|v|+abstol gate must accept it.
        ckt = Circuit("stiff-ladder")
        ckt.v("n0", "0", dc=2.75)
        rs = [2906802.0, 2.0, 1.0]
        cs = [1e-6, 5.67e-7, 7.58e-7]
        for i, (r, c) in enumerate(zip(rs, cs)):
            ckt.r(f"n{i}", f"n{i + 1}", r)
            ckt.c(f"n{i + 1}", "0", c)
        op = dc_operating_point(ckt)
        # No DC current flows (capacitive loads only): every node sits
        # at the source voltage, up to the gmin leakage floor across
        # the megaohm series resistor.
        for i in range(len(rs) + 1):
            assert op.v(f"n{i}") == pytest.approx(2.75, abs=1e-4)


class TestDcSweep:
    def test_sweep_inverter_transfer(self):
        ckt = Circuit("inverter")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.0, name="VIN")
        ckt.m("out", "vin", "0", "0", NMOS, w=10e-6, l=0.6e-6)
        ckt.m("out", "vin", "vdd", "vdd", PMOS, w=20e-6, l=0.6e-6)
        ckt.r("out", "0", 1e9)
        vins = np.linspace(0.0, 2.5, 11)
        _, results = dc_sweep(ckt, "VIN", vins)
        vouts = [r.v("out") for r in results]
        assert vouts[0] > 2.4 and vouts[-1] < 0.1
        assert all(a >= b - 1e-6 for a, b in zip(vouts, vouts[1:]))  # monotone

    def test_sweep_restores_original(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=7.0, name="VIN")
        ckt.r("in", "0", 1e3)
        dc_sweep(ckt, "VIN", [0.0, 1.0])
        assert ckt.element("VIN").dc == 7.0
