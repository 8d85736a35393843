"""Exact transfer-function extraction tests."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice import (
    Circuit,
    ac_analysis,
    dc_operating_point,
    extract_transfer_function,
)
from repro.spice.ac import log_frequencies
from repro.technology import generic_05um

TECH = generic_05um()


def rc(r=1e3, c=1e-9):
    ckt = Circuit("rc")
    ckt.v("in", "0", ac=1.0)
    ckt.r("in", "out", r)
    ckt.c("out", "0", c)
    return ckt


class TestPassiveNetworks:
    def test_rc_single_pole_exact(self):
        tf = extract_transfer_function(rc(), "out")
        assert tf.order == 1
        assert tf.dc_gain == pytest.approx(1.0, rel=1e-6)
        pole = tf.poles()[0]
        assert pole.real == pytest.approx(-1e6, rel=1e-6)
        assert abs(pole.imag) < 1.0

    def test_dominant_pole_hz(self):
        tf = extract_transfer_function(rc(), "out")
        assert tf.dominant_pole_hz() == pytest.approx(
            1 / (2 * math.pi * 1e-6), rel=1e-6
        )

    def test_rlc_complex_pair(self):
        ckt = Circuit("rlc")
        ckt.v("in", "0", ac=1.0)
        ckt.r("in", "m", 100.0)
        ckt.ind("m", "out", 1e-3)
        ckt.c("out", "0", 1e-9)
        tf = extract_transfer_function(ckt, "out")
        assert tf.order == 2
        poles = tf.poles()
        w0 = 1.0 / math.sqrt(1e-3 * 1e-9)
        np.testing.assert_allclose(np.abs(poles), w0, rtol=1e-6)
        # Complex conjugate pair.
        assert poles[0].imag == pytest.approx(-poles[1].imag, rel=1e-6)

    def test_feedthrough_zero_found(self):
        # High-pass RC: zero at the origin.
        ckt = Circuit("hp")
        ckt.v("in", "0", ac=1.0)
        ckt.c("in", "out", 1e-9)
        ckt.r("out", "0", 1e3)
        tf = extract_transfer_function(ckt, "out")
        zeros = tf.zeros()
        assert len(zeros) == 1
        assert abs(zeros[0]) < 1e-3  # zero at s = 0

    def test_matches_ac_exactly(self):
        ckt = Circuit("ladder")
        ckt.v("in", "0", ac=1.0)
        ckt.r("in", "a", 1e3)
        ckt.c("a", "0", 1e-9)
        ckt.r("a", "out", 10e3)
        ckt.c("out", "0", 100e-12)
        ckt.c("in", "out", 10e-12)
        tf = extract_transfer_function(ckt, "out")
        freqs = log_frequencies(10, 1e9, 8)
        ref = ac_analysis(ckt, frequencies=freqs).phasor("out")
        np.testing.assert_allclose(tf.evaluate(freqs), ref, rtol=1e-9)

    def test_stability_flag(self):
        tf = extract_transfer_function(rc(), "out")
        assert tf.is_stable()

    def test_keeps_every_pole_of_a_ladder_spread_over_eight_decades(self):
        # Poles at 0.074, 1.6e6 and 4.7e6 rad/s: neither the dominant
        # time constant's circle (which detects noise) nor one centred
        # on the poles it detects (which trims the cubic term) holds
        # all three; the circle at the natural frequencies does.
        ckt = Circuit("spread")
        ckt.v("n0", "0", dc=1.0, ac=1.0)
        ckt.r("n0", "n1", 6934754.75)
        ckt.c("n1", "0", 5.017911235254047e-07)
        ckt.r("n1", "n2", 1.0)
        ckt.c("n2", "0", 6.613575963152528e-07)
        ckt.r("n2", "n3", 1.0)
        ckt.c("n3", "0", 7.963878263611359e-07)
        tf = extract_transfer_function(ckt, "n3")
        assert tf.order == 3
        freqs = np.logspace(1, 8, 5)
        ref = ac_analysis(ckt, frequencies=freqs).phasor("n3")
        np.testing.assert_allclose(tf.evaluate(freqs), ref, rtol=1e-6)


class TestActiveNetworks:
    def test_opamp_tf(self):
        from repro.opamp import OpAmpSpec, design_opamp
        from repro.opamp.benches import balanced_open_loop

        amp = design_opamp(
            TECH, OpAmpSpec(gain=150.0, ugf=3e6, ibias=2e-6, cl=10e-12),
            name="tf",
        )
        _, bench, op = balanced_open_loop(amp)
        tf = extract_transfer_function(bench, "out", op=op)
        assert abs(tf.dc_gain) == pytest.approx(
            amp.estimate.gain, rel=0.2
        )
        assert tf.is_stable()
        freqs = log_frequencies(10, 1e8, 6)
        ref = ac_analysis(bench, op=op, frequencies=freqs).phasor("out")
        np.testing.assert_allclose(
            np.abs(tf.evaluate(freqs)), np.abs(ref), rtol=0.05
        )

    def test_vccs_gain_stage(self):
        ckt = Circuit("g")
        ckt.v("in", "0", ac=1.0)
        ckt.r("in", "0", 1e3)
        ckt.g("0", "out", "in", "0", gm=1e-3)
        ckt.r("out", "0", 10e3)
        ckt.c("out", "0", 1e-9)
        tf = extract_transfer_function(ckt, "out")
        assert tf.dc_gain == pytest.approx(10.0, rel=1e-6)
        assert tf.order == 1


class TestErrors:
    def test_no_stimulus_rejected(self):
        ckt = Circuit("q")
        ckt.v("in", "0", dc=1.0)  # no AC
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        with pytest.raises(SimulationError, match="stimulus"):
            extract_transfer_function(ckt, "out")

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            extract_transfer_function(rc(), "nowhere")

    def test_unstable_network_detected(self):
        # Positive-feedback VCVS: right-half-plane pole.
        ckt = Circuit("unstable")
        ckt.v("in", "0", ac=1.0)
        ckt.r("in", "x", 1e3)
        ckt.c("x", "0", 1e-9)
        ckt.e("fb", "0", "x", "0", gain=3.0)
        ckt.r("fb", "x", 1e3)
        ckt.r("x", "0", 10e3)
        tf = extract_transfer_function(ckt, "x")
        assert not tf.is_stable()
