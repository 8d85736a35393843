"""AWE (moment matching) tests against exact pole locations."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice import (
    AweApproximant,
    Circuit,
    ac_analysis,
    awe_poles,
    awe_transfer,
    dc_operating_point,
)
from repro.spice.ac import log_frequencies
from repro.spice.awe import _fit, _pade_from_moments, awe_moments
from repro.technology import generic_05um

TECH = generic_05um()


def rc_lowpass(r=1e3, c=1e-9):
    ckt = Circuit("rc")
    ckt.v("in", "0", ac=1.0)
    ckt.r("in", "out", r)
    ckt.c("out", "0", c)
    return ckt


def rc_ladder(n=3, r=1e3, c=1e-9):
    ckt = Circuit(f"ladder-{n}")
    ckt.v("n0", "0", ac=1.0)
    for k in range(n):
        ckt.r(f"n{k}", f"n{k+1}", r)
        ckt.c(f"n{k+1}", "0", c)
    return ckt, f"n{n}"


class TestMoments:
    def test_zeroth_moment_is_dc_gain(self):
        moments = awe_moments(rc_lowpass(), "out", 4)
        assert moments[0] == pytest.approx(1.0, rel=1e-9)

    def test_first_moment_is_minus_tau(self):
        # For H(s) = 1/(1 + s*tau): m1 = -tau.
        r, c = 1e3, 1e-9
        moments = awe_moments(rc_lowpass(r, c), "out", 4)
        assert moments[1] == pytest.approx(-r * c, rel=1e-9)

    def test_moment_series_alternates_for_rc(self):
        moments = awe_moments(rc_lowpass(), "out", 6)
        signs = np.sign(moments)
        assert list(signs) == [1, -1, 1, -1, 1, -1]

    def test_elmore_delay_of_ladder(self):
        # Elmore delay of an n-stage RC ladder: sum_k R_cum(k) * C_k.
        ckt, out = rc_ladder(3)
        moments = awe_moments(ckt, out, 2)
        elmore = -(1e3 * 1e-9 + 2e3 * 1e-9 + 3e3 * 1e-9)
        assert moments[1] == pytest.approx(elmore, rel=1e-9)


class TestAwePoles:
    def test_single_pole_exact(self):
        r, c = 1e3, 1e-9
        model = awe_poles(rc_lowpass(r, c), "out", order=1)
        assert len(model.poles) == 1
        assert model.poles[0].real == pytest.approx(-1 / (r * c), rel=1e-6)
        assert model.dc_gain == pytest.approx(1.0, rel=1e-6)

    def test_dominant_pole_hz(self):
        r, c = 1e3, 1e-9
        model = awe_poles(rc_lowpass(r, c), "out", order=1)
        assert model.dominant_pole_hz == pytest.approx(
            1 / (2 * math.pi * r * c), rel=1e-6
        )

    def test_two_pole_ladder_matches_ac(self):
        ckt, out = rc_ladder(2)
        freqs = log_frequencies(1e3, 1e7, 20)
        h_awe = awe_transfer(ckt, out, freqs, order=2)
        ac = ac_analysis(ckt, frequencies=freqs)
        h_full = ac.phasor(out)
        np.testing.assert_allclose(np.abs(h_awe), np.abs(h_full), rtol=0.02)

    def test_order_reduction_on_degenerate_circuit(self):
        # A single-pole circuit asked for order 3 still returns a model.
        model = awe_poles(rc_lowpass(), "out", order=3)
        assert model.dc_gain == pytest.approx(1.0, rel=1e-3)
        assert model.dominant_pole_hz == pytest.approx(
            1 / (2 * math.pi * 1e-6), rel=0.05
        )

    def test_unity_gain_frequency_of_integrator_like_response(self):
        # High-gain single-pole: UGF ~ gain * pole frequency.
        ckt = Circuit("gain-pole")
        ckt.v("in", "0", ac=1.0)
        ckt.g("0", "out", "in", "0", gm=1e-3)  # 1 mS into 10 kohm: gain 10
        ckt.r("out", "0", 10e3)
        ckt.c("out", "0", 1e-9)
        model = awe_poles(ckt, "out", order=1)
        f_pole = 1 / (2 * math.pi * 10e3 * 1e-9)
        assert model.unity_gain_frequency() == pytest.approx(
            10 * f_pole, rel=0.05
        )

    def test_ugf_raises_when_gain_below_unity(self):
        model = awe_poles(rc_lowpass(), "out", order=1)  # DC gain 1, never above
        with pytest.raises(SimulationError):
            model.unity_gain_frequency(f_lo=1e3)

    def test_no_ac_source_raises(self):
        ckt = Circuit()
        ckt.v("in", "0", dc=1.0)  # no AC
        ckt.r("in", "out", 1e3)
        ckt.c("out", "0", 1e-9)
        with pytest.raises(SimulationError):
            awe_poles(ckt, "out", order=1)

    def test_unknown_output_node_raises(self):
        with pytest.raises(SimulationError):
            awe_moments(rc_lowpass(), "nowhere", 2)

    def test_bad_order_rejected(self):
        with pytest.raises(SimulationError):
            awe_poles(rc_lowpass(), "out", order=0)


class TestMomentCount:
    """A fit computes ``max(2q, 3)`` moments, the ones it reads."""

    @staticmethod
    def _cases():
        from repro.benchmark.netlists import ladder_circuit, module_chain_circuit

        yield rc_lowpass(), "out", None
        for n in (1, 2, 3, 5):
            yield (*rc_ladder(n), None)
        yield ladder_circuit(12), "m10", None
        yield module_chain_circuit(12), "x5", None
        for bench, op in _opamp_benches():
            yield bench, "out", op

    def test_fit_equals_the_fit_to_2q_plus_2_moments(self):
        for circuit, out, op in self._cases():
            for order in (1, 2, 3):
                model = awe_poles(circuit, out, order=order, op=op)
                longer = awe_moments(circuit, out, 2 * order + 2, op=op)
                reference = _fit(circuit.title, out, longer, order)
                assert len(model.moments) == max(2 * order, 3)
                assert np.array_equal(model.moments, longer[: len(model.moments)])
                for field in ("poles", "residues"):
                    got = getattr(model, field)
                    want = getattr(reference, field)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (circuit.title, order)


class TestAweOnMosCircuit:
    def test_cs_amp_dominant_pole(self):
        ckt = Circuit("cs")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.9, ac=1.0)
        ckt.r("vdd", "out", 20e3)
        ckt.m("out", "vin", "0", "0", TECH.nmos, w=10e-6, l=1.2e-6, name="M1")
        ckt.c("out", "0", 10e-12)
        op = dc_operating_point(ckt)
        model = awe_poles(ckt, "out", order=2, op=op)
        mop = op.mosfet_ops["M1"]
        r_out = 1.0 / (1.0 / 20e3 + mop.gds)
        f_expected = 1.0 / (2 * math.pi * r_out * 10e-12)
        assert model.dominant_pole_hz == pytest.approx(f_expected, rel=0.1)

    def test_awe_matches_ac_for_amplifier(self):
        ckt = Circuit("cs")
        ckt.v("vdd", "0", dc=2.5)
        ckt.v("vin", "0", dc=0.9, ac=1.0)
        ckt.r("vdd", "out", 20e3)
        ckt.m("out", "vin", "0", "0", TECH.nmos, w=10e-6, l=1.2e-6)
        ckt.c("out", "0", 10e-12)
        op = dc_operating_point(ckt)
        freqs = log_frequencies(1e2, 1e8, 10)
        h_awe = awe_transfer(ckt, "out", freqs, order=2, op=op)
        ac = ac_analysis(ckt, op=op, frequencies=freqs)
        np.testing.assert_allclose(
            np.abs(h_awe), np.abs(ac.phasor("out")), rtol=0.05
        )


# --------------------------------------------------------------------------
# The rewritten kernels against the references they replace
# --------------------------------------------------------------------------


def _reference_magnitude(model, frequency):
    """|H(j 2 pi f)|: 0j plus the terms in pole order."""
    s = 2j * math.pi * frequency
    total = 0j
    for pole, residue in zip(model.poles, model.residues):
        total += complex(residue) / (s - complex(pole))
    return abs(total)


def _reference_ugf(model, f_lo=1.0, f_hi=1e12):
    """The plain 80-step log-axis bisection."""
    lo, hi = math.log10(f_lo), math.log10(f_hi)
    if _reference_magnitude(model, 10.0**lo) < 1.0:
        raise SimulationError("gain below unity at the low end")
    if _reference_magnitude(model, 10.0**hi) > 1.0:
        raise SimulationError("gain above unity at the high end")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _reference_magnitude(model, 10.0**mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


def _reference_pade(moments, order):
    """Poles and residues with the roots taken by np.roots."""
    q = order
    mu = moments[: 2 * q]
    hankel = np.array([mu[row : row + q] for row in range(q)])
    coeffs = np.linalg.solve(hankel, -mu[q : 2 * q])
    roots = np.roots(np.concatenate(([1.0], coeffs[::-1])))
    roots = roots[np.abs(roots) > 1e-300]
    poles = 1.0 / roots
    vander = np.vander(roots, N=len(roots), increasing=True).T
    c = np.linalg.solve(vander, mu[: len(roots)].astype(complex))
    return poles, -c * poles


def _random_model(rng):
    """Stable poles (some complex pairs) and a DC gain well above one."""
    count = rng.integers(1, 5)
    poles: list[complex] = []
    while len(poles) < count:
        w = 2.0 * math.pi * 10.0 ** rng.uniform(1.0, 8.0)
        if rng.random() < 0.3:
            angle = rng.uniform(0.1, 1.4)
            poles += [w * complex(-math.cos(angle), s * math.sin(angle))
                      for s in (1.0, -1.0)]
        else:
            poles.append(complex(-w, 0.0))
    poles_arr = np.array(poles)
    weights = rng.uniform(0.1, 1.0, len(poles_arr))
    gain = 10.0 ** rng.uniform(0.5, 5.0)
    residues = -poles_arr * weights / weights.sum() * gain
    return AweApproximant(
        poles=poles_arr, residues=residues, moments=np.zeros(2)
    )


def _opamp_benches():
    from repro.opamp import OpAmpSpec, design_opamp, open_loop_bench

    for gain, ugf in ((200.0, 2e6), (70.0, 3e6), (250.0, 8e6)):
        amp = design_opamp(
            TECH, OpAmpSpec(gain=gain, ugf=ugf, ibias=2e-6, cl=10e-12)
        )
        bench = open_loop_bench(amp, v_diff=0.0)
        yield bench, dc_operating_point(bench)


def _opamp_models():
    for bench, op in _opamp_benches():
        for order in (1, 2, 3):
            yield awe_poles(bench, "out", order=order, op=op)


class TestRewrittenKernels:
    def test_ugf_matches_80_step_bisection_on_random_models(self):
        rng = np.random.default_rng(11)
        compared = 0
        for _ in range(300):
            model = _random_model(rng)
            try:
                expected = _reference_ugf(model)
            except SimulationError as exc:
                with pytest.raises(SimulationError, match=str(exc)):
                    model.unity_gain_frequency()
                continue
            assert model.unity_gain_frequency() == expected
            compared += 1
        assert compared > 250

    def test_ugf_matches_80_step_bisection_on_awe_models(self):
        for model in _opamp_models():
            assert model.unity_gain_frequency() == _reference_ugf(model)
            for f_lo, f_hi in ((10.0, 1e9), (1.0, 1e15)):
                assert model.unity_gain_frequency(
                    f_lo, f_hi
                ) == _reference_ugf(model, f_lo, f_hi)

    def test_ugf_raises_the_same_two_errors(self):
        low = AweApproximant(
            poles=np.array([-1e3 + 0j]),
            residues=np.array([0.5e3 + 0j]),
            moments=np.zeros(2),
        )
        high = AweApproximant(
            poles=np.array([-1e9 + 0j]),
            residues=np.array([1e11 + 0j]),
            moments=np.zeros(2),
        )
        for model, message in (
            (low, "gain below unity at the low end"),
            (high, "gain above unity at the high end"),
        ):
            with pytest.raises(SimulationError, match=message):
                _reference_ugf(model, 1.0, 1e3)
            with pytest.raises(SimulationError, match=message):
                model.unity_gain_frequency(1.0, 1e3)

    def test_pade_roots_match_np_roots(self):
        rng = np.random.default_rng(5)
        moment_sets = [rng.normal(size=8) for _ in range(200)]
        for n in (1, 2, 3, 5):
            moment_sets.append(awe_moments(*rc_ladder(n), 8))
        moment_sets += [
            awe_moments(bench, "out", 8, op=op) for bench, op in _opamp_benches()
        ]
        for moments in moment_sets:
            scale = abs(moments[1] / moments[0]) or 1.0
            scaled = moments / scale ** np.arange(len(moments))
            for q in range(1, len(moments) // 2 + 1):
                try:
                    expected = _reference_pade(scaled, q)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        _pade_from_moments(scaled, q)
                    continue
                got = _pade_from_moments(scaled, q)
                for ours, ref in zip(got, expected):
                    assert ours.dtype == ref.dtype
                    assert np.array_equal(ours, ref, equal_nan=True)

    def test_pade_zero_constant_coefficient_takes_np_roots(self):
        # mu = (4, 2, -1, 0.5) solves the order-2 Hankel system exactly
        # to a = (0, 0.5): z^2 + 0.5 z has one zero root, dropped.
        moments = np.array([4.0, 2.0, -1.0, 0.5])
        poles, residues = _pade_from_moments(moments, 2)
        ref_poles, ref_residues = _reference_pade(moments, 2)
        assert np.array_equal(poles, ref_poles)
        assert np.array_equal(residues, ref_residues)
        assert poles.tolist() == [-2.0]
