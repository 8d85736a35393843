"""Equivalence of the stamp-compiled engine and the naive assembly.

Every assembly entry point (DC, AC, C-matrix, transient) is compared
between the compiled engine (`repro.spice.engine`) and the naive
per-element loops (`tests/naive_mna.py`, the oracle) on a spread of
fixture circuits covering every element type, plus end-to-end analyses
run on both.  Also holds the dedicated regression tests for the four
solver / measurement bugs fixed alongside the engine.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest

import repro.spice.dc
import repro.spice.transient
from repro.errors import ConvergenceError, SimulationError
from repro.opamp import OpAmpSpec, design_opamp, open_loop_bench
from repro.runtime.faults import injected_faults
from repro.runtime.retry import RetryPolicy
from repro.spice import (
    Circuit,
    PulseWave,
    SineWave,
    ac_analysis,
    dc_operating_point,
    dc_sweep,
    phase_margin,
    transient_analysis,
)
from repro.spice.engine import (
    ac_rhs,
    assemble_dc,
    assemble_tran,
    capacitance_matrix,
    linearize_ac,
)
from repro.spice.mna import System, evaluate_mosfet
from repro.technology import generic_05um
from tests.naive_mna import (
    assemble_ac_naive,
    assemble_dc_naive,
    assemble_tran_naive,
    capacitance_matrix_naive,
)
from tests.test_mos_levels import LEVEL1, LEVEL2_THETA, LEVEL3_VSAT

TECH = generic_05um()


def _divider() -> Circuit:
    ckt = Circuit("divider")
    ckt.v("in", "0", dc=1.5, ac=1.0)
    ckt.r("in", "out", 1e3)
    ckt.r("out", "0", 2e3)
    return ckt


def _rc_with_sources() -> Circuit:
    ckt = Circuit("rc-sources")
    ckt.v(
        "in", "0", dc=0.5, ac=1.0,
        wave=PulseWave(v1=0.0, v2=1.0, delay=1e-9, rise=1e-12, width=1.0),
    )
    ckt.r("in", "mid", 1e3)
    ckt.c("mid", "0", 1e-9)
    ckt.c("mid", "out", 2e-12)
    ckt.r("out", "0", 5e4)
    ckt.i("0", "out", dc=1e-6, ac=0.5,
          wave=SineWave(offset=1e-6, amplitude=1e-6, freq=1e6))
    return ckt


def _rlc_controlled() -> Circuit:
    ckt = Circuit("rlc-controlled")
    ckt.v("in", "0", dc=1.0, ac=1.0)
    ckt.r("in", "a", 50.0)
    ckt.ind("a", "b", 1e-6)
    ckt.c("b", "0", 1e-9)
    ckt.e("c", "0", "b", "0", gain=2.5)
    ckt.r("c", "d", 1e3)
    ckt.g("d", "0", "a", "b", gm=1e-3)
    ckt.r("d", "0", 1e4)
    return ckt


def _mos_amp(model=TECH.nmos) -> Circuit:
    ckt = Circuit("cs-amp")
    ckt.v("vdd", "0", dc=TECH.vdd)
    ckt.v("g", "0", dc=1.2, ac=1.0)
    ckt.r("vdd", "d", 20e3)
    ckt.m("d", "g", "0", "0", model, w=10e-6, l=1e-6, name="M1")
    ckt.c("d", "0", 1e-12)
    return ckt


def _opamp_bench() -> Circuit:
    amp = design_opamp(
        TECH, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    )
    return open_loop_bench(amp, v_diff=0.0)


FIXTURES = [_divider, _rc_with_sources, _rlc_controlled, _mos_amp, _opamp_bench]


def _bias_points(system: System) -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    return [
        np.zeros(system.size),
        np.full(system.size, 0.7),
        rng.normal(0.0, 1.0, system.size),
    ]


def _swapped_point(system: System) -> np.ndarray:
    """A bias point at which the first MOSFET runs source/drain swapped."""
    x = np.full(system.size, 0.7)
    mos = system.circuit.mosfets()[0]
    sign = mos.model.polarity.sign
    d, s = system.index(mos.nd), system.index(mos.ns)
    if d >= 0:
        x[d] = (x[s] if s >= 0 else 0.0) - 0.5 * sign
    else:
        x[s] = 0.5 * sign
    ev = evaluate_mosfet(
        mos,
        system.device(mos.name),
        *(system.voltage(x, n) for n in (mos.nd, mos.ng, mos.ns, mos.nb)),
    )
    assert ev.swapped
    return x


def assert_same(fast, naive) -> None:
    naive = np.asarray(naive)
    scale = float(np.max(np.abs(naive), initial=0.0))
    np.testing.assert_allclose(
        fast, naive, rtol=1e-12, atol=1e-12 * (1.0 + scale)
    )


@pytest.mark.parametrize("build", FIXTURES, ids=lambda b: b.__name__.strip("_"))
class TestAssemblyEquivalence:
    def test_dc(self, build):
        system = System(build())
        for x in _bias_points(system):
            for gmin in (1e-12, 1e-6):
                for scale in (1.0, 0.3):
                    res_c, jac_c = assemble_dc(
                        system, x, gmin=gmin, source_scale=scale
                    )
                    res_n, jac_n = assemble_dc_naive(
                        system, x, gmin=gmin, source_scale=scale
                    )
                    assert_same(res_c, res_n)
                    assert_same(jac_c, jac_n)

    def test_capacitance_matrix(self, build):
        system = System(build())
        for x in _bias_points(system):
            assert_same(
                capacitance_matrix(system, x),
                capacitance_matrix_naive(system, x),
            )

    def test_linearize_ac_is_dc_jacobian_and_capacitance(self, build):
        # linearize_ac shares one bias evaluation between the conduction
        # and capacitance stamps and builds no residual; its matrices
        # must still equal the separate assemblers' bit for bit.
        system = System(build())
        points = _bias_points(system)
        if system.circuit.mosfets():
            points.append(_swapped_point(system))
        for x in points:
            for gmin in (1e-12, 1e-6):
                g, c, b = linearize_ac(system, x, gmin=gmin)
                _, jac = assemble_dc(system, x, gmin=gmin)
                assert np.array_equal(g, jac)
                assert np.array_equal(c, capacitance_matrix(system, x))
                assert np.array_equal(b, ac_rhs(system))

    def test_ac(self, build):
        system = System(build())
        x_op = _bias_points(system)[2]
        for freq in (1.0, 1e3, 1e6, 1e9):
            omega = 2.0 * math.pi * freq
            g, c, b_c = linearize_ac(system, x_op)
            y_n, b_n = assemble_ac_naive(system, x_op, omega)
            assert_same(g + (1j * omega) * c, y_n)
            assert_same(b_c, b_n)

    def test_transient(self, build):
        system = System(build())
        points = _bias_points(system)
        x, x_prev = points[2], points[1]
        cap_currents = {
            e.name: 1e-6 * (k + 1)
            for k, e in enumerate(system.circuit)
            if e.name.startswith("C")
        }
        for t, h in ((1e-9, 1e-9), (5e-7, 2e-8)):
            res_c, jac_c = assemble_tran(
                system, x, x_prev, cap_currents, t, h, 1e-12
            )
            res_n, jac_n = assemble_tran_naive(
                system, x, x_prev, cap_currents, t, h, 1e-12
            )
            assert_same(res_c, res_n)
            assert_same(jac_c, jac_n)

    def test_transient_step_cache_tracks_inputs(self, build):
        # Same (t, h) but a different previous state / capacitor memory
        # must not reuse the cached step context.
        system = System(build())
        points = _bias_points(system)
        x, xp_a, xp_b = points[2], points[0], points[1]
        for xp, i_old in ((xp_a, 0.0), (xp_b, 3e-6), (xp_b, 0.0)):
            caps = {
                e.name: i_old
                for e in system.circuit
                if e.name.startswith("C")
            }
            res_c, jac_c = assemble_tran(system, x, xp, caps, 1e-9, 1e-9, 1e-12)
            res_n, jac_n = assemble_tran_naive(
                system, x, xp, caps, 1e-9, 1e-9, 1e-12
            )
            assert_same(res_c, res_n)
            assert_same(jac_c, jac_n)


class TestCacheInvalidation:
    def test_replace_recompiles(self):
        from dataclasses import replace

        ckt = _divider()
        system = System(ckt)
        x = np.array([1.0, 0.4, 0.0])[: system.size]
        assemble_dc(system, x)  # prime the cache
        ckt.replace(replace(ckt.element("R1"), value=4e3))
        res_c, jac_c = assemble_dc(system, x)
        res_n, jac_n = assemble_dc_naive(system, x)
        assert_same(res_c, res_n)
        assert_same(jac_c, jac_n)

    def test_rebind_matches_fresh_system(self):
        ckt_a = _mos_amp()
        system = System(ckt_a)
        x = _bias_points(system)[2]
        assemble_dc(system, x)
        ckt_b = _mos_amp()
        ckt_b.replace(
            type(ckt_b.element("M1"))(
                "M1", "d", "g", "0", "0", TECH.nmos, 20e-6, 2e-6
            )
        )
        rebound = system.rebind(ckt_b)
        assert rebound is system  # same topology -> reused
        fresh = System(ckt_b)
        res_c, jac_c = assemble_dc(rebound, x)
        res_f, jac_f = assemble_dc_naive(fresh, x)
        assert_same(res_c, res_f)
        assert_same(jac_c, jac_f)

    def test_rebind_rejects_different_topology(self):
        system = System(_divider())
        other = _rc_with_sources()
        assert system.rebind(other) is not system


@contextmanager
def naive_assembly(monkeypatch):
    """Run the DC and transient solvers on the naive loops."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.spice.dc, "assemble_dc", assemble_dc_naive)
        patch.setattr(
            repro.spice.transient, "assemble_tran", assemble_tran_naive
        )
        yield


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "build", FIXTURES, ids=lambda b: b.__name__.strip("_")
    )
    def test_operating_point(self, build, monkeypatch):
        op_fast = dc_operating_point(build())
        with naive_assembly(monkeypatch):
            op_ref = dc_operating_point(build())
        np.testing.assert_allclose(
            op_fast.x, op_ref.x, rtol=1e-6, atol=1e-8
        )

    @pytest.mark.parametrize(
        "build", FIXTURES, ids=lambda b: b.__name__.strip("_")
    )
    def test_ac_sweep(self, build):
        ckt = build()
        op = dc_operating_point(ckt)
        freqs = np.logspace(0, 9, 40)
        ac_fast = ac_analysis(ckt, op=op, frequencies=freqs)
        reference = np.array([
            np.linalg.solve(*assemble_ac_naive(op.system, op.x, 2 * np.pi * f))
            for f in freqs
        ])
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(
            ac_fast.solutions,
            reference,
            rtol=1e-9,
            atol=1e-12 * (1.0 + scale),
        )

    def test_transient_run(self, monkeypatch):
        def run():
            ckt = _rc_with_sources()
            op = dc_operating_point(ckt)
            return transient_analysis(ckt, t_stop=2e-7, dt=1e-9, op=op)

        tran_fast = run()
        with naive_assembly(monkeypatch):
            tran_ref = run()
        np.testing.assert_allclose(
            tran_fast.solutions, tran_ref.solutions, rtol=1e-6, atol=1e-9
        )

    def test_opamp_transient_run(self, monkeypatch):
        def run():
            ckt = _mos_amp()
            op = dc_operating_point(ckt)
            return transient_analysis(ckt, t_stop=1e-7, dt=1e-9, op=op)

        tran_fast = run()
        with naive_assembly(monkeypatch):
            tran_ref = run()
        np.testing.assert_allclose(
            tran_fast.solutions, tran_ref.solutions, rtol=1e-6, atol=1e-9
        )


class TestPhaseMarginUnwrapRegression:
    """Bugfix: wrapped-phase interpolation near the crossover."""

    K = 316.0
    POLES = (2e3, 2e4, 3e4)

    def _bench(self) -> Circuit:
        ckt = Circuit("three-pole")
        ckt.v("in", "0", dc=0.0, ac=1.0)
        f1, f2, f3 = self.POLES
        ckt.r("in", "p1", 1e3)
        ckt.c("p1", "0", 1.0 / (2 * math.pi * f1 * 1e3))
        ckt.e("b1", "0", "p1", "0", gain=self.K)
        ckt.r("b1", "p2", 1e3)
        ckt.c("p2", "0", 1.0 / (2 * math.pi * f2 * 1e3))
        ckt.e("b2", "0", "p2", "0", gain=1.0)
        ckt.r("b2", "out", 1e3)
        ckt.c("out", "0", 1.0 / (2 * math.pi * f3 * 1e3))
        ckt.r("out", "0", 1e9)
        return ckt

    def _expected_margin(self) -> float:
        # Continuous-phase reference from the exact transfer function:
        # |H| = K / prod(sqrt(1+(f/fi)^2)), phase = -sum(atan(f/fi)).
        # phase_margin measures the shift accumulated *since the first
        # analysed point* (100 Hz here), so subtract the small lag
        # already present there.
        freqs = np.logspace(2, 7, 200001)
        mag = self.K / np.prod(
            [np.sqrt(1.0 + (freqs / fi) ** 2) for fi in self.POLES], axis=0
        )
        f_u = float(np.interp(0.0, -np.log(mag), freqs))

        def lag(freq: float) -> float:
            return sum(
                math.degrees(math.atan(freq / fi)) for fi in self.POLES
            )

        return 180.0 - (lag(f_u) - lag(float(freqs[0])))

    def test_negative_margin_measured_through_wrap(self):
        # The loaded divider on the output changes the DC gain slightly;
        # measure against the simulated magnitude but the *continuous*
        # phase model: three poles at these frequencies accumulate more
        # than 180 degrees of lag before crossover, so the raw sampled
        # phase crosses the -180 wrap boundary below f_unity.
        ckt = self._bench()
        ac = ac_analysis(
            ckt, frequencies=np.logspace(2, 7, 101)
        )
        raw_wrapped = np.degrees(np.angle(ac.phasor("out")))
        assert np.any(np.abs(np.diff(raw_wrapped)) > 180.0)
        pm = phase_margin(ac, "out")
        expected = self._expected_margin()
        assert pm < 0.0
        assert pm == pytest.approx(expected, abs=2.0)


class TestNewtonResidualScaleRegression:
    """Bugfix: residual tolerance relative to the current scale."""

    def test_kiloamp_circuit_converges(self):
        # ~1e12 A through a nano-ohm resistor: rounding alone leaves a
        # residual of ~1e-4 A, far above any absolute nanoamp tolerance,
        # so a fixed threshold can never declare convergence.
        ckt = Circuit("kiloamp")
        ckt.v("n", "0", dc=1000.0, name="V1")
        ckt.r("n", "0", 1e-9)
        op = dc_operating_point(ckt)
        assert op.v("n") == pytest.approx(1000.0, rel=1e-9)
        assert abs(op.i("V1")) == pytest.approx(1e12, rel=1e-6)

    def test_small_circuits_keep_absolute_floor(self):
        # Nanoamp-scale circuit still converges to tight residuals.
        ckt = Circuit("nanoamp")
        ckt.v("n", "0", dc=1.0, name="V1")
        ckt.r("n", "0", 1e9)
        op = dc_operating_point(ckt)
        # The gmin leak (1e-12 S at 1 V) rides on top of the 1 nA load.
        assert abs(op.i("V1")) == pytest.approx(1.001e-9, rel=1e-6)


class TestDcSweepForwardingRegression:
    """Bugfix: dc_sweep dropped ``gmin`` and ``retry``."""

    def _divider(self) -> Circuit:
        ckt = Circuit("sweep")
        ckt.v("in", "0", dc=0.0, name="VSWEEP")
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        return ckt

    def test_retry_is_forwarded(self):
        # Void one whole solve attempt; without the forwarded retry
        # policy the first sweep point would abort the sweep.
        retry = RetryPolicy(max_attempts=2, jitter=1e-3)
        with injected_faults({"spice.dc.attempt": 1.0}, seed=3) as inj:
            inj.specs["spice.dc.attempt"] = type(
                inj.specs["spice.dc.attempt"]
            )("spice.dc.attempt", probability=1.0, max_fires=1)
            values, results = dc_sweep(
                self._divider(), "VSWEEP", [0.0, 1.0, 2.0], retry=retry
            )
        assert len(results) == 3
        assert retry.total_retries == 1
        assert results[2].v("out") == pytest.approx(1.0, rel=1e-9)

    def test_without_retry_attempt_fault_aborts(self):
        with injected_faults({"spice.dc.attempt": 1.0}, seed=3) as inj:
            inj.specs["spice.dc.attempt"] = type(
                inj.specs["spice.dc.attempt"]
            )("spice.dc.attempt", probability=1.0, max_fires=1)
            with pytest.raises(ConvergenceError):
                dc_sweep(self._divider(), "VSWEEP", [0.0, 1.0, 2.0])

    def test_gmin_is_forwarded(self):
        values, results = dc_sweep(
            self._divider(), "VSWEEP", [1.0], gmin=1e-3
        )
        assert results[0].gmin_used == pytest.approx(1e-3)


class TestNonPositiveCapacitorRegression:
    """Bugfix: disagreeing transient capacitor guards.

    The stamping guard skipped only ``value == 0.0`` while the memory
    update ran only for ``value > 0.0``; the guards are now unified to
    ``<= 0.0`` and simulation rejects non-positive capacitance outright
    in ``Circuit.validate()``.
    """

    def _with_cap(self, value: float) -> Circuit:
        ckt = Circuit("badcap")
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "out", 1e3)
        ckt.c("out", "0", value)
        return ckt

    def test_negative_capacitor_rejected_at_construction(self):
        from repro.errors import NetlistError

        with pytest.raises(NetlistError):
            self._with_cap(-1e-12)

    def test_zero_capacitor_rejected_at_validate(self):
        with pytest.raises(SimulationError, match="non-positive"):
            self._with_cap(0.0).validate()

    def test_simulation_reports_clear_error(self):
        # Every analysis validates through System(), so the zero-value
        # capacitor is refused before any stamping can disagree.
        with pytest.raises(SimulationError, match="non-positive"):
            transient_analysis(self._with_cap(0.0), t_stop=1e-6, dt=1e-8)
        with pytest.raises(SimulationError, match="non-positive"):
            dc_operating_point(self._with_cap(0.0))


class TestCompiledStampsRefresh:
    """Value-only edits refresh the compiled stamps in place.

    The synthesis inner loop swaps MOSFET geometries and R/C values on
    one reused bench; ``stamps_for`` must serve those edits without a
    full recompile AND stay bit-identical to a fresh compile (the
    evaluation memo's exactness story depends on it).  Structural edits
    must still force a rebuild.
    """

    def _compiled(self, ckt: Circuit):
        from repro.spice.engine import stamps_for

        system = System(ckt)
        return system, stamps_for(system)

    def _assert_matches_fresh(self, system, ckt: Circuit) -> None:
        from repro.spice.engine import stamps_for

        st = stamps_for(system)
        fresh = stamps_for(System(ckt.copy()))
        assert np.array_equal(st.g_lin, fresh.g_lin)
        assert np.array_equal(st.c_lin, fresh.c_lin)
        assert np.array_equal(st.tran_g, fresh.tran_g)
        assert np.array_equal(st.src_dc, fresh.src_dc)
        # At 0.3 V every device is off; at 1.5 V the NMOS conducts in
        # saturation, where beta and vdsat (Level 3: vc) enter.
        for level in (0.3, 1.5):
            x = np.full(system.size, level)
            res_a, jac_a = assemble_dc(system, x)
            res_b, jac_b = assemble_dc(System(ckt.copy()), x)
            assert np.array_equal(res_a, res_b)
            assert np.array_equal(jac_a, jac_b)
            assert np.array_equal(
                capacitance_matrix(system, x),
                capacitance_matrix(System(ckt.copy()), x),
            )

    def test_resistor_value_swap_refreshes_in_place(self):
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        elem = ckt.element("R1")
        ckt.replace(dataclasses.replace(elem, value=elem.value * 1.7))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st  # refreshed, not rebuilt
        self._assert_matches_fresh(system, ckt)

    def test_capacitor_value_swap_refreshes_in_place(self):
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        elem = ckt.element("C1")
        ckt.replace(dataclasses.replace(elem, value=elem.value * 0.4))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st
        self._assert_matches_fresh(system, ckt)

    def test_mosfet_geometry_swap_refreshes_in_place(self):
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        elem = ckt.element("M1")
        ckt.replace(dataclasses.replace(elem, w=elem.w * 2.0, l=elem.l * 1.5))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st
        self._assert_matches_fresh(system, ckt)

    @pytest.mark.parametrize(
        "card",
        [LEVEL2_THETA, LEVEL3_VSAT, LEVEL3_VSAT.with_(theta=0.0)],
        ids=["level2_theta", "level3_vsat", "level3_vsat_no_theta"],
    )
    def test_level2_level3_geometry_swap_refreshes_in_place(self, card):
        # The in-place update must re-derive what depends on geometry:
        # beta0 (bias-independent beta without theta) and Level 3's
        # velocity-saturation voltage vc, which follows L_eff.
        ckt = _mos_amp(card)
        system, st = self._compiled(ckt)
        elem = ckt.element("M1")
        ckt.replace(dataclasses.replace(elem, w=elem.w * 2.0, l=elem.l * 1.5))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st
        self._assert_matches_fresh(system, ckt)

    def test_model_card_swap_refreshes_in_place(self):
        # A card swap flips the theta and velocity-saturation branches;
        # the refreshed stamps must take them exactly like a fresh one.
        ckt = _mos_amp(LEVEL1)
        system, st = self._compiled(ckt)
        from repro.spice.engine import stamps_for

        for card in (LEVEL3_VSAT, LEVEL2_THETA, LEVEL1):
            elem = ckt.element("M1")
            ckt.replace(dataclasses.replace(elem, model=card))
            assert stamps_for(system) is st
            self._assert_matches_fresh(system, ckt)

    def test_combined_value_sweep_stays_exact(self):
        # The synthesis pattern: many successive R/C/M value swaps on
        # one live System, each one served by refresh.
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        from repro.spice.engine import stamps_for

        for scale in (0.5, 1.25, 3.0):
            for name in ("R1", "C1"):
                elem = ckt.element(name)
                ckt.replace(
                    dataclasses.replace(elem, value=elem.value * scale)
                )
            m = ckt.element("M1")
            ckt.replace(dataclasses.replace(m, w=m.w * scale))
            assert stamps_for(system) is st
            self._assert_matches_fresh(system, ckt)

    def test_source_dc_retarget_stays_exact(self):
        # Independent-source dc edits ride the in-place fast path and
        # must reproduce a fresh compile bit for bit.
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        elem = ckt.element("V2")
        ckt.replace(dataclasses.replace(elem, dc=0.9))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st  # served in place
        self._assert_matches_fresh(system, ckt)

    def test_rebind_keeps_compiled_stamps(self):
        # System.rebind used to drop compiled stamps; now the next
        # stamps_for call refreshes them in place for value-only
        # sibling circuits — including ones whose per-instance revision
        # counter happens to equal the compiled revision (the identity
        # check, not the counter, decides freshness).
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        variant = ckt.copy()
        elem = variant.element("V2")
        variant.replace(dataclasses.replace(elem, dc=0.8))
        assert system.rebind(variant) is system
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is st  # refreshed, not rebuilt
        self._assert_matches_fresh(system, variant)

    def test_source_ac_change_forces_rebuild(self):
        # Only the dc field has a fast path: an AC magnitude edit moves
        # the element between compiled vectors, so it must recompile.
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        elem = ckt.element("V2")
        ckt.replace(dataclasses.replace(elem, ac=elem.ac + 0.5))
        from repro.spice.engine import stamps_for

        assert stamps_for(system) is not st
        self._assert_matches_fresh(system, ckt)

    def test_structural_edit_forces_rebuild(self):
        ckt = _mos_amp()
        system, st = self._compiled(ckt)
        ckt.c("g", "0", 2e-12)  # new element: structure changed
        system2 = System(ckt)  # re-index for the new element
        from repro.spice.engine import stamps_for

        assert stamps_for(system2) is not st
        fresh = stamps_for(System(ckt.copy()))
        assert np.array_equal(stamps_for(system2).g_lin, fresh.g_lin)
