"""Dense / sparse solver-backend equivalence and regressions.

The sparse (SuperLU) backend must be a drop-in replacement for the
dense path: same solutions to within strict tolerances, same error
types on singular systems, same analysis-level results end to end.
Also holds the regression tests for the three correctness fixes that
shipped with the backend work:

* transient Newton's SPICE-style relative step/residual gates
  (high-voltage steps used to stall on the floating-point residual
  floor),
* ``dominant_pole_hz`` returning |Re| of the slowest stable pole
  (complex-conjugate pairs used to report the resonance magnitude,
  off by the quality factor),
* ``system_for_op`` refusing an operating point solved on a
  structurally different circuit (a matching vector size used to be
  accepted silently).
"""

import math

import numpy as np
import pytest
import scipy.linalg

from repro.errors import SimulationError
from repro.opamp import OpAmpSpec, design_opamp, open_loop_bench
from repro.spice import (
    SPARSE_AUTO_THRESHOLD,
    Circuit,
    PulseWave,
    SineWave,
    ac_analysis,
    dc_operating_point,
    dc_sweep,
    noise_analysis,
    set_solver_mode,
    solver_mode,
    solver_override,
    transient_analysis,
    use_sparse,
)
from repro.spice import linalg
from repro.spice.awe import awe_moments, awe_poles
from repro.spice.mna import System
from repro.spice.tf import extract_transfer_function
from repro.technology import generic_05um

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


def _mos_amp() -> Circuit:
    ckt = Circuit("cs-amp")
    ckt.v("vdd", "0", dc=TECH.vdd)
    ckt.v("g", "0", dc=1.2, ac=1.0)
    ckt.r("vdd", "d", 20e3)
    ckt.m("d", "g", "0", "0", TECH.nmos, w=10e-6, l=1e-6, name="M1")
    ckt.c("d", "0", 1e-12)
    return ckt


def _ladder(sections: int = 160) -> Circuit:
    # Comfortably above SPARSE_AUTO_THRESHOLD so the auto mode takes
    # the sparse path on this fixture without any override.
    ckt = Circuit(f"ladder-{sections}")
    ckt.v("in", "0", dc=1.0, ac=1.0)
    prev = "in"
    for k in range(1, sections + 1):
        node = f"m{k}"
        ckt.r(prev, node, 100.0)
        ckt.c(node, "0", 1e-12)
        prev = node
    return ckt


def _opamp_bench() -> Circuit:
    amp = design_opamp(
        TECH, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    )
    return open_loop_bench(amp, v_diff=0.0)


FIXTURES = [_divider, _rc_with_sources, _mos_amp, _ladder, _opamp_bench]


def assert_same(a, b, rtol=1e-12) -> None:
    b = np.asarray(b)
    scale = float(np.max(np.abs(b), initial=0.0))
    np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * (1.0 + scale))


# --------------------------------------------------------------------------
# Mode selection plumbing
# --------------------------------------------------------------------------


class TestSolverModes:
    def test_auto_threshold(self):
        with solver_override("auto"):
            assert not use_sparse(SPARSE_AUTO_THRESHOLD - 1)
            assert use_sparse(SPARSE_AUTO_THRESHOLD)

    def test_forced_modes(self):
        with solver_override("dense"):
            assert not use_sparse(10**6)
        with solver_override("sparse"):
            assert use_sparse(2)

    def test_set_returns_previous_and_rejects_unknown(self):
        previous = set_solver_mode("dense")
        try:
            assert solver_mode() == "dense"
            with pytest.raises(ValueError, match="unknown solver mode"):
                set_solver_mode("superfast")
            assert solver_mode() == "dense"
        finally:
            set_solver_mode(previous)

    def test_override_restores_on_exception(self):
        before = solver_mode()
        with pytest.raises(RuntimeError):
            with solver_override("sparse"):
                raise RuntimeError("boom")
        assert solver_mode() == before

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "fancy")
        with pytest.raises(ValueError, match="REPRO_SOLVER"):
            linalg._mode_from_env()
        monkeypatch.setenv("REPRO_SOLVER", " Sparse ")
        assert linalg._mode_from_env() == "sparse"
        monkeypatch.delenv("REPRO_SOLVER")
        assert linalg._mode_from_env() == "auto"


# --------------------------------------------------------------------------
# linalg primitives: exactness and singular error mapping
# --------------------------------------------------------------------------


class TestLinalgPrimitives:
    def test_sparse_pattern_reconstructs_matrix(self):
        rng = np.random.default_rng(5)
        n = 12
        rows = rng.integers(0, n, 60)
        cols = rng.integers(0, n, 60)
        # Always include the diagonal so the matrix can be regular.
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        pattern = linalg.SparsePattern(rows, cols, n)
        dense = np.zeros((n, n))
        dense[rows, cols] = rng.normal(size=len(rows))
        dense += 5.0 * np.eye(n)
        rebuilt = pattern.csc(pattern.gather(dense)).toarray()
        assert np.array_equal(rebuilt, dense)

    def test_factor_solves_agree_across_backends(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
        b = rng.normal(size=20)
        dense = linalg.DenseFactor(a)
        sparse = linalg.SparseFactor(a)
        assert_same(sparse.solve(b), dense.solve(b))
        assert_same(sparse.solve_t(b), dense.solve_t(b))
        assert_same(dense.solve(b), np.linalg.solve(a, b))
        assert_same(dense.solve_t(b), np.linalg.solve(a.T, b))

    def test_factorize_follows_mode(self):
        a = np.eye(4)
        with solver_override("sparse"):
            assert isinstance(linalg.factorize(a), linalg.SparseFactor)
        with solver_override("dense"):
            assert isinstance(linalg.factorize(a), linalg.DenseFactor)
        assert isinstance(
            linalg.factorize(a, sparse=True), linalg.SparseFactor
        )

    def test_singular_raises_linalgerror_not_runtimeerror(self):
        singular = np.zeros((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            linalg.SparseFactor(singular)
        with pytest.raises(np.linalg.LinAlgError):
            linalg.sparse_solve(singular, np.ones(3))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_dense_factor_matches_lu_solve_bit_for_bit(self, n):
        # DenseFactor calls LAPACK getrf/getrs itself; it must return
        # exactly what scipy's lu_factor/lu_solve return.
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)) + rng.uniform(0.0, 2.0) * np.eye(n)
        reference = scipy.linalg.lu_factor(a)
        factor = linalg.DenseFactor(a)
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            for trans, solve in ((0, factor.solve), (1, factor.solve_t)):
                x = solve(b)
                ref = scipy.linalg.lu_solve(reference, b, trans=trans)
                assert x.shape == ref.shape
                assert np.array_equal(x, ref)

    def test_dense_factor_keeps_inputs_and_other_dtypes(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        b = rng.normal(size=6)
        a_copy, b_copy = a.copy(), b.copy()
        factor = linalg.DenseFactor(a)
        factor.solve(b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)
        # Complex right-hand sides and non-float64 matrices take the
        # scipy wrappers, with their dtype promotion.
        bc = b + 1j * rng.normal(size=6)
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), bc)
        assert np.array_equal(factor.solve(bc), ref)
        a32 = a.astype(np.float32)
        ref32 = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a32), b)
        assert np.array_equal(linalg.DenseFactor(a32).solve(b), ref32)
        empty = linalg.DenseFactor(np.empty((0, 0)))
        assert empty.solve(np.empty(0)).shape == (0,)

    def test_dense_factor_zero_pivot_warns_like_lu_factor(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.warns(scipy.linalg.LinAlgWarning) as ours:
            linalg.DenseFactor(singular)
        with pytest.warns(scipy.linalg.LinAlgWarning) as theirs:
            scipy.linalg.lu_factor(singular)
        assert [str(w.message) for w in ours] == [
            str(w.message) for w in theirs
        ]
        assert "Diagonal number 2 is exactly zero" in str(ours[0].message)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dense_factor_non_finite_raises_like_scipy(self, bad):
        a = np.eye(4) * 2.0
        poisoned = a.copy()
        poisoned[1, 2] = bad
        with pytest.raises(ValueError) as ours:
            linalg.DenseFactor(poisoned)
        with pytest.raises(ValueError) as theirs:
            scipy.linalg.lu_factor(poisoned)
        assert str(ours.value) == str(theirs.value)
        b = np.ones(4)
        b[3] = bad
        with pytest.raises(ValueError) as ours:
            linalg.DenseFactor(a).solve(b)
        with pytest.raises(ValueError) as theirs:
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
        assert str(ours.value) == str(theirs.value)


# --------------------------------------------------------------------------
# End-to-end analysis equivalence, dense vs sparse
# --------------------------------------------------------------------------


@pytest.mark.parametrize("build", FIXTURES, ids=lambda b: b.__name__.strip("_"))
class TestBackendEquivalence:
    def _both(self, fn):
        with solver_override("dense"):
            ref = fn()
        with solver_override("sparse"):
            out = fn()
        return out, ref

    def test_operating_point(self, build):
        op_s, op_d = self._both(lambda: dc_operating_point(build()))
        assert_same(op_s.x, op_d.x, rtol=1e-9)

    def test_ac_sweep(self, build):
        ckt = build()
        op = dc_operating_point(ckt)
        freqs = np.logspace(1, 9, 25)

        def run():
            return ac_analysis(ckt, op=op, frequencies=freqs).solutions

        ac_s, ac_d = self._both(run)
        assert_same(ac_s, ac_d, rtol=1e-9)

    def test_transient(self, build):
        ckt = build()
        op = dc_operating_point(ckt)

        def run():
            return transient_analysis(
                ckt, t_stop=5e-8, dt=1e-9, op=op
            ).solutions

        tr_s, tr_d = self._both(run)
        assert_same(tr_s, tr_d, rtol=1e-9)

    def test_awe_moments(self, build):
        ckt = build()
        op = dc_operating_point(ckt)
        system = System(ckt)
        out = next(
            node
            for node in ("out", "d", "m160")
            if node in system.node_index
        )

        def run():
            return awe_moments(ckt, out, 6, op=op)

        m_s, m_d = self._both(run)
        assert_same(m_s, m_d, rtol=1e-9)


class TestNoiseBackendEquivalence:
    # Separate from the fixture sweep: noise needs a named input source
    # and a biased active device to be interesting.
    def test_mos_amp_noise(self):
        ckt = _mos_amp()
        op = dc_operating_point(ckt)
        freqs = np.logspace(2, 8, 13)

        def run():
            return noise_analysis(
                ckt, "d", freqs, input_source="V2", op=op
            )

        with solver_override("dense"):
            ref = run()
        with solver_override("sparse"):
            out = run()
        assert_same(out.output_psd, ref.output_psd, rtol=1e-9)
        assert_same(out.input_psd, ref.input_psd, rtol=1e-9)
        for name in ref.contributions:
            assert_same(
                out.contributions[name], ref.contributions[name], rtol=1e-9
            )

    def test_ladder_noise_auto_takes_sparse(self):
        ckt = _ladder()
        op = dc_operating_point(ckt)
        freqs = np.logspace(3, 7, 5)
        with solver_override("auto"):
            auto = noise_analysis(ckt, "m160", freqs, op=op)
        with solver_override("dense"):
            ref = noise_analysis(ckt, "m160", freqs, op=op)
        assert_same(auto.output_psd, ref.output_psd, rtol=1e-9)


class TestSweepEquivalence:
    def test_dc_sweep_matches(self):
        def run():
            ckt = Circuit("sweep")
            ckt.v("in", "0", dc=0.0, name="VS")
            ckt.r("in", "out", 1e3)
            ckt.r("out", "0", 1e3)
            _, results = dc_sweep(ckt, "VS", [0.0, 0.5, 1.0, 2.0])
            return np.stack([r.x for r in results])

        with solver_override("dense"):
            ref = run()
        with solver_override("sparse"):
            out = run()
        assert_same(out, ref, rtol=1e-9)


# --------------------------------------------------------------------------
# Regression: transient Newton stall on high-voltage steps
# --------------------------------------------------------------------------


class TestTransientHighVoltageRegression:
    """Bugfix: SPICE-style relative step/residual gates in ``_newton_tran``.

    A kilovolt supply across nano-ohm resistances drives ~1e11 A;
    floating-point assembly alone leaves a residual around 1e-4 A and a
    dx noise floor proportional to the solution.  The old absolute
    gates (1e-9 V step, 1e-9/1e-6 A residual) could never be met, so
    every step exhausted its halving budget and the run died with
    ConvergenceError even though the solution was exact to machine
    precision.
    """

    R_TOP, R_BOT = 1e-12, 1e-18

    def _kilovolt(self) -> Circuit:
        # ~1e12 A of divider current (the residual floor scales with
        # it) while the free node stays at millivolts, so the damped
        # Newton reaches it in one step and only the residual gate is
        # in play.
        ckt = Circuit("kilovolt-tran")
        ckt.v(
            "n", "0", dc=1000.0,
            wave=PulseWave(
                v1=1000.0, v2=999.6, delay=5e-9, rise=1e-12, width=1.0
            ),
            name="V1",
        )
        ckt.r("n", "mid", self.R_TOP)
        ckt.r("mid", "0", self.R_BOT)
        ckt.c("mid", "0", 1e-6)
        return ckt

    def test_high_voltage_transient_converges(self):
        ckt = self._kilovolt()
        ratio = self.R_BOT / (self.R_TOP + self.R_BOT)
        result = transient_analysis(ckt, t_stop=2e-8, dt=1e-9)
        assert result.at("mid", 0.0) == pytest.approx(
            1000.0 * ratio, rel=1e-4
        )
        # After the pulse edge the divider tracks instantly (the RC
        # time constant is ~1e-21 s, far below the step).
        assert result.at("mid", 1.9e-8) == pytest.approx(
            999.6 * ratio, rel=1e-4
        )

    def test_small_signal_circuits_keep_tight_gates(self):
        # The relative gates must not loosen ordinary circuits: a
        # nanoamp-scale RC still settles to its exact divider value.
        ckt = Circuit("nano-tran")
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "out", 1e9)
        ckt.r("out", "0", 1e9)
        ckt.c("out", "0", 1e-15)
        result = transient_analysis(ckt, t_stop=2e-5, dt=1e-6)
        # The gmin leak (1e-12 S) is visible against 1e-9 S resistors.
        expected = 1e-9 / (2e-9 + 1e-12)
        assert result.at("out", 1.9e-5) == pytest.approx(expected, rel=1e-6)


# --------------------------------------------------------------------------
# Regression: dominant pole of a complex-conjugate pair
# --------------------------------------------------------------------------


class TestDominantPoleComplexPairRegression:
    """Bugfix: ``dominant_pole_hz`` reports |Re|, not |p|.

    A series RLC with R=10, L=1 mH, C=1 nF has a conjugate pair at
    -5000 +/- j~1e6 rad/s (Q = 100).  The bandwidth-setting corner is
    the decay rate alpha = R/2L = 5000 rad/s; the old code returned the
    pole magnitude ~1e6 rad/s — the resonance frequency, off by Q.
    """

    R, L, C = 10.0, 1e-3, 1e-9

    def _rlc(self) -> Circuit:
        ckt = Circuit("series-rlc")
        ckt.v("in", "0", dc=0.0, ac=1.0)
        ckt.r("in", "a", self.R)
        ckt.ind("a", "b", self.L)
        ckt.c("b", "0", self.C)
        return ckt

    @property
    def alpha_hz(self) -> float:
        return self.R / (2.0 * self.L) / (2.0 * math.pi)

    @property
    def resonance_hz(self) -> float:
        return 1.0 / math.sqrt(self.L * self.C) / (2.0 * math.pi)

    def test_awe_dominant_pole_is_decay_rate(self):
        model = awe_poles(self._rlc(), "b", order=2)
        # The fitted pair really is complex (high-Q), so this exercises
        # the |Re| branch rather than a degenerate real-pole fit.
        assert np.any(np.abs(np.imag(model.poles)) > 1e5)
        assert model.dominant_pole_hz == pytest.approx(
            self.alpha_hz, rel=1e-3
        )
        assert model.dominant_pole_hz < 0.01 * self.resonance_hz

    def test_exact_tf_dominant_pole_matches(self):
        tf = extract_transfer_function(self._rlc(), "b")
        assert tf.dominant_pole_hz() == pytest.approx(
            self.alpha_hz, rel=1e-6
        )

    def test_real_poles_unchanged(self):
        # Two widely split real poles: the dominant one is still simply
        # the smallest pole magnitude.
        ckt = Circuit("two-pole-rc")
        ckt.v("in", "0", dc=0.0, ac=1.0)
        ckt.r("in", "a", 1e3)
        ckt.c("a", "0", 1e-6)  # 1 kHz / (2 pi)
        ckt.r("a", "b", 1e3)
        ckt.c("b", "0", 1e-9)  # ~1 MHz / (2 pi)
        tf = extract_transfer_function(ckt, "b")
        # Interacting RC sections shift the exact poles; the dominant
        # one stays within a few percent of the single-section estimate.
        assert tf.dominant_pole_hz() == pytest.approx(
            1.0 / (2.0 * math.pi * 1e3 * 1e-6), rel=0.05
        )


# --------------------------------------------------------------------------
# Regression: foreign operating points are rejected, not misused
# --------------------------------------------------------------------------


class TestForeignOperatingPointRegression:
    """Bugfix: analyses guard ``op`` via ``system_for_op``.

    Two same-size circuits used to be interchangeable: an operating
    point solved on circuit A silently biased circuit B's sweep when
    the unknown counts happened to match.
    """

    def _pair(self):
        # Same unknown count (3), different wiring/names.
        a = Circuit("ckt-a")
        a.v("in", "0", dc=1.0, ac=1.0)
        a.r("in", "out", 1e3)
        a.r("out", "0", 1e3)
        b = Circuit("ckt-b")
        b.v("in", "0", dc=2.0, ac=1.0)
        b.r("in", "top", 2e3)
        b.c("top", "0", 1e-9)
        return a, b

    def test_sizes_really_match(self):
        a, b = self._pair()
        assert System(a).size == System(b).size

    def test_ac_rejects_foreign_op(self):
        a, b = self._pair()
        op_a = dc_operating_point(a)
        with pytest.raises(SimulationError, match="structurally different"):
            ac_analysis(b, op=op_a, frequencies=[1e3])

    def test_noise_rejects_foreign_op(self):
        a, b = self._pair()
        op_a = dc_operating_point(a)
        with pytest.raises(SimulationError, match="structurally different"):
            noise_analysis(b, "top", [1e3], op=op_a)

    def test_transient_rejects_foreign_op(self):
        a, b = self._pair()
        op_a = dc_operating_point(a)
        with pytest.raises(SimulationError, match="structurally different"):
            transient_analysis(b, t_stop=1e-6, dt=1e-8, op=op_a)

    def test_awe_rejects_foreign_op(self):
        a, b = self._pair()
        op_a = dc_operating_point(a)
        with pytest.raises(SimulationError, match="structurally different"):
            awe_moments(b, "top", 4, op=op_a)

    def test_same_structure_different_values_still_accepted(self):
        # The guard keys on structure, not values: re-using an op across
        # a value-only variant is the synthesis loop's bread and butter.
        a, _ = self._pair()
        import dataclasses

        variant = a.copy()
        elem = variant.element("R1")
        variant.replace(dataclasses.replace(elem, value=5e3))
        op_a = dc_operating_point(a)
        ac = ac_analysis(variant, op=op_a, frequencies=[1e3])
        assert np.all(np.isfinite(ac.solutions))


class TestForcedBackendKeysTheRun:
    """A forced backend moves result bits, so it is part of the keys of
    the evaluation store and the run journal: a sparse run never reads
    a dense run's rows, and a sparse run dir never resumes under dense
    (``auto``, the default, adds no key part)."""

    SPEC = OpAmpSpec(gain=100.0, ugf=2e6)
    RUN = dict(mode="ape", max_evaluations=40, seed=3)

    @staticmethod
    def _bits(result):
        return (
            result.best_cost.hex(),
            sorted((k, v.hex()) for k, v in result.params.items()),
            sorted((k, v.hex()) for k, v in result.metrics.items()),
            [chain.history for chain in result.chains],
        )

    @pytest.mark.timeout(300)
    def test_a_sparse_run_ignores_a_dense_store(self, tmp_path):
        from repro.synthesis import synthesize_opamp

        store_dir = str(tmp_path / "store")
        with solver_override("dense"):
            dense = synthesize_opamp(
                TECH, self.SPEC, store_dir=store_dir, **self.RUN
            )
        with solver_override("sparse"):
            stored = synthesize_opamp(
                TECH, self.SPEC, store_dir=store_dir, **self.RUN
            )
            plain = synthesize_opamp(TECH, self.SPEC, **self.RUN)
        assert dense.store_writes > 0
        assert stored.store_hits == 0
        assert self._bits(stored) == self._bits(plain)
        # The backends do differ in the last bits here, so a shared
        # key would have served the dense floats.
        assert dense.metrics["ugf"] != plain.metrics["ugf"]

    def test_a_sparse_run_dir_is_refused_under_dense(self, tmp_path):
        from repro.errors import SpecificationError
        from repro.synthesis import synthesize_opamp

        run = dict(self.RUN, max_evaluations=5, run_dir=str(tmp_path / "r"))
        with solver_override("sparse"):
            synthesize_opamp(TECH, self.SPEC, **run)
        with solver_override("dense"), pytest.raises(
            SpecificationError, match="refusing to resume"
        ):
            synthesize_opamp(TECH, self.SPEC, resume=True, **run)
