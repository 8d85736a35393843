"""Fault-injection harness tests: every recovery path actually fires.

The deterministic injector (:mod:`repro.runtime.faults`) is armed at
instrumented sites in the DC solver, the AWE evaluator and the sizing
estimators; each test proves one recovery path of the fault-tolerant
runtime — retries, budgets, graceful degradation — actually engages,
with *exact* (not statistical) failure accounting.

The seed matrix is driven by ``REPRO_FAULT_SEED`` (used by CI's
fault-injection job); the assertions hold for any seed.
"""

import os

import pytest

from repro.errors import (
    ApeError,
    ConvergenceError,
    EstimationError,
    SimulationError,
)
from repro.opamp import (
    OpAmpSpec,
    OpAmpTopology,
    coarse_design_opamp,
    design_opamp,
)
from repro.opamp.benches import open_loop_bench
from repro.runtime import Diagnostic, DiagnosticLog, EvalBudget, RetryPolicy
from repro.runtime.diagnostics import global_log
from repro.runtime.faults import (
    FaultInjector,
    FaultSpec,
    active,
    arm_from_env,
    disarm,
    injected_faults,
)
from repro.spice import Circuit, awe_poles, dc_operating_point
from repro.synthesis import OpAmpSizingProblem, ape_ranges, synthesize_opamp
from repro.technology import generic_05um

SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))
TECH = generic_05um()


def small_spec():
    return OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12, area=5000e-12)


def rc_divider():
    ckt = Circuit("divider")
    ckt.v("in", "0", dc=10.0)
    ckt.r("in", "out", 1e3)
    ckt.r("out", "0", 3e3)
    return ckt


class TestFaultInjector:
    def test_deterministic_for_seed(self):
        a = FaultInjector({"x": 0.5}, seed=SEED)
        b = FaultInjector({"x": 0.5}, seed=SEED)
        seq_a = [a.fires_at("x") for _ in range(50)]
        seq_b = [b.fires_at("x") for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_unknown_site_never_fires(self):
        inj = FaultInjector({"x": 1.0}, seed=SEED)
        assert not inj.fires_at("y")
        assert inj.checks_by_site.get("y") is None

    def test_max_fires_cap(self):
        inj = FaultInjector(
            {"x": FaultSpec("x", probability=1.0, max_fires=2)}, seed=SEED
        )
        assert [inj.fires_at("x") for _ in range(4)] == [
            True, True, False, False,
        ]

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", probability=1.5)

    def test_disarmed_is_free(self):
        disarm()
        assert active() is None
        # Instrumented call sites behave exactly as unpatched code.
        op = dc_operating_point(rc_divider())
        assert op.v("out") == pytest.approx(7.5, rel=1e-6)

    def test_context_manager_restores_previous(self):
        with injected_faults({"a": 1.0}, seed=1) as outer:
            with injected_faults({"b": 1.0}, seed=2):
                assert active() is not outer
            assert active() is outer
        assert active() is None

    def test_arm_from_env(self):
        injector = arm_from_env(
            {"REPRO_FAULTS": "seed=5,spice.dc=0.25,spice.awe=1.0:3"}
        )
        try:
            assert injector is not None
            assert injector.seed == 5
            assert injector.specs["spice.dc"].probability == 0.25
            assert injector.specs["spice.awe"].max_fires == 3
        finally:
            disarm()

    def test_arm_from_env_absent_is_noop(self):
        assert arm_from_env({}) is None
        assert active() is None

    def test_arm_from_env_malformed_rejected(self):
        with pytest.raises(ApeError):
            arm_from_env({"REPRO_FAULTS": "spice.dc"})
        disarm()

    def test_arm_from_env_bad_values_rejected(self):
        # ValueError from FaultSpec must surface as a clean ApeError so
        # the CLI reports it instead of leaking a traceback.
        with pytest.raises(ApeError):
            arm_from_env({"REPRO_FAULTS": "spice.dc=1.5"})
        with pytest.raises(ApeError):
            arm_from_env({"REPRO_FAULTS": "spice.dc=0.2:x"})
        disarm()


class TestDcRecovery:
    def test_injected_dc_fault_raises_with_context(self):
        with injected_faults({"spice.dc": 1.0}, seed=SEED):
            with pytest.raises(ConvergenceError) as excinfo:
                dc_operating_point(rc_divider())
        assert excinfo.value.context["injected"] is True

    def test_ladder_recovers_when_newton_is_killed(self):
        # Regression: with plain Newton disabled the gmin/source-stepping
        # ladder must still converge to the same operating point.
        amp = design_opamp(TECH, small_spec(), name="t")
        bench = open_loop_bench(amp, v_diff=0.0)
        clean = dc_operating_point(bench)
        with injected_faults({"spice.dc.newton": 1.0}, seed=SEED) as inj:
            laddered = dc_operating_point(bench)
        assert inj.fires_by_site["spice.dc.newton"] >= 1
        for node, voltage in clean.voltages.items():
            assert laddered.voltages[node] == pytest.approx(
                voltage, rel=1e-4, abs=1e-6
            )

    def test_retry_policy_recovers_a_voided_attempt(self):
        # The whole first solve attempt (ladder included) is voided;
        # only the RetryPolicy's jittered second attempt can succeed.
        retry = RetryPolicy(max_attempts=3, seed=SEED)
        spec = {"spice.dc.attempt": FaultSpec(
            "spice.dc.attempt", probability=1.0, max_fires=1,
        )}
        with injected_faults(spec, seed=SEED):
            op = dc_operating_point(rc_divider(), retry=retry)
        assert retry.total_retries == 1
        assert op.v("out") == pytest.approx(7.5, rel=1e-4)

    def test_without_retry_policy_the_voided_attempt_is_fatal(self):
        spec = {"spice.dc.attempt": FaultSpec(
            "spice.dc.attempt", probability=1.0, max_fires=1,
        )}
        with injected_faults(spec, seed=SEED):
            with pytest.raises(ConvergenceError) as excinfo:
                dc_operating_point(rc_divider())
        assert excinfo.value.context["attempts"] == 1

    def test_retry_budget_is_bounded(self):
        retry = RetryPolicy(max_attempts=3, seed=SEED)
        with injected_faults({"spice.dc.attempt": 1.0}, seed=SEED):
            with pytest.raises(ConvergenceError) as excinfo:
                dc_operating_point(rc_divider(), retry=retry)
        assert excinfo.value.context["attempts"] == 3
        assert retry.total_retries == 2


class TestAweRecovery:
    def test_injected_awe_fault_raises(self):
        ckt = Circuit("rc")
        ckt.v("in", "0", dc=0.0, ac=1.0)
        ckt.r("in", "out", 1e3)
        ckt.c("out", "0", 1e-9)
        with injected_faults({"spice.awe": 1.0}, seed=SEED):
            with pytest.raises(SimulationError):
                awe_poles(ckt, "out", order=1)

    def test_evaluation_degrades_to_dead_gain(self):
        # An AWE failure inside candidate evaluation must degrade the
        # metrics (zero gain), not kill the evaluation.
        amp = design_opamp(TECH, small_spec(), name="t")
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        with injected_faults({"spice.awe": 1.0}, seed=SEED):
            metrics = problem.evaluate(amp.initial_point())
        assert metrics is not None
        assert metrics["gain"] == 0.0


class TestEstimatorFallback:
    def test_transient_design_fault_recovered(self):
        spec = {"estimator.opamp": FaultSpec(
            "estimator.opamp", probability=1.0, max_fires=1,
        )}
        with injected_faults(spec, seed=SEED):
            amp, notes = coarse_design_opamp(TECH, small_spec(), name="t")
        assert amp.estimate.gain >= 100.0
        assert len(notes) == 2  # the failure + the recovery record
        assert notes[0].subsystem == "estimator.opamp"
        assert notes[0].exception_chain

    def test_persistent_design_fault_propagates(self):
        with injected_faults({"estimator.opamp": 1.0}, seed=SEED):
            with pytest.raises(EstimationError):
                coarse_design_opamp(TECH, small_spec(), name="t")

    def test_infeasible_gain_falls_back_to_coarser_estimate(self):
        # Find a genuinely infeasible gain for the strict estimator.
        gain = 1000.0
        while gain < 1e12:
            try:
                design_opamp(
                    TECH, OpAmpSpec(gain=gain, ugf=2e6), name="t"
                )
            except EstimationError:
                break
            gain *= 2.0
        else:
            pytest.skip("no infeasible gain found below 1e12")
        amp, notes = coarse_design_opamp(
            TECH, OpAmpSpec(gain=gain, ugf=2e6), name="t"
        )
        assert amp.estimate.gain > 0
        assert any("degraded estimate" in n.message for n in notes)
        assert notes[-1].context["requested_gain"] == gain
        assert notes[-1].context["delivered_gain"] < gain

    def test_facade_tolerant_component_fallback(self):
        from repro import AnalogPerformanceEstimator

        ape = AnalogPerformanceEstimator(TECH, tolerant=True)
        spec = {"estimator.component": FaultSpec(
            "estimator.component", probability=1.0, max_fires=1,
        )}
        with injected_faults(spec, seed=SEED):
            comp = ape.estimate_component("mirror", current=50e-6)
        assert comp.devices
        assert len(ape.diagnostics) >= 1
        assert comp.diagnostics[0].subsystem == "estimator.component"

    def test_facade_strict_component_propagates(self):
        from repro import AnalogPerformanceEstimator

        ape = AnalogPerformanceEstimator(TECH, tolerant=False)
        with injected_faults({"estimator.component": 1.0}, seed=SEED):
            with pytest.raises(EstimationError):
                ape.estimate_component("mirror", current=50e-6)

    def test_facade_tolerant_opamp_records_diagnostics(self):
        from repro import AnalogPerformanceEstimator

        ape = AnalogPerformanceEstimator(TECH, tolerant=True)
        spec = {"estimator.opamp": FaultSpec(
            "estimator.opamp", probability=1.0, max_fires=1,
        )}
        with injected_faults(spec, seed=SEED):
            amp = ape.estimate_opamp(gain=100.0, ugf=2e6)
        assert amp.estimate.gain >= 100.0
        assert len(ape.diagnostics) == 2


class TestSynthesisUnderFaults:
    """The acceptance scenario: 20 % per-evaluation failure rate."""

    @pytest.mark.parametrize("mode", ["standalone", "ape"])
    def test_completes_with_exact_failure_counts(self, mode):
        with injected_faults({"synthesis.evaluate": 0.2}, seed=SEED) as inj:
            result = synthesize_opamp(
                TECH, small_spec(), mode=mode,
                max_evaluations=40, seed=3, name="t",
            )
        # One check per evaluation: the probability IS the per-eval rate.
        assert inj.checks_by_site["synthesis.evaluate"] == result.evaluations
        fires = inj.fires_by_site.get("synthesis.evaluate", 0)
        assert result.failed_evaluations == fires
        # Every failure carries a structured diagnostic.
        eval_diags = [
            d for d in result.diagnostics if d.subsystem == "synthesis.evaluate"
        ]
        assert len(eval_diags) == result.failed_evaluations
        assert isinstance(result.meets_spec, bool)

    def test_ape_mode_survives_twenty_percent_failures(self):
        with injected_faults({"synthesis.evaluate": 0.2}, seed=7):
            result = synthesize_opamp(
                TECH, small_spec(), mode="ape",
                max_evaluations=40, seed=3, name="t",
            )
        assert result.failed_evaluations > 0
        assert result.meets_spec  # APE's tight ranges absorb the faults

    def test_fault_runs_are_reproducible(self):
        def run():
            with injected_faults({"synthesis.evaluate": 0.2}, seed=SEED):
                return synthesize_opamp(
                    TECH, small_spec(), mode="ape",
                    max_evaluations=40, seed=3, name="t",
                )
        a, b = run(), run()
        assert a.failed_evaluations == b.failed_evaluations
        assert a.best_cost == b.best_cost
        assert a.params == b.params

    def test_disarmed_reproduces_the_baseline_bit_for_bit(self):
        baseline = synthesize_opamp(
            TECH, small_spec(), mode="ape",
            max_evaluations=40, seed=3, name="t",
        )
        with injected_faults({"synthesis.evaluate": 0.2}, seed=SEED):
            faulted = synthesize_opamp(
                TECH, small_spec(), mode="ape",
                max_evaluations=40, seed=3, name="t",
            )
        after = synthesize_opamp(
            TECH, small_spec(), mode="ape",
            max_evaluations=40, seed=3, name="t",
        )
        assert faulted.failed_evaluations > 0
        assert after.failed_evaluations == baseline.failed_evaluations == 0
        assert after.best_cost == baseline.best_cost
        assert after.params == baseline.params
        assert after.metrics == baseline.metrics

    def test_strict_mode_propagates_injected_faults(self):
        with injected_faults({"estimator.opamp": 1.0}, seed=SEED):
            with pytest.raises(EstimationError):
                synthesize_opamp(
                    TECH, small_spec(), mode="ape",
                    max_evaluations=10, seed=3, name="t", tolerant=False,
                )


class TestBudgets:
    def test_failure_budget_stops_the_run_degraded(self):
        budget = EvalBudget(max_failures=5)
        with injected_faults({"synthesis.evaluate": 1.0}, seed=SEED):
            result = synthesize_opamp(
                TECH, small_spec(), mode="ape",
                max_evaluations=200, seed=3, name="t", budget=budget,
            )
        assert result.degraded
        assert result.failed_evaluations == 5
        assert result.evaluations == 5
        assert any(
            "failure budget" in d.message for d in result.diagnostics
        )

    def test_deadline_stops_the_run_degraded(self):
        ticks = iter(range(10_000))
        budget = EvalBudget(
            deadline_seconds=3.0, clock=lambda: float(next(ticks))
        )
        result = synthesize_opamp(
            TECH, small_spec(), mode="ape",
            max_evaluations=200, seed=3, name="t", budget=budget,
        )
        assert result.degraded
        assert result.evaluations < 200
        assert any("deadline" in d.message for d in result.diagnostics)
        assert result.metrics is not None  # best point so far survives

    @pytest.mark.parametrize("runs", [
        dict(),
        dict(journaled=True),
        dict(restarts=2, workers=1),
        dict(restarts=2, workers=2, oversubscribe=True),
    ], ids=["one-chain", "journaled", "two-chains-in-process", "pooled"])
    def test_evaluation_budget_applies_to_every_chain(self, runs, tmp_path):
        runs = dict(runs)
        if runs.pop("journaled", False):
            runs["run_dir"] = str(tmp_path / "run")
        budget = EvalBudget(max_evaluations=5)
        result = synthesize_opamp(
            TECH, small_spec(), mode="ape",
            max_evaluations=40, seed=3, name="t", budget=budget, **runs,
        )
        assert result.degraded
        assert len(result.chains) == runs.get("restarts", 1)
        for chain in result.chains:
            assert chain.evaluations == 5
            assert chain.degraded
            assert chain.stop_reason == "evaluation budget exhausted"
        assert budget.evaluations == result.evaluations

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EvalBudget(max_evaluations=0)
        with pytest.raises(ValueError):
            EvalBudget(deadline_seconds=-1.0)

    def test_budget_accounting(self):
        budget = EvalBudget(max_evaluations=3)
        budget.consume(failed=False)
        budget.consume(failed=True)
        assert budget.evaluations == 2
        assert budget.failures == 1
        assert budget.remaining_evaluations() == 1
        assert not budget.exhausted()
        budget.consume()
        assert budget.exhausted_reason() == "evaluation budget exhausted"


class TestRetryPolicy:
    def test_scale_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.05, backoff=4.0)
        assert policy.scale(1) == pytest.approx(0.05)
        assert policy.scale(2) == pytest.approx(0.20)
        assert policy.scale(3) == pytest.approx(0.80)

    def test_streams_are_deterministic_and_distinct(self):
        policy = RetryPolicy(seed=SEED)
        a = policy.rng(1).random()
        b = policy.rng(1).random()
        c = policy.rng(2).random()
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestDiagnostics:
    def test_from_exception_preserves_chain_and_context(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as inner:
                raise SimulationError(
                    "solve failed", context={"node": "out"}
                ) from inner
        except SimulationError as exc:
            diag = Diagnostic.from_exception(
                "spice.dc", exc, suggested_fix="perturb the guess"
            )
        assert diag.context["node"] == "out"
        assert any("root cause" in entry for entry in diag.exception_chain)
        rendered = diag.render()
        assert "spice.dc" in rendered and "fix:" in rendered

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(subsystem="x", severity="fatal", message="m")

    def test_log_mirrors_to_session_log(self):
        global_log().clear()
        log = DiagnosticLog()
        log.record(Diagnostic("x", "info", "hello"))
        assert len(log) == 1
        assert len(global_log()) == 1
        global_log().clear()

    def test_worst_severity(self):
        log = DiagnosticLog()
        assert log.worst_severity() is None
        log.records.append(Diagnostic("x", "info", "a"))
        log.records.append(Diagnostic("x", "error", "b"))
        log.records.append(Diagnostic("x", "warning", "c"))
        assert log.worst_severity() == "error"

    def test_error_context_rendering(self):
        err = SimulationError("boom", context={"component": "M1", "w": 2e-6})
        assert "boom" in str(err)
        assert "component='M1'" in str(err)
        err.with_context(l=1e-6)
        assert "l=1e-06" in str(err)
