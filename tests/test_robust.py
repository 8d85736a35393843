"""Corner/yield-aware synthesis: robust cost, scheduling, recovery.

Locks in the tentpole guarantees of :mod:`repro.synthesis.robust` and
the robust path through the engine/executor stack:

* :class:`RobustCost` aggregation semantics (minimax and yield modes,
  including yield-cost monotonicity) and the constraint-aware
  worst-case metric merge;
* variant-tagged memoization never crosses corners;
* a robust run is *canonical*: identical results whatever the worker
  count (which also pins the deterministic per-sample Monte Carlo
  seeding), bit-for-bit recovery from a killed worker, and bit-exact
  ``--resume`` after an interrupt;
* a persistently failing variant degrades the run with a Diagnostic
  instead of crashing it;
* the robustness payoff itself: on the Table-3 OpAmp1 problem the
  corner-aware design beats the nominal-only design at its worst
  corner.
"""

import math

import pytest

from repro.errors import SpecificationError
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.parallel import EvalMemo
from repro.runtime import SupervisorConfig, faults
from repro.runtime.faults import FaultSpec, injected_faults
from repro.synthesis import (
    RobustCost,
    RobustEvaluator,
    RobustSpec,
    opamp_synthesis_spec,
    synthesize_opamp,
    worst_case_metrics,
)
from repro.synthesis.cost import FAILURE_COST
from repro.technology import generic_05um

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)
SYNTH_SPEC = opamp_synthesis_spec(SPEC)

#: Small-but-real robust synthesis workload shared by the run tests.
RUN_KW = dict(mode="ape", max_evaluations=12, name="rob", tolerant=True)


def _passing_metrics():
    """Metrics comfortably inside every Table-1 constraint."""
    return {
        "gain": 150.0,
        "ugf": 3e6,
        "i_ref": 2e-6,
        "phase_margin": 60.0,
        "dc_power": 1e-4,
        "gate_area": 1e-9,
    }


def _failing_metrics():
    out = _passing_metrics()
    out["gain"] = 10.0  # badly misses the >= 100 bound
    return out


def _robust_summary(result):
    return (
        result.best_cost,
        result.params,
        result.metrics,
        result.corner_evals,
        result.screened_candidates,
        result.worst_corner,
        result.estimated_yield,
        result.corner_metrics,
    )


# ------------------------------------------------------------- RobustSpec


class TestRobustSpec:
    def test_corners_canonicalized_at_construction(self):
        spec = RobustSpec(corners=("TT", "SS@-40C, 4.5V", "Ff"))
        assert spec.corners == ("tt", "ss@-40C,4.5V", "ff")

    def test_variant_labels_nominal_first(self):
        spec = RobustSpec(corners=("ss", "ff"), mc_samples=2)
        assert spec.variant_labels == (
            "nominal", "corner:ss", "corner:ff", "mc:0", "mc:1",
        )

    def test_unknown_corner_rejected_listing_known(self):
        from repro.errors import ApeError

        with pytest.raises(ApeError) as err:
            RobustSpec(corners=("xx",))
        message = str(err.value).lower()
        assert "unknown corner" in message
        assert "tt" in message and "ss" in message

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="median"),
            dict(mc_samples=-1),
            dict(yield_target=1.5),
            dict(corners=(), mc_samples=0),
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(SpecificationError):
            RobustSpec(**kwargs)

    def test_repr_is_stable_identity(self):
        # The fingerprint/worker-bundle key leans on repr stability.
        a = RobustSpec(corners=("SS",), mc_samples=1)
        b = RobustSpec(corners=("ss",), mc_samples=1)
        assert repr(a) == repr(b)


# ------------------------------------------------------------- RobustCost


class TestRobustCost:
    def test_worst_mode_is_max_over_variants(self):
        cost = RobustCost(SYNTH_SPEC, "worst")
        good, bad = _passing_metrics(), _failing_metrics()
        family = {"nominal": good, "corner:ss": bad}
        assert cost(family) == max(cost.base(good), cost.base(bad))
        assert cost(family) == cost.base(bad)
        assert cost.worst_variant(family) == "corner:ss"

    def test_failed_variant_dominates_worst_mode(self):
        cost = RobustCost(SYNTH_SPEC, "worst")
        family = {"nominal": _passing_metrics(), "corner:ff": None}
        assert cost(family) == FAILURE_COST
        assert cost.worst_variant(family) == "corner:ff"
        assert not cost.meets_spec(family)

    def test_empty_family_is_a_failure(self):
        cost = RobustCost(SYNTH_SPEC, "worst")
        assert cost({}) == FAILURE_COST
        assert cost.worst_variant({}) is None
        assert not cost.meets_spec({})

    def test_estimated_yield_counts_failures(self):
        cost = RobustCost(SYNTH_SPEC, "yield")
        family = {
            "nominal": _passing_metrics(),
            "corner:ss": _failing_metrics(),
            "corner:ff": None,
        }
        assert cost.estimated_yield(family) == pytest.approx(1 / 3)

    def test_yield_mode_at_target_competes_on_nominal_cost(self):
        cost = RobustCost(SYNTH_SPEC, "yield", yield_target=0.5)
        good = _passing_metrics()
        family = {"nominal": good, "corner:ss": _failing_metrics()}
        # Yield 0.5 meets the 0.5 target: no penalty term at all.
        assert cost(family) == pytest.approx(cost.base(good))
        assert cost.meets_spec(family)

    def test_yield_cost_monotone_in_target(self):
        """Tightening the yield target can only raise a candidate's cost."""
        family = {
            "nominal": _passing_metrics(),
            "corner:ss": _failing_metrics(),
            "corner:ff": None,
        }
        costs = [
            RobustCost(SYNTH_SPEC, "yield", yield_target=t)(family)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert costs == sorted(costs)

    def test_yield_cost_monotone_in_failing_variants(self):
        """Each additional failing variant can only raise the cost."""
        cost = RobustCost(SYNTH_SPEC, "yield", yield_target=1.0)
        good, bad = _passing_metrics(), _failing_metrics()
        families = [
            {"nominal": good, "a": good, "b": good},
            {"nominal": good, "a": good, "b": bad},
            {"nominal": good, "a": bad, "b": bad},
        ]
        costs = [cost(f) for f in families]
        assert costs[0] < costs[1] < costs[2]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            RobustCost(SYNTH_SPEC, "median")
        with pytest.raises(ValueError):
            RobustCost(SYNTH_SPEC, "yield", yield_target=2.0)


class TestWorstCaseMetrics:
    def test_two_sided_constraint_picks_most_violating(self):
        # i_ref must sit in [0.7, 1.3] * ibias = [1.4u, 2.6u]; 3.0u
        # violates the upper bound even though a blind min would keep
        # 2.0u and a blind max would be right only by accident here.
        lo = dict(_passing_metrics(), i_ref=1.0e-6)
        hi = dict(_passing_metrics(), i_ref=3.0e-6)
        merged = worst_case_metrics(
            SYNTH_SPEC, {"nominal": _passing_metrics(), "a": lo, "b": hi}
        )
        # 1.0u undershoots by 0.4u/1.4u ~ 29 %; 3.0u overshoots by
        # 0.4u/2.6u ~ 15 % — the undershoot is the worse violation.
        assert merged["i_ref"] == 1.0e-6

    def test_constraint_metrics_take_worst_direction(self):
        low_gain = dict(_passing_metrics(), gain=90.0)
        merged = worst_case_metrics(
            SYNTH_SPEC,
            {"nominal": _passing_metrics(), "corner:ss": low_gain},
        )
        assert merged["gain"] == 90.0

    def test_all_satisfying_values_keep_nominal(self):
        # Zero violation everywhere: the tie-break keeps the
        # nominal-most variant's value rather than an arbitrary one.
        also_fine = dict(_passing_metrics(), gain=110.0)
        merged = worst_case_metrics(
            SYNTH_SPEC,
            {"nominal": _passing_metrics(), "corner:ss": also_fine},
        )
        assert merged["gain"] == _passing_metrics()["gain"]

    def test_objective_metrics_take_costliest_value(self):
        hungry = dict(_passing_metrics(), dc_power=5e-4)
        merged = worst_case_metrics(
            SYNTH_SPEC, {"nominal": _passing_metrics(), "ss": hungry}
        )
        assert merged["dc_power"] == 5e-4

    def test_nan_counts_as_fully_violated(self):
        broken = dict(_passing_metrics(), gain=math.nan)
        merged = worst_case_metrics(
            SYNTH_SPEC, {"nominal": _passing_metrics(), "ss": broken}
        )
        assert math.isnan(merged["gain"])

    def test_failed_variants_are_skipped(self):
        merged = worst_case_metrics(
            SYNTH_SPEC, {"nominal": _passing_metrics(), "ss": None}
        )
        assert merged == _passing_metrics()


# ------------------------------------------------------- tagged memoization


class TestMemoTags:
    def test_tagged_entries_never_cross(self):
        memo = EvalMemo()
        params = {"w": 2e-6, "l": 1e-6}
        memo.store(params, 0.25, {"gain": 100.0})
        memo.store(params, 0.75, {"gain": 50.0}, "corner:ss")
        assert memo.lookup(params) == (0.25, {"gain": 100.0})
        assert memo.lookup(params, "corner:ss") == (0.75, {"gain": 50.0})
        assert memo.lookup(params, "corner:ff") is None

    def test_key_includes_tag(self):
        memo = EvalMemo()
        params = {"w": 2e-6}
        assert memo.key(params) != memo.key(params, "corner:ss")
        assert memo.key(params, "corner:ss") != memo.key(params, "mc:0")


# ------------------------------------------------------- evaluator behaviour


class TestRobustEvaluator:
    @pytest.fixture(scope="class")
    def template(self):
        from repro.opamp import coarse_design_opamp

        template, _ = coarse_design_opamp(TECH, SPEC, TOPO, name="rob")
        return template

    def _evaluator(self, template, **robust_kw):
        from repro.synthesis.problems import ape_ranges

        return RobustEvaluator(
            template,
            ape_ranges(template),
            RobustSpec(**robust_kw),
            SYNTH_SPEC,
        )

    def test_plain_tt_aliases_nominal(self, template):
        evaluator = self._evaluator(template, corners=("tt", "ss"))
        assert evaluator.problems["corner:tt"] is None
        params = template.initial_point()
        family = evaluator.detail(params)
        assert family["corner:tt"] == family["nominal"]
        assert family["corner:ss"] != family["nominal"]

    def test_tt_alias_does_not_resimulate_without_memo(
        self, template, monkeypatch
    ):
        from repro.synthesis.problems import OpAmpSizingProblem

        calls = []
        evaluate = OpAmpSizingProblem.evaluate

        def counted(problem, params):
            calls.append(problem)
            return evaluate(problem, params)

        monkeypatch.setattr(OpAmpSizingProblem, "evaluate", counted)
        evaluator = self._evaluator(
            template, corners=("tt", "ss", "ff"), screen_threshold=None
        )
        assert evaluator.memo is None
        family = evaluator.variants(template.initial_point())
        # nominal, ss and ff; the tt alias reuses the nominal metrics.
        assert len(calls) == 3
        assert family["corner:tt"] == family["nominal"]
        assert evaluator.corner_evaluations == 3

    def test_screen_skips_corner_fanout_for_hopeless_candidates(
        self, template
    ):
        evaluator = self._evaluator(
            template, corners=("ss",), screen_threshold=1e-12
        )
        family = evaluator.variants(template.initial_point())
        assert set(family) == {"nominal"}
        assert evaluator.screened_candidates == 1
        assert evaluator.corner_evaluations == 0

    def test_mc_sample_is_deterministic(self, template):
        a = self._evaluator(template, corners=("tt",), mc_samples=1)
        b = self._evaluator(template, corners=("tt",), mc_samples=1)
        params = template.initial_point()
        assert a.evaluate_variant("mc:0", params) == pytest.approx(
            b.evaluate_variant("mc:0", params)
        )
        # ... and genuinely perturbed relative to nominal.
        assert a.evaluate_variant("mc:0", params) != a.evaluate_variant(
            "nominal", params
        )

    def test_mc_problems_keep_factory_benches(self, template):
        """Mismatch depends on W/L, so the in-place probe refuses Monte
        Carlo benches; the warm-started sample still matches a
        from-scratch evaluation to solver tolerance."""
        from repro.synthesis.problems import OpAmpSizingProblem, ape_ranges

        variables = ape_ranges(template)
        point = template.initial_point()
        params = {
            v.name: min(max(point.get(v.name, v.lo), v.lo), v.hi)
            for v in variables
        }
        evaluator = self._evaluator(template, corners=("tt",), mc_samples=1)
        problem = evaluator.problems["mc:0"]
        metrics = problem.evaluate(params)
        assert problem._bench_broken and problem._bench_map is None
        assert problem._warm_x0 is not None
        reference = OpAmpSizingProblem(
            template, variables, reuse_state=False,
            bench_factory=problem.bench_factory,
        ).evaluate(params)
        assert metrics is not None and reference is not None
        assert set(metrics) == set(reference)
        for key, value in reference.items():
            assert metrics[key] == pytest.approx(value, rel=1e-3, abs=1e-12), key


# ----------------------------------------------------- engine integration


class TestRobustSynthesis:
    ROBUST = RobustSpec(corners=("tt", "ss", "ff"), mc_samples=1)

    @pytest.mark.timeout(300)
    def test_serial_result_carries_robust_fields(self):
        result = synthesize_opamp(
            TECH, SPEC, TOPO, seed=3, robust=self.ROBUST, **RUN_KW
        )
        assert result.robust_mode == "worst"
        assert result.corner_evals > 0
        assert result.worst_corner in self.ROBUST.variant_labels
        assert result.estimated_yield is not None
        assert set(result.corner_metrics) == set(self.ROBUST.variant_labels)
        # The reported metrics are the worst-case merge of the family.
        assert result.metrics == worst_case_metrics(
            SYNTH_SPEC, result.corner_metrics
        )

    @pytest.mark.timeout(300)
    def test_identical_across_worker_counts(self):
        """Corner + MC evaluation is canonical: the worker count (and
        with it the Monte Carlo execution order) cannot change a single
        bit of the result."""
        kwargs = dict(seed=5, restarts=2, robust=self.ROBUST, **RUN_KW)
        one = synthesize_opamp(
            TECH, SPEC, TOPO, workers=1, oversubscribe=True, **kwargs
        )
        two = synthesize_opamp(
            TECH, SPEC, TOPO, workers=2, oversubscribe=True, **kwargs
        )
        assert _robust_summary(one) == _robust_summary(two)

    @pytest.mark.timeout(300)
    def test_killed_worker_recovers_bit_for_bit(self):
        kwargs = dict(
            seed=5, restarts=2, workers=2, oversubscribe=True,
            robust=RobustSpec(corners=("tt", "ss")), **RUN_KW
        )
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        kill_one = FaultSpec("worker.kill", 1.0, max_fires=1, chain=1)
        with injected_faults({"worker.kill": kill_one}, seed=9):
            recovered = synthesize_opamp(
                TECH, SPEC, TOPO,
                supervisor=SupervisorConfig(install_signal_handlers=False),
                **kwargs,
            )
        assert recovered.worker_restarts == 1
        assert _robust_summary(recovered) == _robust_summary(reference)

    @pytest.mark.timeout(300)
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        """The acceptance criterion: interrupt a corner-aware run,
        resume it, and the result matches the uninterrupted run
        bit-for-bit — including the robust accounting."""
        kwargs = dict(
            seed=7, restarts=3, workers=1, robust=self.ROBUST, **RUN_KW
        )
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)

        run_dir = str(tmp_path / "run")
        partial = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir,
            supervisor=SupervisorConfig(
                interrupt_after=1, install_signal_handlers=False
            ),
            **kwargs,
        )
        assert partial.interrupted
        assert len(partial.chains) < 3

        resumed = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir, resume=True, **kwargs
        )
        assert not resumed.interrupted
        assert resumed.resumed_chains
        assert _robust_summary(resumed) == _robust_summary(reference)

    def test_verification_simulates_each_distinct_variant_once(
        self, monkeypatch, tmp_path
    ):
        """The ``tt`` corner aliases the nominal: the winning design's
        verification copies it instead of simulating the nominal
        twice."""
        import repro.parallel.executor as executor

        verified = []
        variant_eval = executor.robust_variant_eval

        def counting(item):
            verified.append(item[1])
            return variant_eval(item)

        monkeypatch.setattr(executor, "robust_variant_eval", counting)
        result = synthesize_opamp(
            TECH, SPEC, TOPO, seed=3, workers=1,
            robust=RobustSpec(corners=("tt", "ss", "ff")),
            run_dir=str(tmp_path / "run"), **RUN_KW
        )
        assert verified == ["nominal", "corner:ss", "corner:ff"]
        assert list(result.corner_metrics) == [
            "nominal", "corner:tt", "corner:ss", "corner:ff",
        ]
        assert result.corner_metrics["corner:tt"] == (
            result.corner_metrics["nominal"]
        )

    @pytest.mark.timeout(300)
    def test_persistently_failing_variants_degrade_not_crash(self):
        """Every DC solve failing is the extreme of a failing corner:
        the run must complete degraded with diagnostics, not raise."""
        robust = RobustSpec(corners=("tt", "ss"), screen_threshold=None)
        with injected_faults({"spice.dc": FaultSpec("spice.dc", 1.0)}, seed=3):
            result = synthesize_opamp(
                TECH, SPEC, TOPO, seed=3, robust=robust, **RUN_KW
            )
        faults.disarm()
        assert result.degraded
        assert result.best_cost == FAILURE_COST
        assert any(
            d.subsystem == "synthesis.robust" for d in result.diagnostics
        )

    @pytest.mark.timeout(300)
    def test_robust_beats_nominal_at_worst_corner(self):
        """Table-3 OpAmp1, 150 evaluations from one seed: scored by one
        shared evaluator over the same corners, the corner-aware
        design's worst-corner cost beats the nominal-only design's
        (0.311 against 1.002)."""
        from repro.opamp import coarse_design_opamp
        from repro.synthesis.problems import ape_ranges

        spec = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12)
        corners = ("TT", "SS", "FF")
        kwargs = dict(mode="ape", max_evaluations=150, seed=1,
                      name="OpAmp1", tolerant=True)
        nominal = synthesize_opamp(TECH, spec, TOPO, **kwargs)
        robust = synthesize_opamp(
            TECH, spec, TOPO, robust=RobustSpec(corners=corners), **kwargs
        )
        assert robust.corner_evals > 0
        template, _ = coarse_design_opamp(TECH, spec, TOPO, name="OpAmp1")
        yardstick = RobustEvaluator(
            template,
            ape_ranges(template),
            RobustSpec(corners=corners, screen_threshold=None),
            opamp_synthesis_spec(spec),
        )

        def worst_corner_cost(params):
            return yardstick.cost(yardstick.detail(params))

        assert worst_corner_cost(robust.params) < worst_corner_cost(
            nominal.params
        )
