"""Synthesis substrate tests: specs, cost, annealer, sizing problems."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ApeError, SpecificationError
from repro.opamp import OpAmpSpec, OpAmpTopology, design_opamp
from repro.synthesis import (
    Annealer,
    AnnealingSchedule,
    Constraint,
    CostFunction,
    Objective,
    OpAmpSizingProblem,
    SynthesisSpec,
    ape_ranges,
    opamp_synthesis_spec,
    parameterized_opamp,
    standalone_ranges,
    synthesize_opamp,
)
from repro.synthesis.cost import FAILURE_COST
from repro.technology import generic_05um

TECH = generic_05um()


def small_spec():
    return OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12, area=5000e-12)


class TestConstraint:
    def test_ge_satisfied(self):
        c = Constraint("gain", "ge", 100.0)
        assert c.violation(150.0) == 0.0
        assert c.satisfied(150.0)

    def test_ge_violated_normalized(self):
        c = Constraint("gain", "ge", 100.0)
        assert c.violation(50.0) == pytest.approx(0.5)

    def test_le_violated(self):
        c = Constraint("area", "le", 1000.0)
        assert c.violation(1500.0) == pytest.approx(0.5)

    def test_nan_counts_as_violated(self):
        c = Constraint("ugf", "ge", 1e6)
        assert c.violation(math.nan) == 1.0

    def test_bad_kind_rejected(self):
        with pytest.raises(SpecificationError):
            Constraint("gain", "between", 1.0)

    def test_bad_bound_rejected(self):
        with pytest.raises(SpecificationError):
            Constraint("gain", "ge", -5.0)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=40)
    def test_violation_nonnegative(self, value):
        c = Constraint("x", "ge", 100.0)
        assert c.violation(value) >= 0.0


class TestObjective:
    def test_minimize_term(self):
        o = Objective("power", scale=1e-3)
        assert o.term(2e-3) == pytest.approx(2.0)

    def test_maximize_term_negative(self):
        o = Objective("gain", scale=100.0, maximize=True)
        assert o.term(200.0) == pytest.approx(-2.0)

    def test_nan_neutral(self):
        o = Objective("power", scale=1e-3, weight=0.5)
        assert o.term(math.nan) == 0.5


class TestSynthesisSpec:
    def test_fluent_building(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0).minimize("power", 1e-3)
        assert len(spec.constraints) == 1
        assert len(spec.objectives) == 1

    def test_meets_with_slack(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0)
        assert spec.meets({"gain": 96.0}, slack=0.05)
        assert not spec.meets({"gain": 80.0}, slack=0.05)

    def test_violations_reported(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0).require("ugf", "ge", 1e6)
        v = spec.violations({"gain": 50.0, "ugf": 2e6})
        assert set(v) == {"gain"}

    def test_opamp_spec_translation(self):
        synth = opamp_synthesis_spec(small_spec())
        metric_names = {c.metric for c in synth.constraints}
        assert {"gain", "ugf", "gate_area"} <= metric_names
        assert any(o.metric == "dc_power" for o in synth.objectives)


class TestCostFunction:
    def test_failure_cost(self):
        cost = CostFunction(SynthesisSpec())
        assert cost(None) == FAILURE_COST

    def test_satisfied_cheaper_than_violated(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0)
        cost = CostFunction(spec)
        assert cost({"gain": 120.0}) < cost({"gain": 50.0})

    def test_objective_breaks_ties(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0).minimize("power", 1e-3)
        cost = CostFunction(spec)
        a = cost({"gain": 120.0, "power": 1e-3})
        b = cost({"gain": 120.0, "power": 2e-3})
        assert a < b

    def test_describe_failure(self):
        spec = SynthesisSpec().require("gain", "ge", 100.0)
        cost = CostFunction(spec)
        assert cost.describe_failure(None) == "doesn't work"
        assert cost.describe_failure({"gain": 150.0}) == "meets spec"
        assert "gain" in cost.describe_failure({"gain": 10.0})


class TestAnnealer:
    @staticmethod
    def quadratic(params):
        # Minimum at x = 3, y = 5 in log space.
        c = (math.log(params["x"] / 3.0)) ** 2 + (math.log(params["y"] / 5.0)) ** 2
        return c, {"cost": c}

    def test_finds_minimum_of_smooth_bowl(self):
        ann = Annealer(
            self.quadratic,
            {"x": (0.1, 100.0), "y": (0.1, 100.0)},
            seed=7,
        )
        result = ann.run(max_evaluations=600)
        assert result.best_params["x"] == pytest.approx(3.0, rel=0.5)
        assert result.best_params["y"] == pytest.approx(5.0, rel=0.5)

    def test_deterministic_for_seed(self):
        bounds = {"x": (0.1, 100.0), "y": (0.1, 100.0)}
        r1 = Annealer(self.quadratic, bounds, seed=42).run(max_evaluations=100)
        r2 = Annealer(self.quadratic, bounds, seed=42).run(max_evaluations=100)
        assert r1.best_params == r2.best_params
        assert r1.best_cost == r2.best_cost

    def test_budget_respected(self):
        ann = Annealer(self.quadratic, {"x": (0.1, 10.0), "y": (0.1, 10.0)}, seed=1)
        result = ann.run(max_evaluations=50)
        assert result.evaluations <= 50

    def test_bounds_respected(self):
        ann = Annealer(self.quadratic, {"x": (1.0, 2.0), "y": (1.0, 2.0)}, seed=1)
        result = ann.run(max_evaluations=100)
        assert 1.0 <= result.best_params["x"] <= 2.0
        assert 1.0 <= result.best_params["y"] <= 2.0

    def test_warm_start_beats_cold_on_tight_budget(self):
        bounds = {"x": (0.01, 1000.0), "y": (0.01, 1000.0)}
        warm = Annealer(self.quadratic, bounds, seed=5).run(
            x0={"x": 3.2, "y": 4.8}, max_evaluations=30
        )
        cold = Annealer(self.quadratic, bounds, seed=5).run(max_evaluations=30)
        assert warm.best_cost <= cold.best_cost

    def test_bad_bounds_rejected(self):
        # Part of the package-wide contract: everything raised here
        # derives from ApeError (a bare ValueError used to escape it).
        with pytest.raises(SpecificationError) as excinfo:
            Annealer(self.quadratic, {"x": (0.0, 1.0)})
        assert excinfo.value.context["variable"] == "x"

    def _recorded_run(self, screen, max_evaluations=60):
        """Run on the quadratic; return (result, proposals drawn,
        candidates evaluated)."""
        evaluated = []

        def evaluate(params):
            evaluated.append(params)
            return self.quadratic(params)

        ann = Annealer(
            evaluate, {"x": (0.1, 100.0), "y": (0.1, 100.0)}, seed=3,
            screen=screen,
        )
        drawn = []
        perturb = ann._perturb

        def recording_perturb(params, temperature):
            proposal = perturb(params, temperature)
            drawn.append(proposal)
            return proposal

        ann._perturb = recording_perturb
        return ann.run(max_evaluations=max_evaluations), drawn, evaluated

    def test_screen_evaluates_the_lowest_of_each_batch(self):
        from repro.synthesis.annealing import SCREEN_BATCH

        def screen(params):
            return self.quadratic(params)[0]

        result, drawn, evaluated = self._recorded_run(screen)
        moves = result.evaluations - 1
        assert SCREEN_BATCH == 4
        assert len(drawn) == SCREEN_BATCH * moves
        assert result.surrogate_skips == (SCREEN_BATCH - 1) * moves
        for index, candidate in enumerate(evaluated[1:]):
            batch = drawn[SCREEN_BATCH * index:SCREEN_BATCH * (index + 1)]
            estimates = [screen(p) for p in batch]
            assert candidate is batch[estimates.index(min(estimates))]

    def test_screen_ties_go_to_the_first_proposal(self):
        from repro.synthesis.annealing import SCREEN_BATCH

        result, drawn, evaluated = self._recorded_run(lambda params: 0.0)
        moves = result.evaluations - 1
        assert result.surrogate_skips == (SCREEN_BATCH - 1) * moves
        assert evaluated[1:] == drawn[::SCREEN_BATCH]
        assert all(
            candidate is first
            for candidate, first in zip(evaluated[1:], drawn[::SCREEN_BATCH])
        )

    def test_no_screen_draws_one_proposal_per_move(self):
        import hashlib

        result, drawn, evaluated = self._recorded_run(None, 80)
        assert evaluated[1:] == drawn
        assert result.surrogate_skips == 0
        # The one-proposal loop as it ran before screens took a cost
        # estimate: same draws, same trajectory.
        assert result.best_cost == 0.028182670776523373
        assert (result.evaluations, result.accepted) == (80, 56)
        assert hashlib.sha256(repr(result.history).encode()).hexdigest() == (
            "8b0b3ff26dec5440290db2075d2ed8faf5783fcc49008a4ce458fe2c63c728be"
        )


class TestParameterizedOpamp:
    def test_geometry_override(self):
        amp = design_opamp(TECH, small_spec(), name="t")
        point = amp.initial_point()
        key = next(k for k in point if k.endswith(".w"))
        new = parameterized_opamp(amp, {key: point[key] * 2.0})
        stage, role, _ = key.split(".")
        assert new.stages[stage].devices[role].w == pytest.approx(
            point[key] * 2.0
        )
        # Template untouched.
        assert amp.stages[stage].devices[role].w == pytest.approx(point[key])

    def test_cc_override(self):
        topo = OpAmpTopology(output_buffer=True, z_load=1e3)
        amp = design_opamp(TECH, small_spec(), topo, name="t")
        assert amp.cc > 0
        new = parameterized_opamp(amp, {"cc": 3e-12})
        assert new.cc == 3e-12

    def test_unknown_keys_ignored(self):
        amp = design_opamp(TECH, small_spec(), name="t")
        new = parameterized_opamp(amp, {"i.fake": 1.0})
        assert new.cc == amp.cc


class TestRanges:
    def test_standalone_ranges_are_wide(self):
        amp = design_opamp(TECH, small_spec(), name="t")
        ranges = {v.name: (v.lo, v.hi) for v in standalone_ranges(amp)}
        for name, (lo, hi) in ranges.items():
            assert hi / lo > 10.0, name

    def test_ape_ranges_bracket_the_estimate(self):
        amp = design_opamp(TECH, small_spec(), name="t")
        point = amp.initial_point()
        for v in ape_ranges(amp, factor=0.2):
            # Values below the hard layout floor are clamped up to it;
            # everything else must be bracketed by its +/-20 % window.
            value = max(point[v.name], v.lo)
            assert v.lo <= value <= v.hi
            assert v.hi / v.lo < 1.6

    def test_bad_factor_rejected(self):
        amp = design_opamp(TECH, small_spec(), name="t")
        with pytest.raises(ApeError):
            ape_ranges(amp, factor=1.5)


class TestOpAmpSizingProblem:
    def test_evaluate_at_ape_point_meets_spec(self):
        spec = small_spec()
        amp = design_opamp(TECH, spec, name="t")
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        metrics = problem.evaluate(amp.initial_point())
        assert metrics is not None
        assert metrics["gain"] >= spec.gain * 0.8
        assert metrics["ugf"] >= spec.ugf * 0.5

    def test_evaluate_garbage_geometry_is_bad(self):
        spec = small_spec()
        amp = design_opamp(TECH, spec, name="t")
        problem = OpAmpSizingProblem(amp, standalone_ranges(amp))
        params = {v.name: v.lo for v in problem.variables}
        metrics = problem.evaluate(params)
        cost = CostFunction(opamp_synthesis_spec(spec))
        good = problem.evaluate(amp.initial_point())
        assert cost(metrics) > cost(good)


class TestSynthesizeOpamp:
    def test_ape_mode_meets_spec(self):
        result = synthesize_opamp(
            TECH, small_spec(), mode="ape", max_evaluations=60, seed=3,
            name="t",
        )
        assert result.meets_spec
        assert result.comment == "meets spec"
        assert result.metric("gain") >= 90.0

    def test_standalone_mode_usually_fails_on_small_budget(self):
        # The paper's Table 1 phenomenon: wide ranges + fixed budget on
        # a realistic (buffered, area-constrained) specification.
        spec = OpAmpSpec(
            gain=200.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, area=2000e-12
        )
        topo = OpAmpTopology(
            current_source="wilson", output_buffer=True, z_load=1e3
        )
        failures = 0
        for seed in (1, 2, 3):
            result = synthesize_opamp(
                TECH, spec, topo, mode="standalone",
                max_evaluations=40, seed=seed, name="t",
            )
            failures += 0 if result.meets_spec else 1
        assert failures >= 2

    def test_ape_time_negligible(self):
        result = synthesize_opamp(
            TECH, small_spec(), mode="ape", max_evaluations=40, seed=1,
            name="t",
        )
        assert result.ape_seconds < 0.1 * max(result.cpu_seconds, 1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecificationError):
            synthesize_opamp(TECH, small_spec(), mode="magic")

    def test_result_records_counts(self):
        result = synthesize_opamp(
            TECH, small_spec(), mode="ape", max_evaluations=30, seed=1,
            name="t",
        )
        assert 0 < result.evaluations <= 30
        assert result.cpu_seconds > 0
