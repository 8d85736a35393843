"""Spec feasibility analyzer tests.

Four layers, mirroring :mod:`repro.analysis`:

* interval arithmetic semantics (outward rounding, zero-crossing
  division, domain clips),
* the soundness property — every concrete in-box evaluation of the
  metric model falls inside the interval bounds computed for the box,
* the rule catalog's F/C/W verdicts on crafted specifications,
* the synthesis-engine gate (``feasibility=`` modes) and the ``repro
  analyze`` CLI over the committed ``examples/specs`` fixtures.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.analysis import (
    BOUNDED_METRICS,
    Interval,
    MetricModel,
    analyze_problem,
    contract_box,
    iexp,
    ilog,
    imax,
    imin,
    isqrt,
    screen_topologies,
    structural_gain_limit,
)
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.opamp.estimator import coarse_design_opamp, design_opamp
from repro.runtime.diagnostics import DiagnosticLog
from repro.synthesis import SynthesisSpec, opamp_synthesis_spec, synthesize_opamp
from repro.synthesis.problems import ape_ranges, standalone_ranges
from repro.technology import generic_05um

TECH = generic_05um()
OPAMP1 = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12)

#: Fixture topologies spanning the closed-form model: tail kinds,
#: diff-pair loads, one/two stages, resistive-load buffer.
TOPOLOGIES = {
    "mirror_cmos": OpAmpTopology(),
    "wilson_buffer": OpAmpTopology(
        current_source="wilson", output_buffer=True, z_load=1e3
    ),
    "cascode_nmos": OpAmpTopology(current_source="cascode", diff_pair="nmos"),
}


def _template(topology: OpAmpTopology, spec: OpAmpSpec = OPAMP1):
    try:
        return design_opamp(TECH, spec, topology, name="fixture")
    except Exception:
        amp, _diags = coarse_design_opamp(TECH, spec, topology, name="fixture")
        return amp


def _sample(box, rng):
    return {
        name: math.exp(rng.uniform(math.log(lo), math.log(hi)))
        for name, (lo, hi) in box.items()
    }


# ---------------------------------------------------------------- intervals


class TestInterval:
    def test_point_and_contains(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999)
        assert Interval.point(3.0).is_point

    def test_add_mul_contain_endpoint_products(self):
        a = Interval(-2.0, 3.0)
        b = Interval(0.5, 4.0)
        prod = a * b
        for x in (-2.0, 3.0):
            for y in (0.5, 4.0):
                assert prod.contains(x * y)
        total = a + b
        assert total.contains(-1.5) and total.contains(7.0)

    def test_outward_rounding_keeps_float_products_inside(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.uniform(-1e3, 1e3)
            y = rng.uniform(-1e3, 1e3)
            assert (Interval.point(x) * Interval.point(y)).contains(x * y)
            if y != 0:
                assert (Interval.point(x) / Interval.point(y)).contains(x / y)

    def test_division_through_zero_is_whole_line(self):
        iv = Interval(1.0, 2.0) / Interval(-1.0, 1.0)
        assert iv.lo == -math.inf and iv.hi == math.inf
        iv = Interval(1.0, 2.0) / Interval(0.0, 0.0)
        assert iv.lo == -math.inf and iv.hi == math.inf

    def test_division_by_positive_interval(self):
        iv = Interval(1.0, 2.0) / Interval(4.0, 8.0)
        assert iv.contains(1.0 / 8.0) and iv.contains(0.5)
        assert iv.lo <= 0.125 and iv.hi >= 0.5

    def test_even_power_straddle_includes_zero(self):
        iv = Interval(-3.0, 2.0) ** 2
        assert iv.contains(0.0) and iv.contains(9.0)
        assert iv.lo <= 0.0

    def test_sqrt_and_log_scalars_match_math(self):
        assert isqrt(4.0) == 2.0
        assert ilog(math.e) == pytest.approx(1.0)
        assert iexp(0.0) == 1.0

    def test_sqrt_interval_contains_endpoint_roots(self):
        iv = isqrt(Interval(4.0, 9.0))
        assert iv.contains(2.0) and iv.contains(3.0)

    def test_log_sqrt_zero_crossing_clip(self):
        # Domain clips: the in-domain image stays contained.
        iv = ilog(Interval(-1.0, math.e))
        assert iv.lo == -math.inf and iv.contains(1.0)
        iv = isqrt(Interval(-1.0, 4.0))
        assert iv.lo == 0.0 and iv.contains(2.0)
        with pytest.raises(Exception):
            ilog(Interval(-2.0, -1.0))
        with pytest.raises(Exception):
            isqrt(Interval(-2.0, -1.0))

    def test_min_max_are_exact(self):
        a = Interval(1.0, 5.0)
        b = Interval(3.0, 4.0)
        assert imin(a, b) == Interval(1.0, 4.0)
        assert imax(a, b) == Interval(3.0, 5.0)
        assert imin(2.0, 3.0) == 2.0

    def test_nan_rejected(self):
        with pytest.raises(Exception):
            Interval(math.nan, 1.0)
        with pytest.raises(Exception):
            Interval(2.0, 1.0)


# ---------------------------------------------------------------- soundness


class TestSoundness:
    """bounds(box) contains evaluate(point) for every in-box point."""

    @pytest.mark.parametrize("key", sorted(TOPOLOGIES))
    def test_containment_200_random_points(self, key):
        template = _template(TOPOLOGIES[key])
        model = MetricModel(template)
        box = {
            v.name: (v.lo, v.hi) for v in ape_ranges(template)
        }
        bounds = model.bounds(box)
        assert set(BOUNDED_METRICS) <= set(bounds)
        rng = random.Random(42)
        for _ in range(200):
            values = _sample(box, rng)
            metrics = model.evaluate(values)
            for name in BOUNDED_METRICS:
                iv = bounds[name]
                assert iv.contains(metrics[name]), (
                    f"{key}: {name}={metrics[name]} outside "
                    f"[{iv.lo}, {iv.hi}]"
                )

    @pytest.mark.parametrize("key", sorted(TOPOLOGIES))
    def test_containment_on_wide_standalone_box(self, key):
        template = _template(TOPOLOGIES[key])
        model = MetricModel(template)
        box = {
            v.name: (v.lo, v.hi) for v in standalone_ranges(template)
        }
        bounds = model.bounds(box)
        rng = random.Random(1234)
        for _ in range(50):
            metrics = model.evaluate(_sample(box, rng))
            for name in BOUNDED_METRICS:
                assert bounds[name].contains(metrics[name])

    def test_template_estimate_inside_bounds(self):
        # The estimator's own composed numbers for the template point
        # must fall inside the proven interval bounds of any box that
        # contains that point.
        report = analyze_problem(TECH, OPAMP1, None, contract=False)
        template = _template(OpAmpTopology())
        est = template.estimate.as_dict()
        for name in ("gain", "ugf", "slew_rate", "dc_power"):
            if name not in report.bounds or name not in est:
                continue
            iv = report.bounds[name]
            # ``PerformanceEstimate.gain`` is signed; the model works in
            # magnitudes.
            assert iv.contains(abs(est[name]))


# -------------------------------------------------------------- rule catalog


class TestRules:
    def test_f101_unreachable_gain(self):
        spec = OpAmpSpec(gain=1e6, ugf=1.3e6, ibias=1e-6, cl=10e-12)
        report = analyze_problem(TECH, spec, name="bad")
        assert not report.feasible
        assert "F101" in report.error_codes
        assert "F104" in report.error_codes

    def test_f104_threshold_matches_structural_limit(self):
        limit = structural_gain_limit(TECH)
        ok = OpAmpSpec(gain=limit * 0.5, ugf=1.3e6)
        bad = OpAmpSpec(gain=limit * 2.0, ugf=1.3e6)
        assert "F104" not in analyze_problem(TECH, ok).error_codes
        assert "F104" in analyze_problem(TECH, bad).error_codes

    def test_f103_empty_window_needs_no_model(self):
        synth = SynthesisSpec()
        synth.require("gain", "ge", 500.0)
        synth.require("gain", "le", 100.0)
        report = analyze_problem(TECH, OPAMP1, synthesis_spec=synth)
        assert "F103" in report.error_codes

    def test_c201_power_slew_conflict(self):
        spec = OpAmpSpec(
            gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, slew_rate=5e6
        )
        synth = opamp_synthesis_spec(spec)
        synth.require("dc_power", "le", 100e-6)
        report = analyze_problem(TECH, spec, synthesis_spec=synth)
        assert not report.feasible
        assert "C201" in report.error_codes

    def test_w601_vacuous_constraint(self):
        synth = opamp_synthesis_spec(OPAMP1)
        synth.require("gain", "ge", 1.0)  # every box point exceeds this
        report = analyze_problem(TECH, OPAMP1, synthesis_spec=synth)
        assert any(f.code == "W601" for f in report.findings)
        assert report.feasible  # W-codes never block

    def test_w603_unanalyzable_metric_reported(self):
        report = analyze_problem(TECH, OPAMP1)
        # phase_margin is in the synthesis spec but outside the model.
        assert any(
            f.code == "W603" and f.metric == "phase_margin"
            for f in report.findings
        )

    def test_w604_unsupported_topology_is_not_a_verdict(self):
        folded = OpAmpTopology(current_source="cascode", diff_pair="folded")
        report = analyze_problem(TECH, OPAMP1, folded)
        assert report.feasible  # no false rejection
        assert not report.topology_supported
        assert any(f.code == "W604" for f in report.findings)

    def test_report_json_round_trip(self):
        report = analyze_problem(TECH, OPAMP1)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["schema"] == "repro-analysis/1"
        assert data["feasible"] is True
        assert set(data["bounds"]) >= set(BOUNDED_METRICS)


# -------------------------------------------------------------- contraction


class TestContraction:
    def test_contraction_never_excludes_feasible_points(self):
        # Any sampled point whose concrete metrics satisfy the
        # constraints must survive the contraction.  A lone area budget
        # keeps the random hit-rate non-vacuous (the full op-amp spec
        # has measure ~0 under log-uniform sampling) while still cutting
        # several width ranges.
        template = _template(OpAmpTopology())
        model = MetricModel(template)
        box = {v.name: (v.lo, v.hi) for v in standalone_ranges(template)}
        synth = SynthesisSpec()
        synth.require("gate_area", "le", 1e-10)
        contracted = contract_box(model, box, synth.constraints)
        assert contracted is not None
        assert any(contracted[n] != box[n] for n in box)
        rng = random.Random(99)
        kept = 0
        for _ in range(300):
            values = _sample(box, rng)
            metrics = model.evaluate(values)
            if metrics["gate_area"] > 1e-10:
                continue
            kept += 1
            for name, (lo, hi) in contracted.items():
                assert lo <= values[name] <= hi, (
                    f"feasible point lost: {name}={values[name]} "
                    f"outside [{lo}, {hi}]"
                )
        # The property is vacuous if nothing satisfied the constraint.
        assert kept > 0

    def test_contracted_box_is_subset(self):
        report = analyze_problem(
            TECH,
            OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12,
                      area=3e-11),
            mode="standalone",
        )
        assert report.contracted is not None
        cut_any = False
        for name, (lo, hi) in report.box.items():
            clo, chi = report.contracted[name]
            assert lo <= clo <= chi <= hi
            cut_any = cut_any or (clo, chi) != (lo, hi)
        assert cut_any  # the area budget provably kills the top decades

    def test_infeasible_spec_already_fired_f_code(self):
        # contract_box returning None implies an F verdict fired first.
        report = analyze_problem(
            TECH, OpAmpSpec(gain=1e6, ugf=1.3e6), mode="ape"
        )
        assert not report.feasible and report.error_codes


class TestBoundsMemo:
    #: Table-1 oa0 as a service job: its admission contracts the box
    #: once per constraint (C202) and once more for the report.
    OA0 = {
        "spec": {"gain": 200, "ugf": "1.3Meg", "area": 5e-9, "ibias": "1u",
                 "cl": "10p"},
        "topology": {"current_source": "wilson", "diff_pair": "cmos",
                     "output_buffer": True, "z_load": 1e3},
        "name": "oa0",
    }

    def test_admission_evaluates_each_distinct_box_once(self, monkeypatch):
        from repro.service import JobRequest, admit

        evaluations = 0
        boxes = set()
        evaluate, bounds = MetricModel.evaluate, MetricModel.bounds

        def counting_evaluate(self, values):
            nonlocal evaluations
            evaluations += 1
            return evaluate(self, values)

        def recording_bounds(self, box):
            boxes.add(tuple(sorted(box.items())))
            return bounds(self, box)

        monkeypatch.setattr(MetricModel, "evaluate", counting_evaluate)
        monkeypatch.setattr(MetricModel, "bounds", recording_bounds)
        report = admit(TECH, JobRequest.from_payload(self.OA0))
        assert report["feasible"] is True
        assert len(boxes) > 1
        assert evaluations == len(boxes)

    def test_repeated_box_returns_an_equal_fresh_dict(self, monkeypatch):
        template = _template(TOPOLOGIES["wilson_buffer"])
        model = MetricModel(template)
        box = {v.name: (v.lo, v.hi) for v in ape_ranges(template, 0.2)}
        first = model.bounds(box)
        evaluations = 0
        evaluate = model.evaluate

        def counting_evaluate(values):
            nonlocal evaluations
            evaluations += 1
            return evaluate(values)

        monkeypatch.setattr(model, "evaluate", counting_evaluate)
        second = model.bounds(box)
        assert second == first and second is not first
        first["gain"] = Interval(0.0, 0.0)
        del first["ugf"]
        assert model.bounds(box) == second
        assert evaluations == 0


# ------------------------------------------------------------- topology screen


class TestScreen:
    def test_feasible_candidates_sort_first(self):
        verdicts = screen_topologies(TECH, OPAMP1)
        assert verdicts, "catalog must not be empty"
        flags = [v.feasible for v in verdicts]
        assert flags == sorted(flags, reverse=True)

    def test_infeasible_spec_rejects_whole_catalog(self):
        verdicts = screen_topologies(
            TECH, OpAmpSpec(gain=1e6, ugf=1.3e6)
        )
        assert all(not v.feasible for v in verdicts)


# ----------------------------------------------------------- synthesis gate


class TestFeasibilityGate:
    def _run(self, spec, **kwargs):
        kwargs.setdefault("mode", "ape")
        kwargs.setdefault("max_evaluations", 25)
        kwargs.setdefault("seed", 1)
        kwargs.setdefault("tolerant", True)
        kwargs.setdefault("diagnostics", DiagnosticLog(mirror=False))
        return synthesize_opamp(TECH, spec, **kwargs)

    def test_reject_returns_before_any_evaluation(self):
        result = self._run(
            OpAmpSpec(gain=1e6, ugf=1.3e6), feasibility="reject"
        )
        assert not result.meets_spec
        assert result.evaluations == 0
        assert result.feasibility is not None
        assert "F101" in result.feasibility.error_codes
        assert "infeasible" in result.comment

    def test_off_is_bit_identical_to_default(self):
        base = self._run(OPAMP1)
        off = self._run(OPAMP1, feasibility="off")
        assert off.best_cost == base.best_cost
        assert off.params == base.params
        assert off.metrics == base.metrics
        assert off.feasibility is None

    def test_contract_without_cuts_is_bit_identical(self):
        # The +/-20% APE box around a consistent spec has no provably
        # dead prefixes, so the contract gate must not perturb results.
        base = self._run(OPAMP1, feasibility="off")
        contract = self._run(OPAMP1, feasibility="contract")
        assert contract.best_cost == base.best_cost
        assert contract.params == base.params
        assert contract.feasibility is not None

    def test_reject_passes_feasible_spec_through(self):
        result = self._run(OPAMP1, feasibility="reject")
        assert result.evaluations > 0
        assert result.feasibility is not None
        assert result.feasibility.feasible

    def test_invalid_mode_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            self._run(OPAMP1, feasibility="sometimes")

    def test_history_starts_identical_then_contract_diverges_only_on_cuts(self):
        # `contract` == `off` when nothing is cut; with cuts, the gate
        # report must carry a non-empty contraction summary.
        spec = OpAmpSpec(
            gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, area=3e-11
        )
        result = self._run(
            spec, mode="standalone", feasibility="contract",
            max_evaluations=10,
        )
        assert result.feasibility is not None
        assert result.feasibility.contraction_summary()

    def test_contract_box_override_travels_to_workers(self, tmp_path):
        # Parallel path: the contracted box is part of the chain task,
        # journals cleanly and survives a resume bit-for-bit.
        spec = OpAmpSpec(
            gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, area=3e-11
        )
        run_dir = str(tmp_path / "run")
        first = self._run(
            spec, mode="standalone", feasibility="contract",
            restarts=2, workers=1, oversubscribe=True,
            max_evaluations=10, run_dir=run_dir,
        )
        resumed = self._run(
            spec, mode="standalone", feasibility="contract",
            restarts=2, workers=1, oversubscribe=True,
            max_evaluations=10, run_dir=run_dir, resume=True,
        )
        assert resumed.best_cost == first.best_cost
        assert resumed.params == first.params
        assert len(resumed.resumed_chains) == 2


# ------------------------------------------------------------------- CLI


FIXTURES = "examples/specs"


class TestAnalyzeCli:
    def _json(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_infeasible_fixture_stable_json(self, capsys):
        code, data = self._json(capsys, [
            "analyze", "--spec-file", f"{FIXTURES}/infeasible_gain.json",
            "--format", "json",
        ])
        assert code == 1
        assert data["schema"] == "repro-analysis/1"
        assert data["feasible"] is False
        codes = sorted({f["code"] for f in data["findings"]
                        if f["severity"] == "error"})
        assert codes == ["F101", "F104"]
        assert set(data["bounds"]) >= {"gain", "ugf", "dc_power"}
        assert data["contracted"] is None

    def test_conflicting_fixture_stable_json(self, capsys):
        code, data = self._json(capsys, [
            "analyze", "--spec-file",
            f"{FIXTURES}/conflicting_power_slew.json", "--format", "json",
        ])
        assert code == 1
        codes = {f["code"] for f in data["findings"]}
        assert "C201" in codes

    def test_misspelled_fixture_key_is_refused(self, capsys, tmp_path):
        # "constraints" misspelled: dropping the key would lose C201 and
        # still report INFEASIBLE; the request refuses it, as POST /jobs
        # does.
        text = Path(f"{FIXTURES}/conflicting_power_slew.json").read_text()
        misspelled = tmp_path / "misspelled.json"
        misspelled.write_text(text.replace('"constraints"', '"constraint"'))
        from repro.cli import main

        code = main(["analyze", "--spec-file", str(misspelled)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown request field(s): constraint" in captured.err
        assert captured.out == ""

    def test_feasible_fixture_exit_zero(self, capsys):
        code, data = self._json(capsys, [
            "analyze", "--spec-file", f"{FIXTURES}/feasible_opamp1.json",
            "--format", "json",
        ])
        assert code == 0
        assert data["feasible"] is True
        assert data["contracted"] is not None

    def test_json_output_is_deterministic(self, capsys):
        argv = [
            "analyze", "--spec-file", f"{FIXTURES}/feasible_opamp1.json",
            "--format", "json",
        ]
        _, first = self._json(capsys, argv)
        _, second = self._json(capsys, argv)
        assert first == second

    def test_flags_override_fixture(self, capsys):
        from repro.cli import main

        # Raising the fixture's gain far beyond the structural limit
        # flips the verdict.
        code = main([
            "analyze", "--spec-file", f"{FIXTURES}/feasible_opamp1.json",
            "--gain", "1Meg",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "INFEASIBLE" in out and "F104" in out

    def test_screen_flag_ranks_catalog(self, capsys):
        from repro.cli import main

        code = main([
            "analyze", "--gain", "206", "--ugf", "1.3Meg", "--screen",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out

    def test_text_report_lists_bounds_and_hints(self, capsys):
        from repro.cli import main

        code = main([
            "analyze", "--spec-file", f"{FIXTURES}/infeasible_gain.json",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "proven metric bounds" in out
        assert "fix:" in out


# ------------------------------------------------------- contraction payoff


class TestContractionPayoff:
    """Area-budgeted OpAmp1 on the wide standalone box, 120 evaluations
    a leg, seeds 1-3, with the raw box (``feasibility="off"``) and the
    contracted one: the finite area cap proves the top decades of every
    device width dead before the annealer spends evaluations there."""

    SPEC = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, area=3e-11)

    @pytest.fixture(scope="class")
    def legs(self):
        """``(raw, contracted)`` results per seed."""
        legs = []
        for seed in (1, 2, 3):
            kwargs = dict(mode="standalone", max_evaluations=120, seed=seed,
                          name="OpAmp1", tolerant=True)
            legs.append((
                synthesize_opamp(TECH, self.SPEC, feasibility="off", **kwargs),
                synthesize_opamp(TECH, self.SPEC, feasibility="contract",
                                 **kwargs),
            ))
        return legs

    def test_contracted_box_reaches_the_target_no_later(self, legs):
        """Summed over the seeds, the contracted legs reach the worse of
        each seed's two best costs in no more evaluations (344 against
        351)."""
        from tests.test_store import evals_to_target

        raw_evals = contracted_evals = 0
        for raw, contracted in legs:
            target = max(raw.best_cost, contracted.best_cost)
            raw_evals += evals_to_target(raw.chains[0].history, target)
            contracted_evals += evals_to_target(
                contracted.chains[0].history, target
            )
        assert contracted_evals <= raw_evals

    def test_contracted_box_ends_no_worse(self, legs):
        """Mean best cost 6.382 contracted against 7.457 raw."""
        raw_mean = sum(raw.best_cost for raw, _ in legs) / len(legs)
        contracted_mean = sum(c.best_cost for _, c in legs) / len(legs)
        assert contracted_mean <= raw_mean
