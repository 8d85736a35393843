"""Electrical rule checker: one targeted test per shipped rule code,
plus registry, suppression and report-format behaviour."""

import dataclasses
import json

import pytest

from repro.errors import NetlistError, SimulationError
from repro.lint import (
    CANDIDATE_RULES,
    CORE_RULES,
    LintReport,
    get_rule,
    lint_circuit,
    registered_rules,
)
from repro.spice import Circuit
from repro.technology import generic_05um

TECH = generic_05um()
NMOS = TECH.nmos


def _divider():
    ckt = Circuit("divider")
    ckt.v("in", "0", dc=1.0)
    ckt.r("in", "out", 1e3)
    ckt.r("out", "0", 1e3)
    return ckt


class TestRegistry:
    def test_all_shipped_codes_registered(self):
        codes = {rule.code for rule in registered_rules()}
        expected = {
            "E001", "E002", "E003", "E004", "E101", "E102", "E103",
            "E104", "E201", "E301", "E302", "I202", "W401", "W402",
            "W501", "W502", "W503", "W504", "W505",
        }
        assert expected <= codes

    def test_core_rules_marked(self):
        for code in CORE_RULES:
            assert get_rule(code).core
        assert not get_rule("E101").core

    def test_candidate_rules_are_registered(self):
        for code in CANDIDATE_RULES:
            get_rule(code)

    def test_unknown_code_rejected(self):
        with pytest.raises(NetlistError, match="unknown lint rule"):
            get_rule("E999")

    def test_rules_carry_fix_hints(self):
        for rule in registered_rules():
            assert rule.summary
            assert rule.fix_hint

    def test_clean_circuit(self):
        report = lint_circuit(_divider())
        assert report.ok
        assert len(report) == 0


class TestCoreRules:
    def test_e001_empty(self):
        assert "E001" in lint_circuit(Circuit("void")).codes()

    def test_e002_no_ground(self):
        ckt = Circuit()
        ckt.v("a", "b", dc=1.0)
        ckt.r("a", "b", 1e3)
        assert "E002" in lint_circuit(ckt).codes()

    def test_e003_dangling(self):
        ckt = Circuit()
        ckt.v("a", "0", dc=1.0)
        ckt.r("a", "stub", 1e3)
        report = lint_circuit(ckt, rules=["E003"])
        assert report.codes() == ("E003",)
        assert "stub" in report.findings[0].message

    def test_e004_nonpositive_capacitor(self):
        ckt = _divider()
        # The Capacitor constructor rejects negatives; zero sneaks in.
        ckt.c("out", "0", 0.0, name="CBAD")
        report = lint_circuit(ckt, rules=["E004"])
        assert report.codes() == ("E004",)
        assert get_rule("E004").exception is SimulationError

    def test_e201_duplicate_names(self):
        ckt = _divider()
        # add() rejects exact duplicates; case-folded collisions get
        # through and would merge in an exported deck.
        ckt.r("in", "0", 2e3, name="rbad")
        ckt.r("out", "0", 2e3, name="RBAD")
        report = lint_circuit(ckt, rules=["E201"])
        assert report.codes() == ("E201",)
        assert "rbad" in report.findings[0].message


class TestStructuralRules:
    def test_e101_floating_gate(self):
        ckt = _divider()
        ckt.c("float", "0", 1e-12)
        ckt.m("out", "float", "0", "0", NMOS, 10e-6, 1e-6, name="M1")
        report = lint_circuit(ckt, rules=["E101"])
        assert report.codes() == ("E101",)
        assert report.findings[0].element == "M1"

    def test_e101_grounded_gate_ok(self):
        ckt = _divider()
        ckt.m("out", "in", "0", "0", NMOS, 10e-6, 1e-6, name="M1")
        assert lint_circuit(ckt, rules=["E101"]).ok

    def test_e102_voltage_source_loop(self):
        ckt = Circuit()
        ckt.v("a", "0", dc=1.0, name="V1")
        ckt.v("a", "b", dc=0.5, name="V2")
        ckt.v("b", "0", dc=0.5, name="V3")
        ckt.r("a", "0", 1e3)
        ckt.r("b", "0", 1e3)
        report = lint_circuit(ckt, rules=["E102"])
        assert report.codes() == ("E102",)
        assert report.findings[0].element == "V3"

    def test_e102_inductor_loop(self):
        ckt = _divider()
        ckt.ind("in", "x", 1e-6)
        ckt.ind("x", "0", 1e-6)
        # V1(in-0) + L(in-x) + L(x-0) closes a V/L-only cycle.
        assert "E102" in lint_circuit(ckt, rules=["E102"]).codes()

    def test_e103_current_source_cutset(self):
        ckt = _divider()
        ckt.i("0", "island", dc=1e-6, name="IFLT")
        ckt.c("island", "0", 1e-12)
        report = lint_circuit(ckt, rules=["E103"])
        assert report.codes() == ("E103",)
        assert "IFLT" in report.findings[0].message

    def test_e103_with_return_path_ok(self):
        ckt = _divider()
        ckt.i("0", "island", dc=1e-6)
        ckt.r("island", "0", 1e6)
        assert lint_circuit(ckt, rules=["E103"]).ok

    def test_e104_shorted_source(self):
        ckt = _divider()
        ckt.v("x", "x", dc=1.0, name="VSHORT")
        ckt.r("x", "0", 1e3)
        report = lint_circuit(ckt, rules=["E104"])
        assert report.codes() == ("E104",)

    def test_e104_ground_alias_short(self):
        ckt = _divider()
        ckt.v("gnd", "0", dc=0.0, name="VAL")
        report = lint_circuit(ckt, rules=["E104"])
        assert report.codes() == ("E104",)


class TestTechnologyRules:
    def test_e301_needs_tech(self):
        ckt = _divider()
        ckt.m("out", "in", "0", "0", NMOS, 0.1e-6, 1e-6, name="MSMALL")
        assert lint_circuit(ckt, rules=["E301"]).ok
        report = lint_circuit(ckt, tech=TECH, rules=["E301"])
        assert report.codes() == ("E301",)
        assert "w_min" in report.findings[0].message

    def test_e301_too_wide_and_short(self):
        ckt = _divider()
        ckt.m("out", "in", "0", "0", NMOS, 5e-3, 0.1e-6, name="MBIG")
        report = lint_circuit(ckt, tech=TECH, rules=["E301"])
        message = report.findings[0].message
        assert "w_max" in message and "l_min" in message

    def test_e302_nonpositive_leff(self):
        ckt = _divider()
        bad_model = dataclasses.replace(NMOS, ld=1e-6)
        ckt.m("out", "in", "0", "0", bad_model, 10e-6, 1.5e-6, name="MLD")
        report = lint_circuit(ckt, rules=["E302"])
        assert report.codes() == ("E302",)


class TestWarningsAndInfo:
    def test_w401_capacitor_coupled_island(self):
        ckt = _divider()
        ckt.c("out", "isl", 1e-12, name="CCPL")
        ckt.r("isl", "isl2", 1e3)
        ckt.c("isl2", "0", 1e-12)
        report = lint_circuit(ckt, rules=["W401"])
        assert report.codes() == ("W401",)
        assert "CCPL" in report.findings[0].message
        assert report.ok  # warning, not error

    def test_w402_degenerate_elements(self):
        ckt = _divider()
        ckt.r("x", "x", 1e3, name="RDEG")
        ckt.r("x", "0", 1e3)
        ckt.m("y", "in", "y", "0", NMOS, 10e-6, 1e-6, name="MDEG")
        ckt.r("y", "0", 1e3)
        report = lint_circuit(ckt, rules=["W402"])
        assert sorted(f.element for f in report) == ["MDEG", "RDEG"]

    def test_w501_implausible_resistance(self):
        ckt = _divider()
        ckt.r("in", "0", 1e12, name="RHUGE")
        assert lint_circuit(ckt, rules=["W501"]).codes() == ("W501",)

    def test_w502_implausible_capacitance(self):
        ckt = _divider()
        ckt.c("out", "0", 1.0, name="CHUGE")
        assert lint_circuit(ckt, rules=["W502"]).codes() == ("W502",)

    def test_w503_implausible_inductance(self):
        ckt = _divider()
        ckt.ind("in", "out", 100.0, name="LHUGE")
        assert lint_circuit(ckt, rules=["W503"]).codes() == ("W503",)

    def test_w504_micron_geometry(self):
        ckt = _divider()
        # "W=10 L=1" — microns pasted as metres.
        ckt.m("out", "in", "0", "0", NMOS, 10.0, 1.0, name="MUM")
        report = lint_circuit(ckt, rules=["W504"])
        assert report.codes() == ("W504",)

    def test_w505_extreme_source(self):
        ckt = _divider()
        ckt.v("hv", "0", dc=1e6, name="VHV")
        ckt.r("hv", "0", 1e3)
        assert lint_circuit(ckt, rules=["W505"]).codes() == ("W505",)

    def test_i202_misleading_name(self):
        ckt = _divider()
        ckt.c("out", "0", 1e-12, name="R9")  # a capacitor named R...
        report = lint_circuit(ckt, rules=["I202"])
        assert report.codes() == ("I202",)

    def test_i202_hierarchical_prefix_ok(self):
        ckt = _divider()
        ckt.c("out", "0", 1e-12, name="X1CC")
        assert len(lint_circuit(ckt, rules=["I202"])) == 0


class TestSuppression:
    def _floating_gate(self):
        ckt = _divider()
        ckt.c("float", "0", 1e-12)
        ckt.m("out", "float", "0", "0", NMOS, 10e-6, 1e-6, name="M1")
        return ckt

    def test_noqa_specific_code(self):
        ckt = self._floating_gate()
        ckt.noqa("M1", "E101")
        assert lint_circuit(ckt, rules=["E101"]).ok

    def test_noqa_all_codes(self):
        ckt = self._floating_gate()
        ckt.noqa("M1")
        assert "E101" not in lint_circuit(ckt).codes()

    def test_noqa_other_code_does_not_suppress(self):
        ckt = self._floating_gate()
        ckt.noqa("M1", "W504")
        assert "E101" in lint_circuit(ckt).codes()

    def test_noqa_unknown_element_rejected(self):
        with pytest.raises(NetlistError, match="noqa"):
            _divider().noqa("MNOPE", "E101")

    def test_noqa_survives_copy(self):
        ckt = self._floating_gate()
        ckt.noqa("M1", "E101")
        assert lint_circuit(ckt.copy(), rules=["E101"]).ok

    def test_global_suppress(self):
        ckt = self._floating_gate()
        assert lint_circuit(ckt, suppress=["E101"], rules=["E101"]).ok


class TestReport:
    def _bad(self):
        ckt = Circuit("bad")
        ckt.v("a", "a", dc=1.0, name="VSHORT")
        ckt.r("a", "0", 1e12, name="RHUGE")
        return ckt

    def test_severity_ordering(self):
        report = lint_circuit(self._bad())
        severities = [f.severity for f in report]
        assert severities == sorted(
            severities, key=("error", "warning", "info").index
        )
        assert report.findings[0].code == "E104"

    def test_render_mentions_counts_and_fix(self):
        text = lint_circuit(self._bad()).render()
        assert "error(s)" in text
        assert "fix:" in text

    def test_to_dict_roundtrips_as_json(self):
        payload = json.loads(json.dumps(lint_circuit(self._bad()).to_dict()))
        assert payload["ok"] is False
        assert payload["counts"]["error"] >= 1
        codes = [f["code"] for f in payload["findings"]]
        assert "E104" in codes

    def test_raise_first_uses_rule_exception(self):
        report = lint_circuit(self._bad())
        with pytest.raises(NetlistError, match="shorted"):
            report.raise_first()
        empty = LintReport("t", [])
        empty.raise_first()  # no error findings: no raise


class TestValidateIntegration:
    def test_validate_core_only_misses_structural(self):
        ckt = Circuit("fg")
        ckt.v("in", "0", dc=1.0)
        ckt.r("in", "out", 1e3)
        ckt.r("out", "0", 1e3)
        ckt.c("float", "0", 1e-12)
        ckt.m("out", "float", "0", "0", NMOS, 10e-6, 1e-6, name="M1")
        ckt.validate()  # floating gate is not a core rule
        with pytest.raises(NetlistError, match="gate"):
            ckt.validate(strict=True)

    def test_validate_duplicate_name_regression(self):
        ckt = _divider()
        ckt.r("in", "0", 2e3, name="rdup")
        ckt.r("out", "0", 2e3, name="RDUP")
        with pytest.raises(NetlistError, match="duplicate"):
            ckt.validate()

    def test_validate_empty_message_compatible(self):
        with pytest.raises(NetlistError, match="empty"):
            Circuit("void").validate()


class TestSynthesisGate:
    """The gate rejects structurally broken candidates without a solve."""

    def _problem(self, monkeypatch):
        import repro.synthesis.problems as problems
        from repro.opamp import OpAmpSpec, coarse_design_opamp
        from repro.opamp.benches import open_loop_bench
        from repro.spice.netlist import Mosfet
        from repro.synthesis.problems import OpAmpSizingProblem, ape_ranges

        template, _ = coarse_design_opamp(
            TECH, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
        )

        def floating_gate_bench(amp, v_diff=0.0):
            # AC-couple a mirror-load gate: every candidate draws E101.
            bench = open_loop_bench(amp, v_diff=v_diff)
            mosfets = [e for e in bench if isinstance(e, Mosfet)]
            target = next(
                (m for m in mosfets if m.name.endswith("DFML2")), mosfets[-1]
            )
            floated = dataclasses.replace(target, ng=target.ng + "_float")
            rebuilt = Circuit(bench.title)
            for element in bench:
                rebuilt.add(floated if element.name == target.name else element)
            rebuilt.c(target.ng, floated.ng, 1e-12, name="CACGATE")
            return rebuilt

        # A problem builds its bench on its first candidate.
        monkeypatch.setattr(problems, "open_loop_bench", floating_gate_bench)
        problem = OpAmpSizingProblem(template, ape_ranges(template))
        base = template.initial_point()
        candidates = [
            {key: value * scale for key, value in base.items()}
            for scale in (1.0, 0.95, 1.05, 0.9)
        ]
        return problem, candidates

    def test_floating_gate_candidates_rejected_before_any_solve(
        self, monkeypatch
    ):
        import repro.synthesis.problems as problems

        solves = []
        solve = problems.dc_operating_point

        def counted(*args, **kwargs):
            solves.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(problems, "dc_operating_point", counted)
        gated, candidates = self._problem(monkeypatch)
        assert [gated.evaluate(p) for p in candidates] == [None] * 4
        assert gated.lint_rejections == 4
        assert solves == []
        # The same problem without its gate solves the template and
        # every candidate: five DC solves the gate saves.
        ungated, candidates = self._problem(monkeypatch)
        monkeypatch.setattr(ungated, "_lint_rejects", lambda bench, tech: False)
        for params in candidates:
            ungated.evaluate(params)
        assert ungated.lint_rejections == 0
        assert len(solves) == 5
