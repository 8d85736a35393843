"""CLI tests (argument parsing and end-to-end command runs)."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ApeError
from repro.cli import _kv_pairs


class TestKvPairs:
    def test_quantities_parsed(self):
        assert _kv_pairs(["current=100u"]) == {"current": pytest.approx(1e-4)}

    def test_strings_pass_through(self):
        assert _kv_pairs(["mode=wilson"]) == {"mode": "wilson"}

    def test_malformed_rejected(self):
        with pytest.raises(ApeError):
            _kv_pairs(["oops"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_opamp_args(self):
        args = build_parser().parse_args(
            ["estimate-opamp", "--gain", "200", "--ugf", "1Meg", "--buffer"]
        )
        assert args.command == "estimate-opamp"
        assert args.buffer is True

    def test_tech_flag(self):
        args = build_parser().parse_args(
            ["--tech", "generic-1.2um", "estimate-component", "mirror"]
        )
        assert args.tech == "generic-1.2um"


class TestCommands:
    def test_estimate_opamp(self, capsys):
        code = main(["estimate-opamp", "--gain", "150", "--ugf", "2Meg"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gain" in out and "devices" in out

    def test_estimate_component(self, capsys):
        code = main(["estimate-component", "wilson", "current=50u"])
        out = capsys.readouterr().out
        assert code == 0
        assert "zout" in out

    def test_estimate_module(self, capsys):
        code = main(
            ["estimate-module", "lowpass_filter", "order=4", "f_corner=1k"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "f_3db" in out

    def test_estimate_module_int_coercion(self, capsys):
        code = main(["estimate-module", "flash_adc", "bits=3", "delay=5u"])
        assert code == 0
        assert "delay" in capsys.readouterr().out

    def test_synthesize_ape_mode(self, capsys):
        code = main(
            ["synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "40", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert "meets spec" in out
        assert code in (0, 1)

    def test_synthesize_robust_corners(self, capsys):
        code = main(
            ["synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "10", "--seed", "3",
             "--corners", "TT,SS", "--mc-samples", "1"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "robust:" in out
        assert "corner evals:" in out
        assert "worst case:" in out

    def test_synthesize_robust_sidecar_restores_corners(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        code = main(
            ["synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "8", "--seed", "3",
             "--corners", "TT,SS", "--run-dir", run_dir]
        )
        assert code in (0, 1)
        capsys.readouterr()
        code = main(["synthesize", "--resume", run_dir])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "robust:" in out  # corners came back from cli.json

    def test_simulate_deck(self, capsys, tmp_path):
        deck = tmp_path / "div.cir"
        deck.write_text("divider\nVIN in 0 10\nR1 in out 1k\nR2 out 0 3k\n")
        code = main(["simulate", str(deck), "--op"])
        out = capsys.readouterr().out
        assert code == 0
        assert "V(out) = 7.5" in out

    def test_simulate_ac(self, capsys, tmp_path):
        deck = tmp_path / "rc.cir"
        deck.write_text(
            "rc\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n"
        )
        code = main(
            ["simulate", str(deck), "--ac", "1k", "1Meg", "--out", "out"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "AC magnitude" in out

    def test_simulate_tran(self, capsys, tmp_path):
        deck = tmp_path / "step.cir"
        deck.write_text(
            "step\nVIN in 0 PULSE(0 1 0 1n 1n 1)\nR1 in out 1k\nC1 out 0 1n\n"
        )
        code = main(
            ["simulate", str(deck), "--tran", "5u", "10n", "--out", "out"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transient" in out

    def test_error_reported_cleanly(self, capsys):
        code = main(["estimate-component", "flux_capacitor"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_tech_reported(self, capsys):
        code = main(["--tech", "generic-3nm", "estimate-component", "mirror"])
        assert code == 2


class TestTolerance:
    def test_tolerant_is_the_default(self):
        args = build_parser().parse_args(["estimate-component", "mirror"])
        assert args.tolerant is True

    def test_strict_flag(self):
        args = build_parser().parse_args(["--strict", "estimate-component",
                                          "mirror"])
        assert args.tolerant is False

    def test_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--strict", "--tolerant", "estimate-component", "mirror"]
            )

    def test_synthesize_robustness_flags(self):
        args = build_parser().parse_args(
            ["synthesize", "--gain", "100", "--ugf", "2Meg",
             "--deadline", "30", "--max-failures", "5", "--retries", "2"]
        )
        assert args.deadline == "30"
        assert args.max_failures == 5
        assert args.retries == 2

    def test_synthesize_under_injected_faults(self, capsys, monkeypatch):
        from repro.runtime.diagnostics import global_log
        from repro.runtime.faults import active

        global_log().clear()
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=7,synthesis.evaluate=0.2"
        )
        code = main(
            ["synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "40", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "meets spec" in out
        assert "failed, " in out
        assert "diagnostics:" in out
        assert "synthesis.evaluate" in out
        # main() must disarm the env-armed injector on the way out.
        assert active() is None
        global_log().clear()

    def test_strict_synthesize_propagates_faults(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "estimator.opamp=1.0")
        code = main(
            ["--strict", "synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "10", "--seed", "3"]
        )
        assert code == 2
        assert "injected fault" in capsys.readouterr().err

    def test_max_failures_reports_degraded(self, capsys, monkeypatch):
        from repro.runtime.diagnostics import global_log

        global_log().clear()
        monkeypatch.setenv("REPRO_FAULTS", "seed=7,synthesis.evaluate=1.0")
        code = main(
            ["synthesize", "--gain", "120", "--ugf", "2Meg",
             "--budget", "40", "--seed", "3", "--max-failures", "3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "degraded:   True" in out
        assert "(3 failed" in out
        global_log().clear()

    def test_bad_faults_env_reported_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "nonsense")
        code = main(["estimate-component", "mirror"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDiagnosticsCommand:
    def test_empty_session(self, capsys):
        from repro.runtime.diagnostics import global_log

        global_log().clear()
        code = main(["diagnostics"])
        assert code == 0
        assert "0 diagnostic record(s)" in capsys.readouterr().out

    def test_renders_and_clears(self, capsys):
        from repro.runtime.diagnostics import Diagnostic, global_log

        log = global_log()
        log.clear()
        log.records.append(
            Diagnostic("spice.dc", "warning", "did not converge")
        )
        code = main(["diagnostics", "--clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 diagnostic record(s)" in out
        assert "spice.dc" in out and "did not converge" in out
        assert len(log) == 0


class TestAnalysisExtensions:
    def test_simulate_noise(self, capsys, tmp_path):
        deck = tmp_path / "rn.cir"
        deck.write_text("rn\nVIN in 0 0\nR1 in out 10k\nR2 out 0 10k\n")
        code = main(["simulate", str(deck), "--noise", "1k", "1Meg",
                     "--out", "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert "noise density" in out
        assert "dominant contributor" in out

    def test_simulate_tf(self, capsys, tmp_path):
        deck = tmp_path / "rc.cir"
        deck.write_text("rc\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n")
        code = main(["simulate", str(deck), "--tf", "--out", "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order 1" in out
        assert "pole:" in out
        assert "stable" in out


class TestLintCommand:
    GOOD = "divider\nVIN in 0 1\nR1 in out 1k\nR2 out 0 1k\n"
    BAD = "broken\nVIN in 0 1\nR1 in out 1k\nR2 out 0 1k\nC1 g 0 1p\nM1 out g 0 0 CMOSN W=10u L=1u\n"

    def test_clean_deck_exits_zero(self, capsys, tmp_path):
        deck = tmp_path / "good.cir"
        deck.write_text(self.GOOD)
        code = main(["lint", str(deck)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean (no findings)" in out

    def test_bad_deck_exits_one(self, capsys, tmp_path):
        deck = tmp_path / "bad.cir"
        deck.write_text(self.BAD)
        code = main(["lint", str(deck)])
        out = capsys.readouterr().out
        assert code == 1
        assert "E101" in out
        assert "fix:" in out

    def test_json_format(self, capsys, tmp_path):
        import json

        deck = tmp_path / "bad.cir"
        deck.write_text(self.BAD)
        code = main(["lint", "--format", "json", str(deck)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        report = payload[0]
        assert report["ok"] is False
        assert any(f["code"] == "E101" for f in report["findings"])

    def test_ignore_silences_rule(self, capsys, tmp_path):
        deck = tmp_path / "bad.cir"
        deck.write_text(self.BAD)
        code = main(["lint", "--ignore", "E101", str(deck)])
        capsys.readouterr()
        assert code == 0

    def test_select_restricts_rules(self, capsys, tmp_path):
        deck = tmp_path / "bad.cir"
        deck.write_text(self.BAD)
        code = main(["lint", "--select", "E201", str(deck)])
        out = capsys.readouterr().out
        assert code == 0
        assert "E101" not in out

    def test_noqa_in_deck_respected(self, capsys, tmp_path):
        deck = tmp_path / "tagged.cir"
        deck.write_text(self.BAD.replace("L=1u\n", "L=1u ; noqa: E101\n"))
        code = main(["lint", str(deck)])
        capsys.readouterr()
        assert code == 0

    def test_shipped_examples_lint_clean(self, capsys):
        import glob

        decks = sorted(glob.glob("examples/netlists/*.cir"))
        assert decks, "examples/netlists/*.cir missing"
        code = main(["lint", *decks])
        capsys.readouterr()
        assert code == 0
