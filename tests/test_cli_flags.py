"""The run flags of ``repro estimate-opamp``, ``synthesize`` and
``analyze``, and the flags of ``repro serve``, declared once from the
fields they set.

Locks in that:

* each request flag builds the :class:`~repro.synthesis.RunConfig` that
  the JSON run request carrying its key parses to, in every command
  that has the flag, and ``estimate-opamp`` prints the estimate of the
  spec and topology that request holds;
* each flag's ``--help`` shows its field's own default, read here from
  the dataclass, so a default restated in the CLI cannot drift;
* every choice the field accepts is a choice of its flag
  (``--diff-pair folded`` included);
* ``repro synthesize --resume DIR`` alone resumes a run dir journaled
  with any global flag (``--strict``, ``--tech``, ``--solver``), and a
  ``cli.json`` without those keys still resumes;
* each ``repro serve`` flag sets exactly its ``ServiceConfig`` field,
  no flag builds ``ServiceConfig()``, and no service or APE-facade
  signature restates a field's default;
* ``estimate-component`` and ``estimate-module`` type each
  ``key=value`` by the annotation of the ``design()`` parameter it sets.
"""

import dataclasses
import inspect
import json
import os
import re

import pytest

import repro.cli
import repro.parallel
from repro.cli import main
from repro.errors import ApeError
from repro.estimator import (
    _COMPONENT_KINDS,
    _MODULE_KINDS,
    AnalogPerformanceEstimator,
)
from repro.opamp import OpAmpSpec, OpAmpTopology, coarse_design_opamp
from repro.opamp.topology import CURRENT_SOURCES, DIFF_PAIRS
from repro.runtime import EvalBudget, SupervisionReport, SupervisorConfig
from repro.service import JobQueue, JobWorker, ServiceConfig, SynthesisService
from repro.spice import set_solver_mode, solver_mode
from repro.synthesis import RunConfig
from repro.synthesis.config import FEASIBILITY_MODES, MODES, SURROGATE_MODES
from repro.synthesis.cost import ROBUST_COST_MODES
from repro.synthesis.robust import RobustSpec
from repro.technology import generic_05um
from repro.units import format_quantity

TECH = generic_05um()
BASE = ["--gain", "100", "--ugf", "2Meg"]

#: Request flags: (flag, value given, request section, request key).
REQUEST_FLAGS = [
    ("--ibias", "2u", "spec", "ibias"),
    ("--cl", "5p", "spec", "cl"),
    ("--area", "300p", "spec", "area"),
    ("--slew-rate", "1Meg", "spec", "slew_rate"),
    ("--current-source", "wilson", "topology", "current_source"),
    ("--diff-pair", "nmos", "topology", "diff_pair"),
    ("--buffer", True, "topology", "output_buffer"),
    ("--z-load", "10k", "topology", "z_load"),
    ("--mode", "standalone", "", "mode"),
    ("--budget", 7, "", "max_evaluations"),
    ("--seed", 4, "", "seed"),
    ("--restarts", 3, "", "restarts"),
]
SYNTHESIZE = [case for case in REQUEST_FLAGS if case[0] in {
    "--ibias", "--cl", "--area", "--mode", "--budget", "--seed", "--restarts",
}]
ANALYZE = [case for case in REQUEST_FLAGS if case[0] not in {
    "--budget", "--seed", "--restarts",
}]

#: ``repro serve``'s flags: (flag, value given, the ServiceConfig field
#: it sets, the value that field takes).
SERVE_FLAGS = [
    ("--host", "0.0.0.0", "host", "0.0.0.0"),
    ("--port", "9000", "port", 9000),
    ("--data-dir", "elsewhere", "data_dir", "elsewhere"),
    ("--service-workers", "3", "service_workers", 3),
    ("--synth-workers", "2", "synth_workers", 2),
    ("--oversubscribe", True, "oversubscribe", True),
    ("--lease", "2.5", "lease_seconds", 2.5),
    ("--max-queue-depth", "7", "max_queue_depth", 7),
    ("--tenant-max-active", "2", "tenant_max_active", 2),
    ("--tenant-max-evals", "5000", "tenant_max_evals", 5000),
    ("--max-job-attempts", "5", "max_attempts", 5),
    ("--drain-timeout", "1.5k", "drain_timeout_s", 1500.0),
    ("--verbose", True, "verbose", True),
]


def _argv(flag, value):
    return [flag] if value is True else [flag, str(value)]


def _request(section, key, value):
    payload = {"spec": {"gain": "100", "ugf": "2Meg"}}
    if section:
        payload.setdefault(section, {})[key] = value
    else:
        payload[key] = value
    return RunConfig.from_payload(payload)


@pytest.fixture
def chains(monkeypatch):
    """The run config each synthesis hands its chains; no chain runs."""
    seen = []

    def record(tasks, **kwargs):
        seen.append(tasks[0].config)
        return {}, SupervisionReport()

    monkeypatch.setattr(repro.parallel, "run_supervised_chains", record)
    return seen


@pytest.fixture
def analyzed(monkeypatch):
    """The run config ``repro analyze`` analyzes; nothing is analyzed."""
    seen = []

    class Report:
        feasible = True

        @staticmethod
        def render_text():
            return "stub report"

    def record(config, tech, *, contract=True):
        seen.append(config)
        return Report()

    monkeypatch.setattr(RunConfig, "analyze", record)
    return seen


@pytest.fixture
def keep_solver():
    """``main`` sets the process's solver mode; put it back."""
    previous = solver_mode()
    yield
    set_solver_mode(previous)


# --------------------------------------------------------- request flags


class TestRequestFlags:
    @pytest.mark.parametrize(
        "flag, value, section, key", SYNTHESIZE,
        ids=[case[0] for case in SYNTHESIZE],
    )
    def test_synthesize_builds_the_request(
        self, chains, flag, value, section, key
    ):
        main(["synthesize", *BASE, *_argv(flag, value)])
        assert chains == [_request(section, key, value)]

    @pytest.mark.parametrize(
        "flag, value, section, key", ANALYZE,
        ids=[case[0] for case in ANALYZE],
    )
    def test_analyze_builds_the_request(
        self, analyzed, capsys, flag, value, section, key
    ):
        assert main(["analyze", *BASE, *_argv(flag, value)]) == 0
        assert analyzed == [_request(section, key, value)]
        assert "stub report" in capsys.readouterr().out

    def test_estimate_opamp_prints_the_requests_estimate(self, capsys):
        argv = ["--ibias", "2u", "--cl", "5p", "--current-source", "wilson",
                "--buffer", "--z-load", "10k"]
        assert main(["estimate-opamp", *BASE, *argv]) == 0
        out = capsys.readouterr().out
        config = RunConfig.from_payload({
            "spec": {"gain": "100", "ugf": "2Meg", "ibias": "2u",
                     "cl": "5p"},
            "topology": {"current_source": "wilson", "output_buffer": True,
                         "z_load": "10k"},
        })
        amp, _notes = coarse_design_opamp(TECH, config.spec, config.topology)
        expected = "estimate:\n" + "".join(
            f"  {key:14s} {value:.6g}\n"
            for key, value in amp.estimate.as_dict().items()
        )
        assert out.startswith(expected)

    @pytest.mark.parametrize("command", ["estimate-opamp", "analyze"])
    def test_folded_is_a_diff_pair(self, capsys, command):
        code = main([command, *BASE, "--diff-pair", "folded"])
        assert code in (0, 1)
        assert "gain" in capsys.readouterr().out


# ------------------------------------------------------------------ help


def _default(owner, name):
    default = inspect.signature(owner).parameters[name].default
    if default is None or default is False:
        return "off"
    return format_quantity(default) if isinstance(default, float) else default


#: (command, flag, the class and field whose default the help shows).
HELP_DEFAULTS = [
    *[
        (command, "--" + name.replace("_", "-"), OpAmpSpec, name)
        for command, names in (
            ("estimate-opamp", ("ibias", "cl")),
            ("synthesize", ("ibias", "cl", "area")),
            ("analyze", ("ibias", "cl", "area", "slew_rate")),
        )
        for name in names
    ],
    *[
        (command, flag, OpAmpTopology, name)
        for command in ("estimate-opamp", "analyze")
        for flag, name in (
            ("--current-source", "current_source"),
            ("--diff-pair", "diff_pair"),
            ("--z-load", "z_load"),
        )
    ],
    ("synthesize", "--mode", RunConfig, "mode"),
    ("analyze", "--mode", RunConfig, "mode"),
    ("synthesize", "--budget", RunConfig, "max_evaluations"),
    ("synthesize", "--seed", RunConfig, "seed"),
    ("synthesize", "--restarts", RunConfig, "restarts"),
    ("synthesize", "--feasibility", RunConfig, "feasibility"),
    ("synthesize", "--surrogate", RunConfig, "surrogate"),
    ("synthesize", "--deadline", EvalBudget, "deadline_seconds"),
    ("synthesize", "--max-failures", EvalBudget, "max_failures"),
    ("synthesize", "--heartbeat-timeout", SupervisorConfig,
     "heartbeat_timeout_seconds"),
    ("synthesize", "--chain-timeout", SupervisorConfig,
     "chain_timeout_seconds"),
    ("synthesize", "--max-chain-retries", SupervisorConfig,
     "max_chain_retries"),
    ("synthesize", "--mc-samples", RobustSpec, "mc_samples"),
    ("synthesize", "--robust-cost", RobustSpec, "mode"),
    ("synthesize", "--yield-target", RobustSpec, "yield_target"),
    *[
        ("serve", flag, ServiceConfig, name)
        for flag, _value, name, _expected in SERVE_FLAGS
    ],
]

#: (command, flag, the tuple its field is validated against).
HELP_CHOICES = [
    ("estimate-opamp", "--current-source", CURRENT_SOURCES),
    ("estimate-opamp", "--diff-pair", DIFF_PAIRS),
    ("analyze", "--current-source", CURRENT_SOURCES),
    ("analyze", "--diff-pair", DIFF_PAIRS),
    ("analyze", "--mode", MODES),
    ("synthesize", "--mode", MODES),
    ("synthesize", "--robust-cost", ROBUST_COST_MODES),
    ("synthesize", "--feasibility", FEASIBILITY_MODES),
    ("synthesize", "--surrogate", SURROGATE_MODES),
]


def _help(capsys, monkeypatch, command):
    """``repro COMMAND --help``, one entry per option, by flag."""
    monkeypatch.setenv("COLUMNS", "500")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = {}
    for chunk in re.split(r"\n(?=  -)", capsys.readouterr().out):
        words = chunk.split()
        if words[0].startswith("-"):
            entries[words[0].rstrip(",")] = " ".join(words)
    return entries


class TestHelp:
    @pytest.mark.parametrize(
        "command, flag, owner, name", HELP_DEFAULTS,
        ids=[f"{c}{f}" for c, f, *_ in HELP_DEFAULTS],
    )
    def test_help_names_the_fields_default(
        self, capsys, monkeypatch, command, flag, owner, name
    ):
        entry = _help(capsys, monkeypatch, command)[flag]
        shown = re.escape(str(_default(owner, name)))
        assert re.search(rf"default: {shown}\b", entry), entry

    @pytest.mark.parametrize(
        "command, flag, choices", HELP_CHOICES,
        ids=[f"{c}{f}" for c, f, _ in HELP_CHOICES],
    )
    def test_choices_are_the_fields_validation_tuple(
        self, capsys, monkeypatch, command, flag, choices
    ):
        entry = _help(capsys, monkeypatch, command)[flag]
        assert entry.startswith(f"{flag} {{{','.join(choices)}}}"), entry


# ---------------------------------------------------------------- resume


def _best_costs(out):
    return re.search(r"best costs (\[.*\])", out).group(1)


def _journal_and_resume(capsys, tmp_path, global_flags, edit=None,
                        resume_flags=()):
    """Journal a two-chain run under ``global_flags``, then resume it
    with ``--resume`` and ``resume_flags``; the first run's output, and
    the resume's exit code and captured output."""
    run_dir = str(tmp_path / "run")
    code = main([*global_flags, "synthesize", *BASE, "--budget", "6",
                 "--restarts", "2", "--workers", "1", "--run-dir", run_dir])
    first = capsys.readouterr().out
    assert code in (0, 1)
    if edit is not None:
        path = os.path.join(run_dir, "cli.json")
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(edit(saved), handle)
    code = main([*resume_flags, "synthesize", "--resume", run_dir])
    return first, code, capsys.readouterr()


class TestResume:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize(
        "global_flags",
        [["--strict"], ["--tech", "generic-1.2um"], ["--solver", "sparse"]],
        ids=["strict", "tech", "solver"],
    )
    def test_global_flags_come_back_from_the_run_dir(
        self, capsys, tmp_path, keep_solver, global_flags
    ):
        first, code, resumed = _journal_and_resume(
            capsys, tmp_path, global_flags
        )
        assert code in (0, 1), resumed.err
        assert "resumed [0, 1]" in resumed.out
        assert _best_costs(resumed.out) == _best_costs(first)

    @pytest.mark.timeout(300)
    def test_a_cli_json_without_global_keys_still_resumes(
        self, capsys, tmp_path
    ):
        def strip(saved):
            for key in ("tech", "tolerant", "solver"):
                saved.pop(key, None)
            return saved

        first, code, resumed = _journal_and_resume(
            capsys, tmp_path, [], strip
        )
        assert code in (0, 1), resumed.err
        assert "resumed [0, 1]" in resumed.out
        assert _best_costs(resumed.out) == _best_costs(first)

    @pytest.mark.timeout(300)
    def test_a_global_flag_given_wins_over_the_run_dir(
        self, capsys, tmp_path
    ):
        """An explicit ``--tolerant`` is kept, so resuming a ``--strict``
        run dir with it names another problem and is refused."""
        _first, code, resumed = _journal_and_resume(
            capsys, tmp_path, ["--strict"], resume_flags=["--tolerant"]
        )
        assert code == 2
        assert "different synthesis problem" in resumed.err


# ----------------------------------------------------------------- serve


@pytest.fixture
def served(monkeypatch):
    """The ServiceConfig each ``repro serve`` runs; nothing is served."""
    seen = []

    def record(tech, config):
        seen.append(config)
        return 0

    monkeypatch.setattr(repro.cli, "run_service", record)
    return seen


class TestServeFlags:
    def test_every_serve_flag_is_pinned_here(self, capsys, monkeypatch):
        flags = set(_help(capsys, monkeypatch, "serve")) - {"-h"}
        assert flags == {flag for flag, *_ in SERVE_FLAGS}

    def test_no_flag_builds_the_default_config(self, served):
        assert main(["serve"]) == 0
        assert served == [ServiceConfig()]

    @pytest.mark.parametrize(
        "flag, value, field, expected", SERVE_FLAGS,
        ids=[case[0] for case in SERVE_FLAGS],
    )
    def test_a_flag_sets_exactly_its_field(
        self, served, flag, value, field, expected
    ):
        assert main(["serve", *_argv(flag, value)]) == 0
        assert served == [
            dataclasses.replace(ServiceConfig(), **{field: expected})
        ]

    def test_a_zero_lease_exits_2_naming_the_field(self, capsys, served):
        assert main(["serve", "--lease", "0"]) == 2
        assert "lease_seconds" in capsys.readouterr().err
        assert served == []


#: Every dataclass field whose default a signature below must not restate.
DECLARED = {
    field.name
    for owner in (ServiceConfig, OpAmpSpec, OpAmpTopology)
    for field in dataclasses.fields(owner)
}


@pytest.mark.parametrize("callable_", [
    JobWorker, JobQueue, SynthesisService,
    AnalogPerformanceEstimator.estimate_opamp,
], ids=["JobWorker", "JobQueue", "SynthesisService", "estimate_opamp"])
def test_no_signature_restates_a_fields_default(callable_):
    parameters = inspect.signature(callable_).parameters
    restated = {
        name for name, param in parameters.items()
        if param.default is not param.empty and name in DECLARED
    }
    assert restated == set()


# ------------------------------------------------------------ key=value


#: Every int-annotated ``design()`` parameter of a component or module:
#: (command, kind, parameter).
INT_PARAMETERS = [
    (command, kind, name)
    for command, kinds in (
        ("estimate-component", _COMPONENT_KINDS),
        ("estimate-module", _MODULE_KINDS),
    )
    for kind, cls in kinds.items()
    for name, param in inspect.signature(cls.design).parameters.items()
    if str(param.annotation) == "int"
]


def _designed(monkeypatch, command, argv):
    """The keywords ``repro COMMAND ARGV`` hands the facade's sizing."""
    seen = {}

    def record(self, kind, **spec):
        seen.update(spec)
        raise ApeError("recorded")

    method = command.replace("-", "_")
    monkeypatch.setattr(AnalogPerformanceEstimator, method, record)
    assert main([command, *argv]) == 2
    return seen


class TestKeyValueTypes:
    def test_sigma_deltas_osr_is_among_the_int_parameters(self):
        assert ("estimate-module", "sigma_delta", "osr") in INT_PARAMETERS

    @pytest.mark.parametrize(
        "command, kind, name", INT_PARAMETERS,
        ids=[f"{kind}.{name}" for _, kind, name in INT_PARAMETERS],
    )
    def test_an_int_parameter_arrives_as_an_int(
        self, monkeypatch, command, kind, name
    ):
        seen = _designed(monkeypatch, command, [kind, f"{name}=100"])
        assert seen[name] == 100 and type(seen[name]) is int

    def test_a_str_parameter_stays_text(self, monkeypatch):
        seen = _designed(monkeypatch, "estimate-component", [
            "mirror", "current=10u", "name=1k",
        ])
        assert seen == {"current": pytest.approx(1e-5), "name": "1k"}

    @pytest.mark.parametrize("command, argv, named", [
        ("estimate-component", ["mirror", "current=10u", "bogus=1"], "bogus"),
        ("estimate-module", ["sigma_delta", "signal_bandwidth=20k",
                             "osr=64.5"], "osr"),
    ], ids=["unknown-key", "fractional-int"])
    def test_a_bad_entry_exits_2_naming_its_key(
        self, capsys, command, argv, named
    ):
        assert main([command, *argv]) == 2
        assert named in capsys.readouterr().err

    def test_an_int_osr_sizes_a_measurable_modulator(self, monkeypatch):
        """A float ``osr`` sizes too, but its SNR measurement slices by
        it and raises ``TypeError``."""
        seen = _designed(monkeypatch, "estimate-module", [
            "sigma_delta", "signal_bandwidth=20k", "osr=100",
        ])
        module = _MODULE_KINDS["sigma_delta"].design(TECH, **seen)
        assert module.measure_snr_db() == pytest.approx(66.32, abs=0.01)
