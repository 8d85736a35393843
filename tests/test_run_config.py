"""One declaration per run parameter: :class:`repro.synthesis.RunConfig`.

Locks in that the library call, ``repro synthesize`` and ``POST /jobs``
build the same run from the same request:

* an invalid value is refused the same way everywhere — a
  :class:`~repro.errors.SpecificationError` from ``synthesize_opamp``,
  exit 2 from the CLI, HTTP 400 ``invalid-request`` from the service —
  before any chain runs;
* a field left out everywhere takes one default, whichever way the run
  was submitted.
"""

import math

import pytest

import repro.parallel
from repro.cli import main
from repro.errors import SpecificationError
from repro.opamp import OpAmpSpec
from repro.runtime import SupervisionReport
from repro.service import ServiceConfig, SynthesisService
from repro.synthesis import RunConfig, synthesize_opamp
from repro.technology import generic_05um

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6)


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
def service(tmp_path):
    service = SynthesisService(
        TECH, ServiceConfig(data_dir=str(tmp_path / "svc"))
    )
    yield service
    service.queue.close()


class TestInvalidParameters:
    @pytest.mark.parametrize("option", [
        {"max_evaluations": 0},
        {"max_evaluations": -5},
        {"restarts": 0},
        {"seed": -1},
        {"mode": "magic"},
        {"name": ""},
        {"range_factor": 1.5},
        {"feasibility": "maybe"},
        {"surrogate": "learned"},
    ])
    def test_synthesize_opamp_refuses_before_any_chain(self, chains, option):
        with pytest.raises(SpecificationError):
            synthesize_opamp(TECH, SPEC, **option)
        assert chains == []

    def test_cli_budget_below_one_exits_2(self, chains, capsys):
        code = main(
            ["synthesize", "--gain", "100", "--ugf", "2Meg", "--budget", "0"]
        )
        assert code == 2
        assert "max_evaluations must be >= 1" in capsys.readouterr().err
        assert chains == []

    def test_unknown_mode_is_an_invalid_request(self, service):
        """Refused while parsing (HTTP 400), not by the analyzer's bare
        ValueError (HTTP 500)."""
        status, body, _ = service.submit(
            {"spec": {"gain": 100, "ugf": "2Meg"}, "mode": "magic"}
        )
        assert status == 400
        assert body["kind"] == "invalid-request"
        assert "magic" in body["error"]
        assert service.queue.depth() == 0


class TestOneDefault:
    def test_omitted_fields_agree_across_entry_points(
        self, chains, service
    ):
        synthesize_opamp(TECH, SPEC)
        main(["synthesize", "--gain", "100", "--ugf", "2Meg"])
        status, _body, _ = service.submit(
            {"spec": {"gain": 100, "ugf": "2Meg"}}
        )
        assert status == 202
        worker = service.workers[0]
        record = service.queue.claim(worker.owner, lease_seconds=30)
        assert worker.execute(record) == "done"

        library, cli, job = chains
        assert library == cli == job
        assert (
            library.mode, library.seed, library.restarts,
            library.max_evaluations, library.name,
        ) == ("ape", 1, 1, 150, "opamp")
        spec = library.spec
        assert (spec.ibias, spec.cl, spec.slew_rate) == (1e-6, 10e-12, 0.0)
        assert math.isinf(spec.area)

    def test_json_form_round_trips(self):
        payload = {
            "spec": {"gain": "206", "ugf": "1.3Meg", "area": "200p"},
            "topology": {"current_source": "wilson", "z_load": "10k"},
            "constraints": [{"metric": "dc_power", "kind": "le",
                             "bound": "1m"}],
            "mode": "standalone", "seed": 4,
        }
        config = RunConfig.from_payload(payload)
        assert RunConfig.from_payload(config.to_payload()) == config
        assert config.resolved_synthesis_spec().constraints[-1].bound == 1e-3
