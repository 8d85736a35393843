"""Durable synthesis service: queue, admission, HTTP API, recovery.

Locks in the robustness contract of :mod:`repro.service`:

* the SQLite-WAL job queue survives handle re-opens, dedupes by
  problem fingerprint under concurrency (first-writer-wins), leases
  jobs with expiries, backs off retries exponentially and quarantines
  poison jobs — with the ``queue.busy`` fault site proving the busy
  retry loop by exact counts;
* admission control rejects malformed payloads (400) and provably
  infeasible specs (422, full analyzer report, ~ms latency, zero
  solver evaluations) and sheds load with 429 + Retry-After at the
  queue-depth and per-tenant bounds;
* an enqueue wakes the idle workers, so a job starts at once rather
  than at the next poll, and a paused worker never spins on a wake;
* a server killed mid-job (``service.crash`` ≙ ``kill -9``) leaves a
  claimable job whose restart resumes from the journal and finishes
  with a cost bit-identical to an uncrashed reference run;
* SIGTERM drains gracefully: exit 0, queue file intact;
* ``ServiceConfig`` validates on construction: a lease, poll interval,
  count, backoff, drain window or port out of range raises
  ``SpecificationError`` naming the field.
"""

import json
import math
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import SpecificationError
from repro.runtime.faults import FaultSpec, injected_faults
from repro.runtime.stats import global_stats
from repro.service import (
    AdmissionError,
    JobQueue,
    JobRequest,
    QueueError,
    ServiceConfig,
    ServiceServer,
    SynthesisService,
    admit,
)
from repro.service.queue import QUEUE_SCHEMA_VERSION
from repro.service.worker import CRASH_EXIT_CODE, JobWorker
from repro.technology import generic_05um

TECH = generic_05um()

#: Small-but-real job payload shared by the execution tests.
FEASIBLE = {
    "spec": {"gain": 100, "ugf": "2Meg"},
    "max_evaluations": 10,
    "seed": 3,
}
INFEASIBLE = {"spec": {"gain": "1Meg", "ugf": "1.3Meg"}}
#: Table-1 oa0 (Wilson tail, buffered, 1 kOhm load): a feasible spec
#: whose admission runs the analyzer's full pairwise contraction.
OA0 = {
    "spec": {"gain": 200, "ugf": "1.3Meg", "area": 5e-9, "ibias": "1u",
             "cl": "10p"},
    "topology": {"current_source": "wilson", "diff_pair": "cmos",
                 "output_buffer": True, "z_load": 1e3},
    "name": "oa0",
}


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_queue(tmp_path, **kw):
    """A queue in ``tmp_path`` on a fake clock; keywords other than the
    queue's own ``clock`` and ``busy_retries`` are ServiceConfig fields."""
    knobs = {"clock": kw.pop("clock", None) or FakeClock()}
    if "busy_retries" in kw:
        knobs["busy_retries"] = kw.pop("busy_retries")
    config = ServiceConfig(data_dir=str(tmp_path / "svc"), **kw)
    return JobQueue(config, **knobs)


def make_request(**overrides):
    payload = {"spec": {"gain": 100, "ugf": "2Meg"}}
    payload.update(overrides)
    return JobRequest.from_payload(payload)


# --------------------------------------------------------------------------
# configuration


class TestServiceConfig:
    @pytest.mark.parametrize("field, value", [
        ("lease_seconds", 0.0),
        ("lease_seconds", -1.0),
        ("poll_interval_s", 0.0),
        ("drain_timeout_s", -1.0),
        ("backoff_base_s", -0.5),
        ("backoff_cap_s", -1.0),
        ("service_workers", 0),
        ("max_queue_depth", 0),
        ("tenant_max_active", 0),
        ("tenant_max_evals", 0),
        ("max_attempts", 0),
        ("synth_workers", 0),
        ("port", -1),
        ("port", 65536),
    ])
    def test_an_out_of_range_value_is_refused(self, field, value):
        with pytest.raises(SpecificationError, match=field):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("drain_timeout_s", 0.0),
        ("backoff_base_s", 0.0),
        ("backoff_cap_s", 0.0),
        ("synth_workers", None),
        ("port", 0),
        ("port", 65535),
    ])
    def test_a_value_on_the_bound_is_kept(self, field, value):
        assert getattr(ServiceConfig(**{field: value}), field) == value


# --------------------------------------------------------------------------
# job model + admission


class TestJobRequest:
    def test_parses_cli_fixture_shape(self):
        request = JobRequest.from_payload({
            "name": "opamp1",
            "mode": "ape",
            "spec": {"gain": "206", "ugf": "1.3Meg", "ibias": "25u"},
            "topology": {"current_source": "wilson", "z_load": "inf"},
            "constraints": [
                {"metric": "dc_power", "kind": "le", "bound": "1m"},
            ],
            "seed": 7,
            "restarts": 2,
            "tenant": "acme",
        })
        assert request.spec().gain == 206.0
        assert request.spec().ugf == pytest.approx(1.3e6)
        assert request.spec().ibias == pytest.approx(25e-6)
        assert request.opamp_topology().current_source == "wilson"
        assert request.to_payload()["constraints"] == [
            {"metric": "dc_power", "kind": "le", "bound": 1e-3, "weight": 1.0}
        ]
        assert request.tenant == "acme"

    def test_rejects_malformed_payloads(self):
        with pytest.raises(SpecificationError):
            JobRequest.from_payload({"spec": {"gain": 100}})  # no ugf
        with pytest.raises(SpecificationError):
            JobRequest.from_payload({"spec": {"gain": -5, "ugf": 2e6}})
        with pytest.raises(SpecificationError):
            JobRequest.from_payload({"spec": {"gain": 10, "ugf": 2e6},
                                     "bogus_field": 1})
        with pytest.raises(SpecificationError):
            JobRequest.from_payload([1, 2, 3])
        with pytest.raises(SpecificationError):
            JobRequest.from_payload({"spec": {"gain": 10, "ugf": 2e6},
                                     "seed": "seven"})

    def test_payload_round_trip_preserves_fingerprint(self):
        request = make_request(seed=9, max_evaluations=44)
        back = JobRequest.from_payload(request.to_payload())
        assert back == request
        assert back.fingerprint(TECH) == request.fingerprint(TECH)

    def test_fingerprint_ignores_tenant_but_not_problem(self):
        base = make_request()
        assert make_request(tenant="other").fingerprint(TECH) == \
            base.fingerprint(TECH)
        assert make_request(seed=5).fingerprint(TECH) != \
            base.fingerprint(TECH)
        assert make_request(
            spec={"gain": 101, "ugf": "2Meg"}
        ).fingerprint(TECH) != base.fingerprint(TECH)

    def test_fingerprint_carries_the_evaluator_version(self, monkeypatch):
        """A result of another evaluator never dedupes a new submission."""
        import repro.synthesis.problems as problems
        from repro.service.jobs import job_id_for

        request = make_request()
        current = request.fingerprint(TECH)
        monkeypatch.setattr(
            problems, "EVALUATOR_VERSION", problems.EVALUATOR_VERSION - 1
        )
        previous = request.fingerprint(TECH)
        assert previous != current
        assert job_id_for(previous) != job_id_for(current)

    def test_fingerprints_and_stored_row_are_pinned(self):
        """Job ids and the queue's stored payload, byte for byte: a moved
        byte would stop old queue rows from deduping new submissions."""
        drill = JobRequest.from_payload({
            "spec": {"gain": 100, "ugf": "2Meg"},
            "max_evaluations": 60, "restarts": 3, "seed": 11,
        })
        assert drill.fingerprint(TECH) == (
            "1d73171760f3386fac77f31ea92f98bbc50781c856b0a3579c429a16034efc3d"
        )
        full = JobRequest.from_payload({
            "spec": {"gain": 206, "ugf": "1.3Meg", "ibias": "1u",
                     "cl": "10p", "area": "200p", "slew_rate": "1Meg"},
            "topology": {"current_source": "wilson", "diff_pair": "cmos",
                         "output_buffer": True, "z_load": "10k"},
            "constraints": [
                {"metric": "dc_power", "kind": "le", "bound": "1m",
                 "weight": 2},
            ],
            "name": "oa-pin", "mode": "standalone", "seed": 7,
            "restarts": 2, "max_evaluations": 90,
        })
        assert full.fingerprint(TECH) == (
            "d06c1161fa31d5b5d76b1ec65fac4312bbc4807bd2c26d278c8a63df1b557614"
        )
        assert full.to_json() == (
            '{"constraints": [{"bound": 0.001, "kind": "le", '
            '"metric": "dc_power", "weight": 2.0}], "max_evaluations": 90, '
            '"mode": "standalone", "name": "oa-pin", "restarts": 2, '
            '"seed": 7, "spec": {"area": 2e-10, "cl": 1e-11, '
            '"gain": 206.0, "ibias": 1e-06, "slew_rate": 1000000.0, '
            '"ugf": 1300000.0}, "tenant": "default", "topology": '
            '{"current_source": "wilson", "diff_pair": "cmos", '
            '"gain_stage": null, "output_buffer": true, "z_load": 10000.0}}'
        )

    def test_infinite_area_round_trips(self):
        request = JobRequest.from_payload(
            {"spec": {"gain": 100, "ugf": 2e6, "area": "inf"}}
        )
        assert math.isinf(request.spec().area)
        back = JobRequest.from_payload(request.to_payload())
        assert math.isinf(back.spec().area)


class TestAdmission:
    def test_feasible_spec_admitted(self):
        report = admit(TECH, make_request())
        assert report["feasible"] is True

    def test_infeasible_spec_rejected_with_codes(self):
        request = JobRequest.from_payload(INFEASIBLE)
        with pytest.raises(AdmissionError) as err:
            admit(TECH, request)
        assert "F101" in err.value.error_codes
        assert err.value.report["feasible"] is False

    def test_admission_is_fast_and_consumes_no_evaluations(self):
        request = JobRequest.from_payload(INFEASIBLE)
        with pytest.raises(AdmissionError):
            admit(TECH, request)  # warm the estimator tables
        before = global_stats().evaluations
        t0 = time.perf_counter()
        with pytest.raises(AdmissionError):
            admit(TECH, request)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.050, f"admission took {elapsed * 1e3:.1f} ms"
        assert global_stats().evaluations == before

        # The feasible leg runs every rule and the contraction.  Best of
        # three, so one descheduled run on a busy host does not fail it.
        request = JobRequest.from_payload(OA0)
        assert admit(TECH, request)["feasible"] is True  # warm
        timings = []
        for _ in range(3):
            t0 = time.perf_counter()
            admit(TECH, request)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.050, (
            f"feasible admission took {min(timings) * 1e3:.1f} ms"
        )
        assert global_stats().evaluations == before


# --------------------------------------------------------------------------
# durable queue


class TestJobQueue:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        queue = make_queue(tmp_path)
        request = make_request()
        record, created = queue.submit(request, request.fingerprint(TECH))
        assert created and record.state == "queued"
        leased = queue.claim("w1", lease_seconds=30)
        assert leased.id == record.id
        assert leased.state == "running" and leased.attempts == 1
        assert queue.complete(leased.id, "w1", {"best_cost": 1.5})
        done = queue.get(record.id)
        assert done.state == "done"
        assert done.result == {"best_cost": 1.5}
        # terminal rows hold no lease and no queue capacity
        assert done.lease_owner is None and queue.depth() == 0

    def test_submit_dedupes_on_fingerprint(self, tmp_path):
        queue = make_queue(tmp_path)
        request = make_request()
        fp = request.fingerprint(TECH)
        first, created_a = queue.submit(request, fp)
        second, created_b = queue.submit(request, fp)
        assert created_a and not created_b
        assert first.id == second.id
        assert queue.depth() == 1

    def test_rows_survive_handle_reopen(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        queue.close()
        fresh = make_queue(tmp_path, clock=clock)
        record = fresh.get_by_fingerprint(request.fingerprint(TECH))
        assert record is not None and record.state == "queued"
        assert JobRequest.from_payload(record.payload) == request

    def test_other_schema_version_raises_naming_both(self, tmp_path):
        queue = make_queue(tmp_path)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        queue.close()
        conn = sqlite3.connect(queue.path)
        conn.execute("UPDATE meta SET value='7' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(QueueError) as raised:
            make_queue(tmp_path).depth()
        assert "'7'" in str(raised.value)
        assert f"supported {QUEUE_SCHEMA_VERSION}" in str(raised.value)

    def test_expired_lease_is_reclaimed_fresh_one_is_not(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        leased = queue.claim("w1", lease_seconds=10)
        assert leased is not None
        # Lease still live: nobody else can claim it.
        assert queue.claim("w2", lease_seconds=10) is None
        clock.advance(11)
        reclaimed = queue.claim("w2", lease_seconds=10)
        assert reclaimed is not None and reclaimed.id == leased.id
        assert reclaimed.attempts == 2 and reclaimed.reclaims == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        leased = queue.claim("w1", lease_seconds=10)
        clock.advance(8)
        assert queue.heartbeat(leased.id, "w1", lease_seconds=10)
        clock.advance(8)  # 16s after claim, but only 8 after heartbeat
        assert queue.claim("w2", lease_seconds=10) is None
        # A non-owner cannot renew.
        assert not queue.heartbeat(leased.id, "intruder", lease_seconds=10)

    def test_retry_backoff_gates_reclaim(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, backoff_base_s=4.0, max_attempts=5
        )
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        leased = queue.claim("w1", lease_seconds=10)
        assert queue.fail(leased.id, "w1", "boom") == "queued"
        # Backed off: not claimable yet.
        assert queue.claim("w1", lease_seconds=10) is None
        clock.advance(4.5)
        retried = queue.claim("w1", lease_seconds=10)
        assert retried is not None and retried.attempts == 2
        # Second failure doubles the backoff (8 s, capped).
        assert queue.fail(retried.id, "w1", "boom") == "queued"
        clock.advance(4.5)
        assert queue.claim("w1", lease_seconds=10) is None
        clock.advance(4.0)
        assert queue.claim("w1", lease_seconds=10) is not None

    def test_quarantine_after_max_attempts(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(
            tmp_path, clock=clock, max_attempts=2, backoff_base_s=0.1
        )
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        for attempt in range(1, 3):
            clock.advance(1)
            leased = queue.claim("w1", lease_seconds=10)
            assert leased is not None and leased.attempts == attempt
            state = queue.fail(leased.id, "w1", f"boom {attempt}")
        assert state == "quarantined"
        assert queue.get(leased.id).state == "quarantined"
        assert queue.jobs_quarantined == 1

    def test_crash_looping_job_is_quarantined(self, tmp_path):
        """Lease expiries (not exceptions) must also exhaust attempts."""
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock, max_attempts=2)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        for _ in range(2):
            assert queue.claim("w1", lease_seconds=5) is not None
            clock.advance(6)  # server "crashes", lease lapses
        # Third pass: reclaim sweep re-queues it, quarantine sweep
        # sees attempts exhausted.
        assert queue.claim("w1", lease_seconds=5) is None
        record = queue.get_by_fingerprint(request.fingerprint(TECH))
        assert record.state == "quarantined"

    def test_non_retryable_failure_is_terminal(self, tmp_path):
        queue = make_queue(tmp_path)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        leased = queue.claim("w1", lease_seconds=10)
        assert queue.fail(
            leased.id, "w1", "bad spec", retryable=False
        ) == "failed"
        assert queue.get(leased.id).state == "failed"

    def test_busy_fault_retries_then_succeeds(self, tmp_path):
        queue = make_queue(tmp_path, busy_retries=5)
        request = make_request()
        with injected_faults(
            {"queue.busy": FaultSpec("queue.busy", 1.0, max_fires=2)}
        ) as injector:
            record, created = queue.submit(
                request, request.fingerprint(TECH)
            )
        assert created and record.state == "queued"
        assert injector.fires_by_site["queue.busy"] == 2
        assert queue.busy_retries_seen == 2

    def test_busy_fault_exhausts_into_queue_error(self, tmp_path):
        queue = make_queue(tmp_path, busy_retries=3)
        request = make_request()
        with injected_faults({"queue.busy": 1.0}) as injector:
            with pytest.raises(QueueError, match="locked"):
                queue.submit(request, request.fingerprint(TECH))
        assert injector.fires_by_site["queue.busy"] == 4  # 1 + 3 retries
        # The failed submit left no torn row behind.
        assert queue.get_by_fingerprint(request.fingerprint(TECH)) is None

    def test_tenant_load_counts_active_only(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        a = make_request(tenant="acme", max_evaluations=30)
        b = make_request(tenant="acme", max_evaluations=40, seed=2)
        c = make_request(tenant="zeta", max_evaluations=50, seed=3)
        for request in (a, b, c):
            queue.submit(request, request.fingerprint(TECH))
            # Distinct submit times: the claim below takes ``a`` by FIFO
            # order, not by where its job id happens to sort.
            clock.advance(1)
        leased = queue.claim("w1", lease_seconds=10)
        queue.complete(leased.id, "w1", {})
        jobs, evals = queue.tenant_load("acme")
        assert jobs == 1 and evals == 40  # the done job dropped out
        assert queue.tenant_load("zeta") == (1, 50)

    def test_stats_snapshot(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        request = make_request()
        queue.submit(request, request.fingerprint(TECH))
        queue.claim("w1", lease_seconds=5)
        clock.advance(10)
        stats = queue.stats()
        assert stats["jobs"]["running"] == 1
        assert stats["expired_leases"] == 1
        assert stats["depth"] == 1


# --------------------------------------------------------------------------
# worker execution


class TestJobWorker:
    def _submit(self, queue, **overrides):
        overrides.setdefault("max_evaluations", 12)
        request = make_request(**overrides)
        record, _ = queue.submit(request, request.fingerprint(TECH))
        return record

    def _worker(self, tmp_path, **config):
        config = ServiceConfig(
            data_dir=str(tmp_path / "svc"), lease_seconds=5.0, **config
        )
        queue = JobQueue(config)
        return queue, JobWorker(queue, TECH, config, owner="w1")

    def test_executes_job_to_done(self, tmp_path):
        queue, worker = self._worker(
            tmp_path, max_attempts=2, poll_interval_s=0.05
        )
        self._submit(queue)
        leased = queue.claim("w1", lease_seconds=5)
        assert worker.execute(leased) == "done"
        record = queue.get(leased.id)
        assert record.state == "done"
        assert record.result["evaluations"] > 0
        assert math.isfinite(record.result["best_cost"])
        # The run is journaled for crash recovery...
        assert os.path.exists(
            os.path.join(worker.run_dir_for(record.id), "journal.jsonl")
        )
        # ...and fed the shared store for warm dedupe hits.
        assert record.result["store_writes"] > 0

    def test_poison_job_retries_then_quarantines(self, tmp_path):
        queue, worker = self._worker(
            tmp_path, max_attempts=2, backoff_base_s=0.01,
            poll_interval_s=0.01,
        )
        record = self._submit(queue)
        with injected_faults({"job.poison": 1.0}) as injector:
            assert worker.execute(
                queue.claim("w1", lease_seconds=5)
            ) == "queued"
            time.sleep(0.05)  # let the backoff gate pass
            assert worker.execute(
                queue.claim("w1", lease_seconds=5)
            ) == "quarantined"
        assert injector.fires_by_site["job.poison"] == 2
        final = queue.get(record.id)
        assert final.state == "quarantined"
        assert "injected fault" in final.error
        assert worker.jobs_failed == 2

    def test_poison_capped_at_one_fire_recovers(self, tmp_path):
        queue, worker = self._worker(
            tmp_path, max_attempts=3, backoff_base_s=0.01,
            poll_interval_s=0.01,
        )
        record = self._submit(queue)
        with injected_faults(
            {"job.poison": FaultSpec("job.poison", 1.0, max_fires=1)}
        ) as injector:
            assert worker.execute(
                queue.claim("w1", lease_seconds=5)
            ) == "queued"
            time.sleep(0.05)
            assert worker.execute(
                queue.claim("w1", lease_seconds=5)
            ) == "done"
        assert injector.fires_by_site["job.poison"] == 1
        final = queue.get(record.id)
        assert final.state == "done" and final.attempts == 2


# --------------------------------------------------------------------------
# HTTP API


def _post(url, payload):
    req = urllib.request.Request(
        url + "/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _wait_terminal(url, job_id, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = _get(url, f"/jobs/{job_id}")
        assert status == 200
        if body["job"]["state"] in ("done", "failed", "quarantined"):
            return body["job"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout_s}s")


@pytest.fixture
def serve(tmp_path):
    """Factory: start an in-process server, stop it at teardown."""
    started = []

    def factory(*, paused=False, **config_kw):
        config_kw.setdefault("data_dir", str(tmp_path / "svc"))
        config_kw.setdefault("port", 0)
        config_kw.setdefault("lease_seconds", 5.0)
        config_kw.setdefault("poll_interval_s", 0.05)
        service = SynthesisService(TECH, ServiceConfig(**config_kw))
        if paused:
            for worker in service.workers:
                worker.draining.set()
        server = ServiceServer(service)
        server.start()
        started.append(server)
        return server

    yield factory
    for server in started:
        server.stop(drain_timeout_s=10.0)


class TestServiceHTTP:
    def test_submit_run_fetch_result(self, serve):
        server = serve()
        status, body, _ = _post(server.url, FEASIBLE)
        assert status == 202
        assert body["deduplicated"] is False
        assert body["admission"]["feasible"] is True
        job = _wait_terminal(server.url, body["job"]["id"])
        assert job["state"] == "done"
        assert job["result"]["meets_spec"] in (True, False)
        assert job["result"]["evaluations"] > 0
        assert job["progress"] is None or "chains_done" in job["progress"]

    def test_duplicate_submission_attaches_then_serves_warm(self, serve):
        server = serve()
        status, first, _ = _post(server.url, FEASIBLE)
        assert status == 202
        job = _wait_terminal(server.url, first["job"]["id"])
        status, again, _ = _post(server.url, FEASIBLE)
        assert status == 200 and again["deduplicated"] is True
        assert again["job"]["state"] == "done"
        assert again["job"]["result"]["best_cost"] == \
            job["result"]["best_cost"]

    def test_malformed_and_infeasible_rejections(self, serve):
        server = serve(paused=True)
        status, body, _ = _post(server.url, {"spec": {"gain": 100}})
        assert status == 400 and body["kind"] == "invalid-request"
        status, body, _ = _post(server.url, "not an object")
        assert status == 400
        status, body, _ = _post(server.url, INFEASIBLE)
        assert status == 422 and body["kind"] == "infeasible-spec"
        assert "F101" in body["error_codes"]
        assert body["report"]["feasible"] is False
        # Rejections consume no queue capacity.
        assert _get(server.url, "/stats")[1]["queue"]["depth"] == 0

    def test_unknown_routes_and_jobs_404(self, serve):
        server = serve(paused=True)
        assert _get(server.url, "/jobs/nope")[0] == 404
        assert _get(server.url, "/bogus")[0] == 404
        assert _post(server.url, {})[0] == 400  # empty body, no spec

    def test_queue_depth_bound_returns_429_with_retry_after(self, serve):
        server = serve(paused=True, max_queue_depth=1)
        status, _, _ = _post(server.url, FEASIBLE)
        assert status == 202
        other = dict(FEASIBLE, seed=99)
        status, body, headers = _post(server.url, other)
        assert status == 429 and body["kind"] == "overloaded"
        assert int(headers["Retry-After"]) >= 1
        # Duplicates of accepted work still attach: dedupe is not load.
        status, body, _ = _post(server.url, FEASIBLE)
        assert status == 200 and body["deduplicated"] is True

    def test_tenant_caps_return_429(self, serve):
        server = serve(
            paused=True, tenant_max_active=1, tenant_max_evals=200
        )
        assert _post(server.url, dict(FEASIBLE, tenant="acme"))[0] == 202
        status, body, _ = _post(
            server.url, dict(FEASIBLE, seed=5, tenant="acme")
        )
        assert status == 429 and body["kind"] == "tenant-jobs"
        # Another tenant is unaffected by acme's cap.
        assert _post(
            server.url, dict(FEASIBLE, seed=5, tenant="zeta")
        )[0] == 202
        # Budget cap: a single job bigger than the whole tenant budget
        # is refused even with zero jobs active.
        status, body, _ = _post(
            server.url,
            dict(FEASIBLE, seed=7, tenant="mega", max_evaluations=250),
        )
        assert status == 429 and body["kind"] == "tenant-budget"

    def test_healthz_and_stats(self, serve):
        server = serve(paused=True)
        status, body = _get(server.url, "/healthz")
        assert status == 200 and body["ok"] is True
        _post(server.url, INFEASIBLE)
        status, stats = _get(server.url, "/stats")
        assert status == 200
        assert stats["admission"]["rejected_infeasible"] == 1
        assert stats["queue"]["jobs"]["queued"] == 0
        assert "hit_rate" in stats["store"]

    def test_concurrent_duplicate_submissions_one_run(self, serve):
        """K parallel POSTs of one spec ⇒ one job, K identical results."""
        server = serve()
        k = 6
        results = [None] * k
        barrier = threading.Barrier(k)

        def submit(slot):
            barrier.wait()
            results[slot] = _post(server.url, FEASIBLE)

        threads = [
            threading.Thread(target=submit, args=(slot,))
            for slot in range(k)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        job_ids = {body["job"]["id"] for _, body, _ in results}
        assert len(job_ids) == 1, "duplicates must collapse onto one job"
        created = [body for _, body, _ in results if not body["deduplicated"]]
        assert len(created) == 1, "exactly one submission creates the job"
        assert all(status in (200, 202) for status, _, _ in results)

        job = _wait_terminal(server.url, job_ids.pop())
        assert job["state"] == "done"
        # Everybody who polls now reads the same single result row.
        final = [
            _get(server.url, f"/jobs/{job['id']}")[1]["job"]["result"]
            for _ in range(k)
        ]
        assert all(entry == final[0] for entry in final)
        stats = _get(server.url, "/stats")[1]
        assert stats["admission"]["accepted"] == 1
        assert stats["admission"]["deduplicated"] == k - 1


class _CountingEvent(threading.Event):
    """An Event that counts how often a worker waits on it."""

    def __init__(self):
        super().__init__()
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


class TestWakeOnEnqueue:
    """An idle worker starts a new job at once, not at its next poll."""

    #: Far longer than any assertion below waits, so only the wake can
    #: start a job in time.
    POLL_S = 30.0

    def test_posted_job_starts_without_waiting_out_the_poll(self, serve):
        server = serve(poll_interval_s=self.POLL_S)
        status, body, _ = _post(server.url, FEASIBLE)
        assert status == 202
        job = _wait_terminal(server.url, body["job"]["id"], timeout_s=10.0)
        assert job["state"] == "done"
        assert job["started_at"] - job["submitted_at"] < 1.0

    def test_every_worker_wakes_and_each_job_runs_once(self, serve):
        server = serve(poll_interval_s=self.POLL_S, service_workers=2)
        job_ids = []
        for seed in (3, 4):
            status, body, _ = _post(
                server.url, dict(FEASIBLE, seed=seed, max_evaluations=40)
            )
            assert status == 202
            job_ids.append(body["job"]["id"])
        first, second = (
            _wait_terminal(server.url, job_id, timeout_s=10.0)
            for job_id in job_ids
        )
        for job in (first, second):
            assert job["state"] == "done" and job["attempts"] == 1
        # The second job ran beside the first: its wake reached the
        # worker that was still idle, not only the busy one.
        assert second["started_at"] < first["finished_at"]

    def test_stop_wakes_idle_workers(self, tmp_path):
        service = SynthesisService(TECH, ServiceConfig(
            data_dir=str(tmp_path / "svc"), port=0,
            poll_interval_s=self.POLL_S, service_workers=2,
        ))
        server = ServiceServer(service)
        server.start()
        time.sleep(0.1)  # let both workers reach their idle wait
        t0 = time.perf_counter()
        server.stop(drain_timeout_s=10.0)
        assert time.perf_counter() - t0 < 2.0
        assert not any(thread.is_alive() for thread in service._threads)

    def test_paused_worker_with_a_pending_wake_does_not_spin(self, serve):
        poll_s = 0.2
        server = serve(paused=True, poll_interval_s=poll_s)
        worker = server.service.workers[0]
        worker.wake_event = _CountingEvent()
        status, _, _ = _post(server.url, FEASIBLE)
        assert status == 202
        before = worker.wake_event.waits
        t0 = time.monotonic()
        time.sleep(1.0)
        elapsed = time.monotonic() - t0
        waits = worker.wake_event.waits - before
        assert waits <= elapsed / poll_s + 3, f"{waits} waits in {elapsed:.2f} s"


# --------------------------------------------------------------------------
# crash recovery + drain (subprocess, the real kill -9 story)


def _spawn_server(data_dir, *, faults_env=None, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if faults_env is not None:
        env["REPRO_FAULTS"] = faults_env
    else:
        env.pop("REPRO_FAULTS", None)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--data-dir", str(data_dir),
            "--lease", "2", "--drain-timeout", "60",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    url = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            url = line.rsplit(" ", 1)[-1].strip()
            break
        if process.poll() is not None:
            break
    assert url, "server did not report its URL"
    return process, url


# Three chains of 60 evaluations: long enough that the crash monitor
# (polling every 0.2 s) reliably fires between chain 1 and chain 3.
CRASH_JOB = {
    "spec": {"gain": 100, "ugf": "2Meg"},
    "max_evaluations": 60,
    "restarts": 3,
    "seed": 11,
}


@pytest.mark.timeout(300)
def test_crash_recovery_resumes_bit_exact(tmp_path):
    """kill -9 mid-job: restart re-leases, resumes, matches reference."""
    from repro.synthesis import synthesize_opamp

    data_dir = tmp_path / "svc"
    # The service.crash site hard-exits the server right after the
    # first chain-finished record is fsynced: a deterministic kill -9
    # in the middle of the 3-chain job.
    process, url = _spawn_server(
        data_dir, faults_env="service.crash=1.0:1"
    )
    try:
        status, body, _ = _post(url, CRASH_JOB)
        assert status == 202
        job_id = body["job"]["id"]
        process.wait(timeout=240)
        assert process.returncode == CRASH_EXIT_CODE
    finally:
        if process.poll() is None:
            process.kill()

    # The journal holds exactly the one chain the crash followed.
    journal_path = data_dir / "runs" / job_id / "journal.jsonl"
    assert journal_path.exists()
    chains_done = sum(
        1 for line in journal_path.read_text().splitlines()
        if '"chain-finished"' in line
    )
    assert chains_done == 1

    # Restart on the same data dir, no faults: the lease lapses, the
    # job is reclaimed and resumed from its journal.
    process, url = _spawn_server(data_dir)
    try:
        job = _wait_terminal(url, job_id, timeout_s=240)
        assert job["state"] == "done"
        assert job["attempts"] == 2  # crashed claim + recovery claim
        assert job["result"]["resumed_chains"] == list(range(chains_done))
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()

    # Uncrashed reference: same problem, fresh dirs, pure library run.
    request = JobRequest.from_payload(CRASH_JOB)
    reference = synthesize_opamp(
        TECH,
        request.spec(),
        request.opamp_topology(),
        mode=request.mode,
        synthesis_spec=request.synthesis_spec(),
        max_evaluations=request.max_evaluations,
        seed=request.seed,
        name=request.name,
        restarts=request.restarts,
        workers=1,
        run_dir=str(tmp_path / "ref-run"),
        store_dir=str(tmp_path / "ref-store"),
    )
    assert job["result"]["best_cost"] == reference.best_cost
    assert job["result"]["chain_costs"] == [
        chain.best_cost for chain in reference.chains
    ]


@pytest.mark.timeout(120)
def test_sigterm_drains_and_preserves_queue(tmp_path):
    data_dir = tmp_path / "svc"
    process, url = _spawn_server(data_dir)
    try:
        status, body, _ = _post(
            url, dict(FEASIBLE, max_evaluations=8)
        )
        assert status == 202
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=90)
        assert process.returncode == 0
    finally:
        if process.poll() is None:
            process.kill()
    # The queue database survived the drain with the job accounted for.
    queue = JobQueue(ServiceConfig(data_dir=str(data_dir)))
    record = queue.get(body["job"]["id"])
    assert record is not None
    assert record.state in ("done", "queued", "running")
    queue.close()


# --------------------------------------------------------------------------
# satellite regressions: interrupt-time store flush, monotonic deadlines


def test_interrupted_run_flushes_store_for_warm_restart(tmp_path):
    """A drain/SIGTERM interrupt must not strand the write-behind
    buffer: evaluations already paid for are flushed at the moment of
    interrupt, so a restarted run (or another tenant's duplicate)
    starts warm."""
    from repro.opamp import OpAmpSpec
    from repro.runtime.supervisor import SupervisorConfig
    from repro.synthesis import synthesize_opamp

    spec = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    kwargs = dict(
        mode="ape", max_evaluations=20, name="flush", seed=5,
        restarts=3, workers=1, store_dir=str(tmp_path / "store"),
    )
    partial = synthesize_opamp(
        TECH, spec,
        supervisor=SupervisorConfig(
            install_signal_handlers=False, interrupt_after=1
        ),
        **kwargs,
    )
    assert partial.interrupted
    assert partial.store_writes > 0, (
        "interrupt must flush the write-behind store buffer"
    )
    warm = synthesize_opamp(TECH, spec, **kwargs)
    assert warm.store_hits > 0, "restart after interrupt must run warm"


def test_budget_deadline_never_reads_wall_clock(monkeypatch):
    """Deadline handling uses time.monotonic(): an NTP step (or a
    container clock jump) must not shorten or extend an evaluation
    budget.  Reading time.time() anywhere in the deadline path fails
    this test."""
    import time as time_module

    from repro.opamp import OpAmpSpec
    from repro.runtime.budget import EvalBudget
    from repro.synthesis import synthesize_opamp

    def _no_wall_clock():
        raise AssertionError("wall-clock read in a budget deadline path")

    monkeypatch.setattr(time_module, "time", _no_wall_clock)
    spec = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    result = synthesize_opamp(
        TECH, spec, mode="ape", max_evaluations=8, seed=2, name="mono",
        restarts=2, workers=1,
        budget=EvalBudget(deadline_seconds=600.0),
    )
    assert result.evaluations > 0
