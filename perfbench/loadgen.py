"""The ``service_mix`` workload: open-loop traffic against ``repro serve``.

A pass runs several server lifetimes, one per round, each with its own
seeded schedule.  Each lifetime is a fresh ``repro serve`` process with
its default configuration and a fresh data directory, so nothing one
lifetime stored or deduplicated helps the next.  The generator here
sends the schedule from at most ``CONNECTIONS`` (= 2, the reference
host's CPUs) concurrent connections.  It is an open loop: every request is sent when
it is due whether or not earlier ones were answered, and the generator
reports how late it ran.

A lifetime has two phases, so that no fast-path request waits on a
synthesis that happens to be running in the same interpreter (that
wait would put the median at the busy/idle boundary, where it jumps):

* the job phase: small feasible jobs from two buffered Table-1 rows,
  one every ``JOB_INTERVAL_S``, each with a distinct seed; each row
  comes twice, so its second job shares the first one's store
  namespace;
* once every job is terminal, the fast phase: re-submissions of the
  jobs (the dedupe path) and provably infeasible specs, which the
  admission gate answers with 422.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from workloads import TABLE1, calibrate, draw_seed, host_record, now, run_rounds

HERE = Path(__file__).resolve().parent

#: The job phase: one job per entry, in seeded order.  A job is due
#: every ``JOB_INTERVAL_S``, enough for the one before it to be admitted
#: (about 0.1 s), wait for the worker's idle poll (up to 0.2 s) and run
#: (about 0.4 s), so no job shares the interpreter with the next one's
#: admission.  The poll wait is the latency's random part; a job large
#: enough to dwarf it keeps the latency's median steady.
JOB_ROWS = ("oa0", "oa7", "oa0", "oa7")
JOB_INTERVAL_S = 1.0
JOB_RESTARTS = 2
JOB_EVALUATIONS = 60
#: The fast phase: ``FAST_COUNT`` requests, one every
#: ``FAST_INTERVAL_S``, cycling through ``FAST_PATTERN``.  A dedupe
#: answers in about a quarter of a 422's time; with a third of the
#: requests deduplicating, the median falls well inside the 422s, the
#: admission gate's path, instead of on the edge between the two.
FAST_COUNT = 24
FAST_INTERVAL_S = 0.025
FAST_PATTERN = ("dedupe", "gain", "area")
CONNECTIONS = 2
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
POLL_INTERVAL_S = 0.1
STOP_TIMEOUT_S = 40.0


class Request:
    """One request of a lifetime and what came back."""

    def __init__(self, index, due, kind, payload, target=None):
        self.op = f"r{index}"
        self.due = due
        self.kind = kind
        self.payload = payload
        self.target = target
        self.due_at = None
        self.sent = None
        self.received = None
        self.status = None
        self.body = None
        self.error = None
        self.record = None


def job_payload(row, seed) -> dict:
    name, gain, ugf, area, ibias, source, buffered, z_load = row
    return {
        "spec": {"gain": gain, "ugf": ugf, "area": area, "ibias": ibias,
                 "cl": 10e-12},
        "topology": {
            "current_source": source,
            "diff_pair": "cmos",
            "output_buffer": buffered,
            "z_load": "inf" if math.isinf(z_load) else z_load,
        },
        "name": name,
        "mode": "ape",
        "seed": seed,
        "restarts": JOB_RESTARTS,
        "max_evaluations": JOB_EVALUATIONS,
    }


def infeasible_payload(kind, rng) -> dict:
    """A spec the interval analysis proves unreachable (F/C codes)."""
    if kind == "gain":
        # Gain beyond the two-stage structural limit (F101, F104).
        return {
            "spec": {
                "gain": 10 ** rng.uniform(6.0, 7.0),
                "ugf": rng.uniform(1e6, 8e6),
            },
            "seed": draw_seed(rng),
        }
    # Table-1 oa6: its area budget cannot hold the devices (F102).
    oa6 = next(row for row in TABLE1 if row[0] == "oa6")
    return job_payload(oa6, draw_seed(rng))


def build_plan(rng):
    """A lifetime's schedule: ``(jobs, fast)`` lists of request tuples.

    A tuple is ``(due, kind, payload, target)``; ``due`` counts from the
    start of its phase and ``target`` indexes the re-submitted job.
    """
    rows = {row[0]: row for row in TABLE1}
    names = list(JOB_ROWS)
    rng.shuffle(names)
    seeds: set[int] = set()
    jobs = []
    for j, name in enumerate(names):
        seed = draw_seed(rng)
        while seed in seeds:
            seed = draw_seed(rng)
        seeds.add(seed)
        jobs.append((j * JOB_INTERVAL_S, "job",
                     job_payload(rows[name], seed), None))
    order = list(range(len(jobs)))
    rng.shuffle(order)
    fast = []
    for k in range(FAST_COUNT):
        kind = FAST_PATTERN[k % len(FAST_PATTERN)]
        due = k * FAST_INTERVAL_S
        if kind == "dedupe":
            target = order[len(fast) // len(FAST_PATTERN) % len(order)]
            fast.append((due, "dedupe", jobs[target][2], target))
        else:
            fast.append((due, "infeasible", infeasible_payload(kind, rng),
                         None))
    return jobs, fast


def http_call(port, method, path, payload=None, op=None):
    """One request on its own connection; returns ``(status, json_body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if op is not None:
            headers["X-Bench-Op"] = op
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def start_server(workdir: Path, trace_dir):
    """Spawn the server; returns ``(process, port, setup_seconds)``."""
    data_dir = workdir / "service-data"
    out_path = workdir / "server.out"
    serve = ["serve", "--port", "0", "--data-dir", str(data_dir)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *serve]
    else:
        cmd = [sys.executable, str(HERE / "serve.py"), str(trace_dir), *serve]
    with open(out_path, "w", encoding="utf-8") as out:
        spawned = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
    listening = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
    port = None
    try:
        while True:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {proc.returncode} during start-up:\n"
                    + out_path.read_text(encoding="utf-8")[-2000:]
                )
            if now() - spawned > START_TIMEOUT_S:
                raise RuntimeError("server did not come up")
            if port is None:
                found = listening.search(out_path.read_text(encoding="utf-8"))
                port = int(found.group(1)) if found else None
            if port is not None:
                try:
                    if http_call(port, "GET", "/healthz")[0] == 200:
                        return proc, port, now() - spawned
                except OSError:
                    pass
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc) -> bool:
    """SIGTERM drain; True when the server exited 0 within the window."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=STOP_TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


def send_all(port, requests, t0) -> None:
    """Open-loop sender: ``CONNECTIONS`` threads, requests in due order."""
    pending = deque(requests)
    lock = threading.Lock()

    def sender():
        while True:
            with lock:
                if not pending:
                    return
                request = pending.popleft()
            request.due_at = t0 + request.due
            delay = request.due_at - now()
            if delay > 0:
                time.sleep(delay)
            request.sent = now()
            try:
                request.status, request.body = http_call(
                    port, "POST", "/jobs", request.payload, request.op
                )
            except (OSError, ValueError) as exc:
                request.error = f"{type(exc).__name__}: {exc}"
            request.received = now()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def await_jobs(port, jobs) -> None:
    """Poll each accepted job until it is terminal or overdue."""
    open_jobs = [j for j in jobs if j.status == 202]
    while open_jobs:
        still = []
        for job in open_jobs:
            job_id = job.body["job"]["id"]
            status, body = http_call(port, "GET", f"/jobs/{job_id}")
            record = body.get("job") if status == 200 else None
            if record is not None and record["state"] in (
                "done", "failed", "quarantined",
            ):
                job.record = record
            elif now() - job.due_at < JOB_TIMEOUT_S:
                still.append(job)
        open_jobs = still
        if open_jobs:
            time.sleep(POLL_INTERVAL_S)


def check_requests(p, requests) -> None:
    """Per-request correctness; feeds the failure count."""
    for r in requests:
        label = f"{r.kind} {r.op}"
        if r.error is not None:
            p.check(False, f"{label}: {r.error}")
            continue
        job = (r.body or {}).get("job") or {}
        if r.kind == "job":
            result = (r.record or {}).get("result") or {}
            problems = [
                text for bad, text in (
                    (r.status != 202, f"HTTP {r.status}"),
                    (r.record is None or r.record["state"] != "done",
                     f"not done in time ({(r.record or {}).get('state')})"),
                    (result.get("evaluations")
                     != JOB_RESTARTS * JOB_EVALUATIONS,
                     f"{result.get('evaluations')} evaluations"),
                    (result.get("degraded") or result.get("interrupted"),
                     "degraded or interrupted result"),
                ) if bad
            ]
            p.check(not problems, f"{label}: {'; '.join(problems)}")
        elif r.kind == "dedupe":
            target = r.target
            target_job = (target.body or {}).get("job") or {}
            p.check(
                r.status == 200
                and (r.body or {}).get("deduplicated") is True
                and job.get("id") is not None
                and job.get("id") == target_job.get("id")
                and target.record is not None
                and job.get("result") == target.record.get("result"),
                f"{label}: HTTP {r.status}, body {str(r.body)[:200]}",
            )
        else:
            codes = (r.body or {}).get("error_codes") or []
            p.check(
                r.status == 422
                and (r.body or {}).get("kind") == "infeasible-spec"
                and bool(codes)
                and all(code[:1] in ("F", "C") for code in codes),
                f"{label}: HTTP {r.status}, codes {codes}",
            )


def direct_check(p, job, workdir: Path) -> None:
    """Untimed: one service job equals a direct ``synthesize_opamp`` call.

    Same request, same execution profile as the service worker (one
    synthesis worker, oversubscription allowed, journaled and
    store-backed), fresh directories.
    """
    from repro.service.jobs import JobRequest
    from repro.synthesis import synthesize_opamp
    from repro.technology import technology_by_name

    request = JobRequest.from_payload(job.payload)
    result = synthesize_opamp(
        technology_by_name("generic-0.5um"),
        request.spec(),
        request.opamp_topology(),
        mode=request.mode,
        synthesis_spec=request.synthesis_spec(),
        max_evaluations=request.max_evaluations,
        seed=request.seed,
        name=request.name,
        restarts=request.restarts,
        workers=1,
        oversubscribe=True,
        run_dir=str(workdir / "direct-run"),
        store_dir=str(workdir / "direct-store"),
    )
    served = job.record["result"]
    p.check(
        result.best_cost == served["best_cost"]
        and [c.best_cost for c in result.chains] == served["chain_costs"],
        f"direct run of {job.op} differs from the service result: "
        f"{result.best_cost!r} vs {served['best_cost']!r}",
    )


def service_layers(requests, trace_dir, epoch_offset) -> dict[str, float]:
    """Per-layer split of a traced lifetime (server spans + client).

    ``epoch_offset`` converts the queue's epoch timestamps to this
    process's performance counter.
    """
    from tracing import load_spans, self_times, synthesis_layers

    spans, counters = load_spans(trace_dir)
    jobs = [r for r in requests if r.kind == "job" and r.record is not None]
    results = [
        {"workers": 1, "screened_candidates": 0, **r.record["result"]}
        for r in jobs if r.record.get("result")
    ]
    layers = synthesis_layers(spans, results)
    own = self_times(spans)
    handled = {s.op: s.duration for s in spans if s.name == "http.handle"}
    admitted = {s.op: s.duration for s in spans if s.name == "admit"}
    admits = [s for s in spans if s.name == "admit"]
    queue = [s for s in spans if s.name == "queue"]
    overhead = [
        (r.received - r.sent) - handled[r.op]
        for r in requests if r.op in handled and r.received is not None
    ]
    late_ms = [(r.sent - r.due_at) * 1e3 for r in requests if r.sent]
    explained = 0.0
    latency = 0.0
    for r in jobs:
        record = r.record
        latency += record["finished_at"] - epoch_offset - r.due_at
        explained += (
            (r.sent - r.due_at)
            + (r.received - r.sent - handled.get(r.op, 0.0))
            + admitted.get(r.op, 0.0)
            + (record["started_at"] - record["submitted_at"])
            + (record["finished_at"] - record["started_at"])
        )
    layers.update({
        "admit.calls": len(admits),
        "admit.feasible_s": sum(s.duration for s in admits if s.attrs["feasible"]),
        "admit.infeasible_s": sum(
            s.duration for s in admits if not s.attrs["feasible"]
        ),
        "queue.ops": len(queue),
        "queue.s": sum(own[s.sid] for s in queue),
        "queue.wait_s": sum(
            r.record["started_at"] - r.record["submitted_at"] for r in jobs
        ),
        "queue.busy_retries": counters.get("queue.busy_retries", 0.0),
        "worker.exec_s": sum(
            r.record["finished_at"] - r.record["started_at"] for r in jobs
        ),
        "worker.synth_s": sum(
            s.duration for s in spans if s.name == "worker.synthesize"
        ),
        "http.requests": len(requests),
        "http.overhead_ms": statistics.median(overhead) * 1e3 if overhead else 0.0,
        "loadgen.late_p50_ms": statistics.median(late_ms),
        "loadgen.late_max_ms": max(late_ms),
        # Admission, queue wait, execution, HTTP and generator lateness
        # against each job's due-to-finished latency.
        "trace.coverage": explained / latency if latency else 0.0,
    })
    return layers


def run_lifetime(p, plan, workdir: Path, trace_dir):
    """One server lifetime: start, both phases, drain, then checks.

    Returns the lifetime's requests and its epoch-to-counter offset.
    """
    job_plan, fast_plan = plan
    jobs = [Request(i, *entry[:3]) for i, entry in enumerate(job_plan)]
    fast = [
        Request(len(jobs) + i, due, kind, payload,
                None if target is None else jobs[target])
        for i, (due, kind, payload, target) in enumerate(fast_plan)
    ]
    # The kernel runs in this process while the server idles: before
    # it starts, once it is up, between the phases and after them.
    cal_start = calibrate()
    proc, port, setup = start_server(workdir, trace_dir)
    try:
        cal_up = calibrate()
        epoch_offset = time.time() - now()
        send_all(port, jobs, now() + 0.05)
        await_jobs(port, jobs)
        cal_mid = calibrate()
        send_all(port, fast, now() + 0.05)
        cal_end = calibrate()
    finally:
        stopped = stop_server(proc)
    p.check(stopped, "server did not drain and exit 0 on SIGTERM")
    p.setups.append((setup, (cal_start + cal_up) / 2))

    requests = jobs + fast
    check_requests(p, requests)
    for r in fast:
        if r.received is not None:
            p.op(r.op, "fast", r.sent, r.received,
                 cal=(cal_mid + cal_end) / 2)
    for r in jobs:
        record = r.record
        if record is None or record["state"] != "done" or not record.get("result"):
            continue
        result = record["result"]
        p.op(
            r.op, "synth", r.due_at, record["finished_at"] - epoch_offset,
            cal=(cal_up + cal_mid) / 2,
            evals=result["evaluations"],
            eval_seconds=record["finished_at"] - record["started_at"],
            meets=bool(result["meets_spec"]),
            cost=float(result["best_cost"]),
        )
    return requests, epoch_offset


def run_service_pass(p, inputs, workdir: Path, deadline, min_rounds,
                     trace_dir):
    """Server lifetimes, one per round, the schedule of round ``R`` drawn
    from ``inputs(R)``; ``workloads.run_rounds`` says how many."""
    # The generator and every server it starts share one CPU, so the
    # kernel this process runs between phases times the CPU the server
    # computes on; the server runs one synthesis at a time either way.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    last = {}

    def run_round(index: int) -> None:
        lifetime_dir = workdir / f"lifetime-{index}"
        lifetime_dir.mkdir(parents=True)
        last["requests"], last["epoch_offset"] = run_lifetime(
            p, build_plan(inputs(index)), lifetime_dir, trace_dir
        )
        shutil.rmtree(lifetime_dir, ignore_errors=True)

    run_rounds(p, run_round, deadline, min_rounds)
    done = [
        r for r in last["requests"]
        if r.kind == "job" and r.record is not None
        and r.record["state"] == "done" and r.record.get("result")
    ]
    if done:
        with p.guard("direct synthesis check"):
            direct_check(p, done[0], workdir)
    else:
        p.check(False, "no job finished, nothing to check directly")
    p.host = host_record()
    if trace_dir is not None:
        p.layers = service_layers(
            last["requests"], trace_dir, last["epoch_offset"]
        )
    return p
