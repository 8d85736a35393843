"""Stdlib HTTP front end for the durable synthesis service.

``repro serve`` builds a :class:`SynthesisService` (job queue + worker
threads) and a :class:`ServiceServer` (``http.server`` threading HTTP
listener) on top of it.  No third-party web framework: the container
bakes in only numpy/scipy/networkx, and the API surface is four JSON
routes:

``POST /jobs``
    Validate (400 on malformed payloads), admission-gate (422 with
    the full analyzer report for provably infeasible specs — costs a
    few milliseconds, never a solver evaluation), dedupe by problem
    fingerprint (an identical request attaches to the existing job or
    returns the finished result immediately), then enqueue (202) and
    wake the idle workers.
    Overload — queue depth at its bound, or a tenant over its
    concurrent-job / evaluation-budget cap — returns 429 with a
    ``Retry-After`` header instead of queueing unbounded work.
``GET /jobs/{id}``
    The job row: state machine position, attempts, lease, progress
    (chains done / best cost so far), result or error.
``GET /healthz``
    200 while serving, 503 while draining.
``GET /stats``
    Queue depth and state counts, expired leases, busy retries,
    admission counters, aggregate store hit/write traffic and worker
    restarts across completed jobs.

Graceful shutdown: SIGTERM/SIGINT set the drain flag — the listener
answers 503, workers stop claiming, running jobs get a drain window to
finish, and whatever does not finish simply keeps its journal and its
queue row; the lease lapses and the next server run resumes it
bit-exact.  A ``kill -9`` is the same story minus the drain window,
which is the point of the design.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import urlparse

from ..errors import ApeError, SpecificationError
from ..runtime.diagnostics import Diagnostic, global_log
from ..synthesis.config import _integer
from .jobs import AdmissionError, JobRequest, admit
from .queue import JobQueue
from .worker import JobWorker

__all__ = ["ServiceConfig", "SynthesisService", "ServiceServer", "run_service"]


@dataclass
class ServiceConfig:
    """Tunables for one service instance, each declared once: ``repro
    serve``'s flags, :class:`JobQueue` and :class:`JobWorker` read them
    here.  Validated on construction: an invalid value raises
    :class:`~repro.errors.SpecificationError` naming the field."""

    host: str = "127.0.0.1"
    #: 0 picks a free port.
    port: int = 8765
    data_dir: str = "service-data"
    #: Worker threads claiming jobs (each runs one job at a time).
    service_workers: int = 1
    #: Process-pool width handed to each job's ``synthesize_opamp``.
    synth_workers: int | None = 1
    #: Allow more synthesis workers than usable CPUs.
    oversubscribe: bool = False
    #: A job's lease; a crashed server's jobs become claimable after it.
    lease_seconds: float = 15.0
    #: Timeout of an idle worker's wait.  ``submit`` wakes the workers
    #: as soon as it enqueues a job; the timeout only picks up retries
    #: whose backoff has elapsed, expired leases and jobs enqueued by
    #: another process sharing the data dir.  It also paces a running
    #: job's heartbeat (at most a third of the lease).
    poll_interval_s: float = 0.2
    #: Admission bounds: total queued+running jobs, then per-tenant
    #: concurrent jobs and summed ``max_evaluations`` budget.
    max_queue_depth: int = 64
    tenant_max_active: int = 8
    tenant_max_evals: int = 100_000
    #: Retry ladder for failing jobs.
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    #: Hint returned with every 429.
    retry_after_s: float = 2.0
    #: How long a SIGTERM drain waits for running jobs.
    drain_timeout_s: float = 30.0
    #: Log each request to stderr (off keeps tests quiet).
    verbose: bool = False

    def __post_init__(self) -> None:
        for name in (
            "service_workers", "max_queue_depth", "tenant_max_active",
            "tenant_max_evals", "max_attempts",
        ):
            _integer(getattr(self, name), name, 1)
        if self.synth_workers is not None:
            _integer(self.synth_workers, "synth_workers", 1)
        _integer(self.port, "port", 0)
        for name, ok, bound in (
            ("port", self.port <= 65535, "<= 65535"),
            # A lease of 0 is born expired, and the heartbeat that paces
            # itself by it would spin.
            ("lease_seconds", self.lease_seconds > 0, "> 0"),
            ("poll_interval_s", self.poll_interval_s > 0, "> 0"),
            ("backoff_base_s", self.backoff_base_s >= 0, ">= 0"),
            ("backoff_cap_s", self.backoff_cap_s >= 0, ">= 0"),
            ("drain_timeout_s", self.drain_timeout_s >= 0, ">= 0"),
        ):
            if not ok:
                value = getattr(self, name)
                raise SpecificationError(
                    f"{name} must be {bound}, got {value}",
                    context={"parameter": name, "value": value},
                )


@dataclass
class _AdmissionCounters:
    accepted: int = 0
    deduplicated: int = 0
    rejected_invalid: int = 0
    rejected_infeasible: int = 0
    rejected_overload: int = 0


class SynthesisService:
    """Queue + workers + admission control, independent of HTTP."""

    def __init__(self, tech: Any, config: ServiceConfig) -> None:
        self.tech = tech
        self.config = config
        self.queue = JobQueue(config)
        self.counters = _AdmissionCounters()
        self.draining = threading.Event()
        self.started = time.perf_counter()
        self.workers = [
            JobWorker(
                self.queue, tech, config, owner=f"worker-{os.getpid()}-{index}"
            )
            for index in range(config.service_workers)
        ]
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Reclaim any crashed-server leases, then start the workers."""
        self._warm_admission()
        self.queue.requeue_expired()
        for worker in self.workers:
            thread = threading.Thread(
                target=worker.run_forever,
                name=f"job-{worker.owner}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _warm_admission(self) -> None:
        """Pay the analyzer's first-call cost once at startup.

        The first `analyze_problem` call imports the estimator and
        synthesis stack on top of one full analysis (about 80 ms in
        all); warming it here keeps the first real request inside the
        same <50 ms admission-latency contract as the rest.
        """
        try:
            warm = {"spec": {"gain": 100.0, "ugf": 2e6}}
            admit(self.tech, JobRequest.from_payload(warm))
        except ApeError:
            pass  # warm-up analysis outcome is irrelevant, only its cost

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop claiming, give running jobs a window, keep the queue.

        Returns True when every worker went idle inside the window.
        Jobs still running after the window keep their journal and
        queue row; their lease lapses and the next server resumes
        them — drain never cancels or loses work.
        """
        timeout = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        self.draining.set()
        for worker in self.workers:
            worker.draining.set()
        deadline = time.perf_counter() + timeout
        idle = False
        while time.perf_counter() < deadline:
            busy = [t for t in self._threads if t.is_alive()]
            if not busy:
                idle = True
                break
            depth_running = self.queue.stats()["jobs"]["running"]
            if depth_running == 0:
                idle = True
                break
            time.sleep(min(0.05, timeout / 20 if timeout > 0 else 0.05))
        for worker in self.workers:
            worker.stop()
        for thread in self._threads:
            thread.join(timeout=1.0)
        self.queue.close()
        return idle

    # ------------------------------------------------------------ requests

    def submit(self, payload: Any) -> tuple[int, dict[str, Any], float | None]:
        """Admission pipeline for POST /jobs.

        Returns ``(http_status, body, retry_after_or_None)``.
        """
        try:
            request = JobRequest.from_payload(payload)
        except (SpecificationError, ApeError) as exc:
            self.counters.rejected_invalid += 1
            return 400, {"error": str(exc), "kind": "invalid-request"}, None

        fingerprint = request.fingerprint(self.tech)

        # Dedupe first: attaching to existing work (or serving a
        # finished result warm) adds no load, so it must not be
        # subject to overload backpressure.
        existing = self.queue.get_by_fingerprint(fingerprint)
        if existing is not None:
            self.counters.deduplicated += 1
            return (
                200,
                {"job": existing.to_dict(), "deduplicated": True},
                None,
            )

        if self.draining.is_set():
            self.counters.rejected_overload += 1
            return (
                503,
                {"error": "server is draining", "kind": "draining"},
                self.config.retry_after_s,
            )

        try:
            # Spec-level validation (positivity, topology fields) and
            # the interval feasibility gate, both pre-solve.
            request.spec()
            report = admit(self.tech, request)
        except AdmissionError as exc:
            self.counters.rejected_infeasible += 1
            return (
                422,
                {
                    "error": str(exc),
                    "kind": "infeasible-spec",
                    "error_codes": list(exc.error_codes),
                    "report": exc.report,
                },
                None,
            )
        except (SpecificationError, ApeError) as exc:
            self.counters.rejected_invalid += 1
            return 400, {"error": str(exc), "kind": "invalid-request"}, None

        depth = self.queue.depth()
        if depth >= self.config.max_queue_depth:
            self.counters.rejected_overload += 1
            return (
                429,
                {
                    "error": (
                        f"queue depth {depth} at its bound "
                        f"{self.config.max_queue_depth}"
                    ),
                    "kind": "overloaded",
                },
                self.config.retry_after_s,
            )
        tenant_jobs, tenant_evals = self.queue.tenant_load(request.tenant)
        if tenant_jobs >= self.config.tenant_max_active:
            self.counters.rejected_overload += 1
            return (
                429,
                {
                    "error": (
                        f"tenant {request.tenant!r} already has "
                        f"{tenant_jobs} active job(s) "
                        f"(cap {self.config.tenant_max_active})"
                    ),
                    "kind": "tenant-jobs",
                },
                self.config.retry_after_s,
            )
        if tenant_evals + request.max_evaluations > self.config.tenant_max_evals:
            self.counters.rejected_overload += 1
            return (
                429,
                {
                    "error": (
                        f"tenant {request.tenant!r} evaluation budget "
                        f"{tenant_evals}+{request.max_evaluations} would "
                        f"exceed the cap {self.config.tenant_max_evals}"
                    ),
                    "kind": "tenant-budget",
                },
                self.config.retry_after_s,
            )

        record, created = self.queue.submit(request, fingerprint)
        if created:
            self.counters.accepted += 1
            # The row is committed, so whichever worker claims after
            # this wake finds the job; the claim hands it to one only.
            for worker in self.workers:
                worker.wake_event.set()
        else:
            # Lost a submit race: someone enqueued the same problem
            # between our dedupe check and our insert.  Same contract
            # as the dedupe path above.
            self.counters.deduplicated += 1
        body = {
            "job": record.to_dict(),
            "deduplicated": not created,
            "admission": {"feasible": True, "findings": report.get("findings", [])},
        }
        return (202 if created else 200), body, None

    def job_status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        record = self.queue.get(job_id)
        if record is None:
            return 404, {"error": f"no job {job_id!r}", "kind": "not-found"}
        return 200, {"job": record.to_dict()}

    def healthz(self) -> tuple[int, dict[str, Any]]:
        if self.draining.is_set():
            return 503, {"ok": False, "draining": True}
        return 200, {
            "ok": True,
            "draining": False,
            "uptime_s": time.perf_counter() - self.started,
            "workers": len(self.workers),
        }

    def stats(self) -> tuple[int, dict[str, Any]]:
        queue_stats = self.queue.stats()
        totals = self.queue.aggregate_results()
        store_lookups = totals["store_hits"] + totals["cache_misses"]
        body = {
            "queue": queue_stats,
            "admission": {
                "accepted": self.counters.accepted,
                "deduplicated": self.counters.deduplicated,
                "rejected_invalid": self.counters.rejected_invalid,
                "rejected_infeasible": self.counters.rejected_infeasible,
                "rejected_overload": self.counters.rejected_overload,
            },
            "execution": {
                "jobs_done": sum(w.jobs_done for w in self.workers),
                "jobs_failed": sum(w.jobs_failed for w in self.workers),
                "leases_lost": sum(w.leases_lost for w in self.workers),
                "worker_restarts": totals["worker_restarts"],
            },
            "store": {
                "hits": totals["store_hits"],
                "writes": totals["store_writes"],
                "hit_rate": (
                    totals["store_hits"] / store_lookups
                    if store_lookups else 0.0
                ),
            },
            "uptime_s": time.perf_counter() - self.started,
        }
        return 200, body


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: SynthesisService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer  # type: ignore[assignment]

    def _send(
        self,
        status: int,
        body: dict[str, Any],
        *,
        retry_after: float | None = None,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(max(1, retry_after))))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.service.config.verbose:
            super().log_message(format, *args)

    def _guarded(self, respond: Callable[[], None]) -> None:
        """Never drop a connection: unexpected failures become 500s."""
        try:
            respond()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up; nothing to answer
        except Exception as exc:
            global_log().record(
                Diagnostic.from_exception(
                    "service.http",
                    exc,
                    severity="error",
                    suggested_fix=(
                        "unhandled exception answering a request; "
                        "returned HTTP 500"
                    ),
                    context={"path": self.path},
                )
            )
            try:
                self._send(
                    500,
                    {"error": f"{type(exc).__name__}: {exc}",
                     "kind": "internal"},
                )
            except OSError:
                pass  # connection already gone

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._guarded(self._post)

    def _post(self) -> None:
        path = urlparse(self.path).path
        if path != "/jobs":
            self._send(404, {"error": f"no route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(
                400, {"error": f"bad JSON body: {exc}", "kind": "bad-json"}
            )
            return
        status, body, retry_after = self.server.service.submit(payload)
        self._send(status, body, retry_after=retry_after)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._guarded(self._get)

    def _get(self) -> None:
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/healthz":
            status, body = service.healthz()
        elif path == "/stats":
            status, body = service.stats()
        elif path.startswith("/jobs/"):
            status, body = service.job_status(path[len("/jobs/"):])
        else:
            status, body = 404, {"error": f"no route {path!r}"}
        self._send(status, body)


class ServiceServer:
    """Owns the HTTP listener thread for one :class:`SynthesisService`."""

    def __init__(self, service: SynthesisService) -> None:
        self.service = service
        self.httpd = _ServiceHTTPServer(
            (service.config.host, service.config.port), service
        )
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return int(self.httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def start(self) -> None:
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self, *, drain_timeout_s: float | None = None) -> bool:
        """Drain the service, then stop the listener."""
        idle = self.service.drain(drain_timeout_s)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        return idle


def run_service(tech: Any, config: ServiceConfig) -> int:
    """Blocking entry point used by ``repro serve``.

    Installs SIGTERM/SIGINT handlers (main thread) that trigger a
    graceful drain: stop claiming, let running jobs checkpoint, leave
    the queue untouched, exit 0.
    """
    service = SynthesisService(tech, config)
    server = ServiceServer(service)
    stop = threading.Event()

    def request_stop(signum: int, frame: Any) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, request_stop)
    server.start()
    print(f"repro service listening on {server.url}", flush=True)
    print(f"data dir: {os.path.abspath(config.data_dir)}", flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("draining: running jobs checkpoint, queue is kept", flush=True)
        idle = server.stop()
        print(
            "drained cleanly" if idle else
            "drain window elapsed; unfinished jobs will resume on restart",
            flush=True,
        )
    return 0
