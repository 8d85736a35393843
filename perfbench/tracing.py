"""Span tracing for the benchmark's traced passes.

A traced pass wraps each layer's public functions at the binding its
caller actually uses (``repro.synthesis.problems.dc_operating_point``
and ``repro.spice.analysis.dc_operating_point`` are separate names) and
records one span per call: name, start, end, parent, operation id and
process.  Spans stay in memory and are written out when the pass ends.

Pool workers are forked after the wrappers are installed, so they run
the wrapped functions too and inherit the parent's open-span stack,
which links their spans to the parent span that forked them.  Each
wrapped ``run_chain`` that ends inside a worker flushes that worker's
spans to a per-process file, so worker-side time comes home.

A layer's self time is its span minus the part of that interval its
child spans cover; children may live in another process (pool chains
under the supervising parent), so the covered part is an interval
union, not a sum.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # The child keeps the parent's open-span stack (its spans' parents)
        # but none of the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.newton = 0
        return local

    def count_newton(self) -> None:
        self._state().newton += 1

    def wrap(self, name, fn, *, attrs=None, op_from=None):
        """``fn`` recording a ``name`` span per call.

        ``attrs(args, result, failed, newton_runs)`` returns extra span
        fields; ``op_from(args)`` may name the operation the call serves.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            outer_op = state.op
            if op_from is not None:
                state.op = op_from(args) or outer_op
            sid = f"{tracer.pid}:{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(sid)
            newton_before = state.newton
            result = None
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = (
                    attrs(args, result, failed, state.newton - newton_before)
                    if attrs is not None else None
                )
                tracer.spans.append(
                    (sid, parent, name, t0, t1, state.op, failed, extra)
                )
                state.op = outer_op

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        spans, self.spans = self.spans, []
        counters, self.counters = dict(self.counters), defaultdict(float)
        if not spans and not counters:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
            if counters:
                handle.write(json.dumps({"counters": counters}) + "\n")


def _patch(tracer, owner, attr, name, **kwargs) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kwargs))


def _dc_attrs(args, result, failed, newton_runs):
    iterations = None if failed else result.iterations
    return {"iters": iterations, "newton": newton_runs}


def instrument_synthesis(tracer: Tracer) -> None:
    """Wrap every layer a ``synthesize_opamp`` call passes through."""
    import repro.lint
    import repro.opamp
    import repro.parallel
    import repro.parallel.executor as executor
    import repro.spice.analysis as spice_analysis
    import repro.spice.dc as dc
    import repro.synthesis.engine as engine
    import repro.synthesis.problems as problems
    from repro.parallel.memo import EvalMemo
    from repro.runtime.journal import RunJournal
    from repro.spice.mna import System
    from repro.store.store import EvalStore
    from repro.synthesis.annealing import Annealer
    from repro.synthesis.robust import RobustEvaluator

    for module in (engine, repro.opamp):
        _patch(tracer, module, "design_opamp", "opamp.design")
        _patch(tracer, module, "coarse_design_opamp", "opamp.design")
    _patch(
        tracer, Annealer, "run", "annealing.run",
        attrs=lambda a, r, f, n: {"evals": 0 if f else r.evaluations},
    )
    _patch(
        tracer, problems.OpAmpSizingProblem, "evaluate", "problems.evaluate",
        attrs=lambda a, r, f, n: {"bad": f or r is None},
    )
    # Problems bind the default bench factory when they are built, so
    # this must run before the first problem of the pass exists.
    _patch(tracer, problems, "open_loop_bench", "problems.bench")
    _patch(
        tracer, repro.lint, "lint_circuit", "lint",
        attrs=lambda a, r, f, n: {"reject": f or not r.ok},
    )
    _patch(tracer, System, "rebind", "mna.rebind")
    _patch(tracer, problems, "dc_operating_point", "dc", attrs=_dc_attrs)
    _patch(tracer, spice_analysis, "dc_operating_point", "dc", attrs=_dc_attrs)
    newton = dc._newton

    def counted_newton(*args, **kwargs):
        tracer.count_newton()
        return newton(*args, **kwargs)

    dc._newton = counted_newton
    _patch(tracer, problems, "balance_differential", "balance")
    _patch(tracer, problems, "awe_poles", "awe")
    _patch(tracer, RobustEvaluator, "evaluate", "robust.evaluate")
    _patch(tracer, RobustEvaluator, "evaluate_variant", "robust.variant")
    _patch(tracer, RobustEvaluator, "detail", "robust.detail")
    # The engine imports the supervisor from the package namespace.
    _patch(tracer, repro.parallel, "run_supervised_chains", "executor.supervise")
    chain = tracer.wrap("executor.chain", executor.run_chain)

    @functools.wraps(executor.run_chain)
    def run_chain(*args, **kwargs):
        try:
            return chain(*args, **kwargs)
        finally:
            if os.getpid() != root_pid:
                tracer.flush()

    root_pid = os.getpid()
    executor.run_chain = run_chain
    _patch(tracer, EvalMemo, "merge", "memo.merge")
    for method in ("initialize", "append"):
        _patch(tracer, RunJournal, method, "journal.write")
    _patch(tracer, RunJournal, "record_outcome", "journal.outcome")
    _patch(tracer, RunJournal, "snapshot_memo", "journal.snapshot")
    for method in ("load_manifest", "load_outcomes", "load_memo"):
        _patch(tracer, RunJournal, method, "journal.read")
    _patch(
        tracer, EvalStore, "get", "store.get",
        attrs=lambda a, r, f, n: {"hit": r is not None},
    )
    _patch(
        tracer, EvalStore, "put_many", "store.put",
        attrs=lambda a, r, f, n: {"rows": 0 if f else r},
    )
    for method in ("generation", "count", "corpus", "close"):
        _patch(tracer, EvalStore, method, "store.meta")


def instrument_service(tracer: Tracer):
    """Wrap the service layers (plus synthesis) inside a server process.

    Returns a callable that records the queue's busy-retry counter; call
    it once the server has stopped.
    """
    import repro.service.server as server
    from repro.service.queue import JobQueue
    from repro.service.worker import JobWorker

    instrument_synthesis(tracer)
    _patch(
        tracer, server, "admit", "admit",
        attrs=lambda a, r, f, n: {"feasible": not f},
    )
    for method in (
        "submit", "requeue_expired", "claim", "heartbeat", "update_progress",
        "complete", "fail", "get", "get_by_fingerprint", "depth",
        "tenant_load", "aggregate_results", "stats",
    ):
        _patch(tracer, JobQueue, method, "queue")
    queues: list[JobQueue] = []
    init = JobQueue.__init__

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        queues.append(self)

    JobQueue.__init__ = register
    _patch(
        tracer, JobWorker, "execute", "worker.execute",
        op_from=lambda a: a[1].id,
    )
    _patch(
        tracer, JobWorker, "_synthesize", "worker.synthesize",
        op_from=lambda a: os.path.basename(a[2]),
    )
    _patch(
        tracer, server._Handler, "do_POST", "http.handle",
        op_from=lambda a: a[0].headers.get("X-Bench-Op"),
    )

    def busy_retries() -> None:
        tracer.counters["queue.busy_retries"] += sum(
            q.busy_retries_seen for q in queues
        )

    return busy_retries


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "op", "failed", "attrs")

    def __init__(self, sid, parent, name, t0, t1, op, failed, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.op = op
        self.failed = failed
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def load_spans(trace_dir) -> tuple[list[Span], dict[str, float]]:
    """Every span and counter the pass's processes wrote to ``trace_dir``."""
    spans: list[Span] = []
    counters: dict[str, float] = defaultdict(float)
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if isinstance(record, dict):
                    for key, value in record["counters"].items():
                        counters[key] += value
                else:
                    spans.append(Span(*record))
    return spans, counters


def merged(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out: list[list[float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(start, end) for start, end in out]


def covered(union, start: float, end: float) -> float:
    """Length of ``[start, end]`` that the disjoint ``union`` covers."""
    total = 0.0
    for lo, hi in union:
        if hi <= start:
            continue
        if lo >= end:
            break
        total += min(hi, end) - max(lo, start)
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = children.get(span.sid)
        if not kids:
            out[span.sid] = span.duration
            continue
        union = merged((kid.t0, kid.t1) for kid in kids)
        out[span.sid] = span.duration - covered(union, span.t0, span.t1)
    return out


def synthesis_layers(spans: list[Span], results: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced synthesis pass.

    ``results`` are the pass's ``SynthesisResult`` summaries, the source
    of the counters the program itself keeps (memo and store traffic,
    screened candidates, effective workers).  ``dc.gmin_stepped`` counts
    solves whose plain Newton run failed, so the gmin (then source)
    stepping ladder ran.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_s(*names: str) -> float:
        return sum(own[s.sid] for n in names for s in by_name.get(n, ()))

    def total_s(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key) or 0 for s in by_name.get(name, ()))

    dc_spans = by_name.get("dc", [])
    iterations = [
        s.attrs["iters"] for s in dc_spans
        if s.attrs.get("iters") is not None and s.attrs["iters"] >= 0
    ]
    balance_ids = {s.sid for s in by_name.get("balance", ())}
    anneal_evals = attr_sum("annealing.run", "evals")
    problem_evals = count("problems.evaluate")
    variant_calls = count("robust.variant")
    supervised = by_name.get("executor.supervise", [])
    chains_under: dict[str, list[float]] = defaultdict(list)
    for span in by_name.get("executor.chain", ()):
        chains_under[span.parent].append(span.duration)
    imbalance = [
        max(chains_under[s.sid]) / statistics.fmean(chains_under[s.sid])
        for s in supervised if chains_under.get(s.sid)
    ]
    pooled = [r for r in results if r["restarts"] > 1 or r["run_dir"]]
    hits = sum(r["cache_hits"] + r["store_hits"] for r in results)
    lookups = hits + sum(r["cache_misses"] for r in results)
    return {
        "opamp.design_calls": count("opamp.design"),
        "opamp.design_s": self_s("opamp.design"),
        "annealing.evals": anneal_evals,
        "annealing.self_s": self_s("annealing.run"),
        "problems.evals": problem_evals,
        "problems.eval_s": self_s("problems.evaluate"),
        "problems.failed": attr_sum("problems.evaluate", "bad"),
        "problems.bench_builds": count("problems.bench"),
        "problems.bench_build_s": self_s("problems.bench"),
        "lint.calls": count("lint"),
        "lint.s": self_s("lint"),
        "lint.rejections": attr_sum("lint", "reject"),
        "mna.rebinds": count("mna.rebind"),
        "mna.rebind_s": self_s("mna.rebind"),
        "dc.solves": len(dc_spans),
        "dc.s": self_s("dc"),
        "dc.iters_mean": statistics.fmean(iterations) if iterations else 0.0,
        "dc.gmin_stepped": sum(
            1 for s in dc_spans if (s.attrs.get("newton") or 0) > 1
        ),
        "dc.failures": sum(1 for s in dc_spans if s.failed),
        "balance.calls": count("balance"),
        "balance.s": self_s("balance"),
        "balance.total_s": total_s("balance"),
        "balance.solves": sum(1 for s in dc_spans if s.parent in balance_ids),
        "balance.share": (
            count("balance") / problem_evals if problem_evals else 0.0
        ),
        "awe.calls": count("awe"),
        "awe.s": self_s("awe"),
        "robust.variant_calls": variant_calls,
        "robust.variant_s": self_s(
            "robust.evaluate", "robust.variant", "robust.detail"
        ),
        "robust.evals_per_candidate": (
            problem_evals / anneal_evals
            if variant_calls and anneal_evals else 0.0
        ),
        "robust.screened": sum(r["screened_candidates"] for r in results),
        "executor.chains": count("executor.chain"),
        "executor.chain_s": total_s("executor.chain"),
        "executor.chain_imbalance": (
            statistics.fmean(imbalance) if imbalance else 0.0
        ),
        "executor.parent_s": self_s("executor.supervise"),
        "executor.workers": (
            statistics.fmean(r["workers"] for r in pooled) if pooled else 0.0
        ),
        "memo.hits": hits,
        "memo.misses": lookups - hits,
        "memo.hit_rate": hits / lookups if lookups else 0.0,
        "memo.merge_s": self_s("memo.merge"),
        "journal.writes": count("journal.write") + count("journal.snapshot"),
        "journal.s": self_s(
            "journal.write", "journal.outcome", "journal.snapshot",
            "journal.read",
        ),
        "journal.snapshot_s": total_s("journal.snapshot"),
        "store.gets": count("store.get"),
        "store.get_s": self_s("store.get"),
        "store.hits": attr_sum("store.get", "hit"),
        "store.puts": count("store.put"),
        "store.put_s": self_s("store.put"),
        "store.rows": attr_sum("store.put", "rows"),
    }


def coverage(spans: list[Span], windows) -> float:
    """Share of the ``(start, end)`` op windows some layer span covers."""
    union = merged((s.t0, s.t1) for s in spans)
    wall = sum(end - start for start, end in windows)
    if wall <= 0:
        return 0.0
    return sum(covered(union, start, end) for start, end in windows) / wall
