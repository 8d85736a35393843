"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the library's main entry points:

* ``estimate-opamp`` — size an op-amp from a spec and print the
  estimate (optionally verify it with full simulation),
* ``estimate-component`` / ``estimate-module`` — size any level-2/4
  library entry from ``key=value`` arguments,
* ``synthesize`` — run one APE(+/-)annealer synthesis leg,
* ``analyze`` — static spec feasibility analysis: interval bounds over
  the APE estimator hierarchy, no Newton solves (exit 1 when the spec
  is provably infeasible),
* ``serve`` — run the durable synthesis service: an HTTP API over a
  crash-safe SQLite job queue with admission control, fingerprint
  dedupe and journal-backed bit-exact resume (see docs/SERVICE.md),
* ``simulate`` — DC/AC/transient analysis of a SPICE deck file,
* ``lint`` — electrical rule check of SPICE deck files (text or JSON
  findings; exit 1 on error-severity findings),
* ``bench`` — A/B benchmarks: the stamp-compiled engine against the
  naive assembly path (``BENCH_engine.json``) and the parallel
  multi-chain synthesis executor against serial legs
  (``BENCH_parallel.json``), selected via ``--suite``,
* ``diagnostics`` — render the Diagnostic records and session-wide
  throughput/cache counters accumulated by runs in this process.

All numeric arguments accept SPICE engineering notation (``1.3Meg``,
``10p``, ``100u``).

Runs are *tolerant* by default: estimation failures degrade to coarser
estimates and evaluation failures are penalized and counted, with
structured diagnostics rendered at the end.  ``--strict`` restores
fail-fast behaviour.  The fault-injection harness can be armed through
``REPRO_FAULTS`` (see :mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ApeError
from .runtime import faults as _faults
from .runtime.diagnostics import DiagnosticLog, global_log
from .units import format_si, parse_quantity

__all__ = ["main", "build_parser"]


def _kv_pairs(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ApeError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = parse_quantity(raw)
        except ApeError:
            out[key] = raw  # string-valued options (topology names ...)
    return out


def _int_keys(spec: dict[str, object], keys: tuple[str, ...]) -> None:
    for key in keys:
        if key in spec:
            spec[key] = int(spec[key])  # type: ignore[arg-type]


def _print_estimate(title: str, estimate) -> None:
    print(f"{title}:")
    for key, value in estimate.as_dict().items():
        print(f"  {key:14s} {value:.6g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APE: hierarchical analog performance estimator",
    )
    parser.add_argument(
        "--tech", default="generic-0.5um",
        help="technology preset name (default: generic-0.5um)",
    )
    parser.add_argument(
        "--solver", default=None, choices=["dense", "sparse", "auto"],
        help="linear-solve backend selection: dense LAPACK, SuperLU, or "
             "auto by matrix size (default: REPRO_SOLVER env or auto)",
    )
    tolerance = parser.add_mutually_exclusive_group()
    tolerance.add_argument(
        "--tolerant", dest="tolerant", action="store_true", default=True,
        help="degrade gracefully on estimation/evaluation failures "
             "(default)",
    )
    tolerance.add_argument(
        "--strict", dest="tolerant", action="store_false",
        help="fail fast: propagate the first estimation/evaluation error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-opamp", help="size an op-amp from a spec")
    p.add_argument("--gain", required=True)
    p.add_argument("--ugf", required=True)
    p.add_argument("--ibias", default="1u")
    p.add_argument("--cl", default="10p")
    p.add_argument("--current-source", default="mirror",
                   choices=["mirror", "wilson", "cascode"])
    p.add_argument("--diff-pair", default="cmos", choices=["cmos", "nmos"])
    p.add_argument("--buffer", action="store_true")
    p.add_argument("--z-load", default="inf")
    p.add_argument("--verify", action="store_true",
                   help="also run the full-simulation verification")

    p = sub.add_parser(
        "estimate-component", help="size a level-2 component"
    )
    p.add_argument("kind", help="e.g. mirror, wilson, diffcmos, follower")
    p.add_argument("params", nargs="*", help="key=value spec entries")

    p = sub.add_parser("estimate-module", help="size a level-4 module")
    p.add_argument("kind", help="e.g. lowpass_filter, sample_hold, flash_adc")
    p.add_argument("params", nargs="*", help="key=value spec entries")

    p = sub.add_parser("synthesize", help="run one synthesis leg")
    p.add_argument("--gain", default=None,
                   help="required unless --resume restores it from the "
                        "run directory")
    p.add_argument("--ugf", default=None,
                   help="required unless --resume restores it from the "
                        "run directory")
    # Problem-defining flags default to None so --resume can tell
    # "omitted" (restore from the run directory's sidecar) apart from
    # "explicitly set"; _cmd_synthesize applies the documented defaults.
    p.add_argument("--ibias", default=None, help="(default: 1u)")
    p.add_argument("--cl", default=None, help="(default: 10p)")
    p.add_argument("--area", default=None, help="(default: inf)")
    p.add_argument("--mode", default=None, choices=["ape", "standalone"],
                   help="(default: ape)")
    p.add_argument("--budget", type=int, default=None,
                   help="(default: 150)")
    p.add_argument("--seed", type=int, default=None, help="(default: 1)")
    p.add_argument("--deadline", default=None,
                   help="wall-clock budget for the run in seconds")
    p.add_argument("--max-failures", type=int, default=None,
                   help="stop (degraded) after this many failed evaluations")
    p.add_argument("--retries", type=int, default=None,
                   help="DC-solver retry attempts per evaluation "
                        "(deterministic jittered restarts; default: 0)")
    p.add_argument("--restarts", type=int, default=None,
                   help="independently seeded annealing chains; the best "
                        "chain wins (default: 1, the classic serial run)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for multi-restart runs "
                        "(default: one per usable CPU)")
    p.add_argument("--oversubscribe", action="store_true",
                   help="allow more workers than usable CPUs (testing, "
                        "or evaluations that block on something other "
                        "than the CPU)")
    p.add_argument("--run-dir", default=None,
                   help="journal the run (write-ahead) into this "
                        "directory so it can be resumed after a crash "
                        "or interrupt")
    p.add_argument("--resume", default=None, metavar="RUN_DIR",
                   help="resume a journaled run: replay finished chains "
                        "from RUN_DIR and execute only the rest "
                        "(spec flags are restored from the run directory "
                        "when omitted)")
    p.add_argument("--heartbeat-timeout", default=None,
                   help="declare a worker hung (and replace it) when a "
                        "chain goes this many seconds without a "
                        "heartbeat (default: off)")
    p.add_argument("--chain-timeout", default=None,
                   help="hard wall-clock deadline per chain attempt in "
                        "seconds (default: off)")
    p.add_argument("--max-chain-retries", type=int, default=None,
                   help="resubmissions a chain may consume after losing "
                        "its worker before it is quarantined "
                        "(default: 2)")
    p.add_argument("--corners", default=None, metavar="LIST",
                   help="comma-separated process corners to size against "
                        "(e.g. TT,SS,FF or 'SS@-40C,4.5V'); enables "
                        "variation-robust synthesis")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="deterministic Pelgrom mismatch Monte Carlo "
                        "samples per candidate (default: 0)")
    p.add_argument("--robust-cost", default=None,
                   choices=["worst", "yield"],
                   help="robust cost aggregation: worst-case over "
                        "corners/samples, or yield-weighted "
                        "(default: worst)")
    p.add_argument("--yield-target", default=None,
                   help="target yield fraction for --robust-cost yield "
                        "(default: 1.0)")
    p.add_argument("--feasibility", default=None,
                   choices=["off", "reject", "contract"],
                   help="pre-solve interval feasibility gate: reject "
                        "provably infeasible specs before any evaluation, "
                        "or additionally contract the search box "
                        "(default: off)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persistent evaluation store: cache every "
                        "candidate's cost/metrics in DIR (SQLite) and "
                        "reuse them across runs that share the same "
                        "problem fingerprint")
    p.add_argument("--surrogate", default=None, choices=["off", "rank"],
                   help="surrogate-guided annealing: rank each move "
                        "batch with a ridge model fitted to past "
                        "evaluations and only evaluate the best-ranked "
                        "candidate (default: off)")

    p = sub.add_parser(
        "analyze",
        help="static spec feasibility analysis: interval bounds over the "
             "APE estimator, no Newton solves (exit 1 when provably "
             "infeasible)",
    )
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON spec fixture (see examples/specs/); "
                        "command-line flags override its entries")
    p.add_argument("--gain", default=None,
                   help="required unless --spec-file provides it")
    p.add_argument("--ugf", default=None,
                   help="required unless --spec-file provides it")
    p.add_argument("--ibias", default=None, help="(default: 1u)")
    p.add_argument("--cl", default=None, help="(default: 10p)")
    p.add_argument("--area", default=None, help="(default: inf)")
    p.add_argument("--slew-rate", default=None, help="(default: 0 = off)")
    p.add_argument("--max-power", default=None,
                   help="extra dc_power <= BOUND constraint [W]")
    p.add_argument("--current-source", default=None,
                   choices=["mirror", "wilson", "cascode"])
    p.add_argument("--diff-pair", default=None, choices=["cmos", "nmos"])
    p.add_argument("--buffer", action="store_true", default=None)
    p.add_argument("--z-load", default=None)
    p.add_argument("--mode", default=None, choices=["ape", "standalone"],
                   help="parameter box to analyze: +/-20%% around the APE "
                        "template, or the paper's wide standalone ranges "
                        "(default: ape)")
    p.add_argument("--no-contract", action="store_true",
                   help="skip the sound box contraction pass")
    p.add_argument("--screen", action="store_true",
                   help="rank the structural topology catalog by static "
                        "feasibility instead of analyzing one candidate")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (default: text)")

    p = sub.add_parser(
        "bench",
        help="benchmark the engine, the parallel synthesis executor, "
             "corner-robust synthesis and the sparse solve backend",
    )
    p.add_argument("--suite", default="engine",
                   choices=["engine", "parallel", "robust", "sparse",
                            "analysis", "store", "all"],
                   help="engine: compiled vs naive assembly; parallel: "
                        "multi-chain executor vs serial legs; robust: "
                        "corner-aware vs nominal-only synthesis; sparse: "
                        "sparse vs dense solves; analysis: static "
                        "feasibility gate vs budgeted synthesis; store: "
                        "warm persistent-store runs and surrogate-ranked "
                        "annealing vs cold/off baselines "
                        "(default: engine)")
    p.add_argument("--quick", action="store_true",
                   help="short per-measurement floor (CI smoke mode)")
    p.add_argument("--min-time", default=None,
                   help="seconds per measurement (engine suite only; "
                        "overrides --quick)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes for the parallel suite "
                        "(default: 4)")
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_engine.json / "
                        "BENCH_parallel.json / BENCH_robust.json / "
                        "BENCH_sparse.json / BENCH_analysis.json / "
                        "BENCH_store.json per suite)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero when a target is missed or a "
                        "measure regressed beyond tolerance against the "
                        "previously committed report")
    p.add_argument("--validate", nargs="+", default=None, metavar="PATH",
                   help="validate existing BENCH_*.json files against "
                        "the report schema and exit (no benchmarks run)")
    p.add_argument("--oversubscribe", action="store_true",
                   help="allow more workers than usable CPUs (CI smoke "
                        "runs on small machines)")

    p = sub.add_parser(
        "diagnostics",
        help="render Diagnostic records accumulated by tolerant runs",
    )
    p.add_argument("--clear", action="store_true",
                   help="clear the session log after rendering")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format; json emits the diagnostic "
                        "records plus every session counter "
                        "(default: text)")

    p = sub.add_parser(
        "lint",
        help="run the electrical rule checker over SPICE deck files",
    )
    p.add_argument("decks", nargs="+", help="paths to .cir/.sp decks")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (default: text)")
    p.add_argument("--no-tech-rules", action="store_true",
                   help="skip the technology-bound geometry rules")
    p.add_argument("--select", default=None,
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--ignore", default=None,
                   help="comma-separated rule codes to suppress globally")

    p = sub.add_parser(
        "serve",
        help="run the durable synthesis service (HTTP + job queue)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8765,
                   help="bind port; 0 picks a free port (default: 8765)")
    p.add_argument("--data-dir", default="service-data",
                   help="job queue + run journals + shared eval store "
                        "(default: ./service-data)")
    p.add_argument("--service-workers", type=int, default=1,
                   help="concurrent jobs this server executes")
    p.add_argument("--synth-workers", type=int, default=1,
                   help="process-pool width per job (default: 1)")
    p.add_argument("--oversubscribe", action="store_true",
                   help="allow more synthesis workers than CPUs")
    p.add_argument("--lease", default="15",
                   help="job lease seconds; a crashed server's jobs "
                        "become claimable after this (default: 15)")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="bound on queued+running jobs before 429s")
    p.add_argument("--tenant-max-active", type=int, default=8,
                   help="per-tenant concurrent job cap")
    p.add_argument("--tenant-max-evals", type=int, default=100000,
                   help="per-tenant cap on summed max_evaluations of "
                        "active jobs")
    p.add_argument("--max-job-attempts", type=int, default=3,
                   help="attempts before a job is quarantined as poison")
    p.add_argument("--drain-timeout", default="30",
                   help="seconds a SIGTERM drain waits for running jobs")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr")

    p = sub.add_parser("simulate", help="analyse a SPICE deck file")
    p.add_argument("deck", help="path to a .cir/.sp deck")
    p.add_argument("--op", action="store_true", help="DC operating point")
    p.add_argument("--ac", nargs=2, metavar=("FSTART", "FSTOP"),
                   help="AC sweep")
    p.add_argument("--tran", nargs=2, metavar=("TSTOP", "DT"),
                   help="transient analysis")
    p.add_argument("--noise", nargs=2, metavar=("FSTART", "FSTOP"),
                   help="output noise density sweep")
    p.add_argument("--tf", action="store_true",
                   help="exact poles/zeros of the AC transfer function")
    p.add_argument("--out", default=None, help="node to report")
    return parser


def _render_diagnostics(log: DiagnosticLog) -> None:
    """Render a run's accumulated Diagnostic records to stdout."""
    if not log:
        return
    print("diagnostics:")
    for diagnostic in log:
        for line in diagnostic.render().splitlines():
            print(f"  {line}")


def _cmd_estimate_opamp(args, tech) -> int:
    from .estimator import AnalogPerformanceEstimator
    from .opamp import verify_opamp

    ape = AnalogPerformanceEstimator(tech, tolerant=args.tolerant)
    amp = ape.estimate_opamp(
        gain=parse_quantity(args.gain),
        ugf=parse_quantity(args.ugf),
        ibias=parse_quantity(args.ibias),
        cl=parse_quantity(args.cl),
        current_source=args.current_source,
        diff_pair=args.diff_pair,
        output_buffer=args.buffer,
        z_load=(
            math.inf if args.z_load == "inf" else parse_quantity(args.z_load)
        ),
    )
    _print_estimate("estimate", amp.estimate)
    print("devices (W/L um):")
    for role, dev in sorted(amp.devices.items()):
        print(f"  {role:28s} {dev.w * 1e6:8.2f} / {dev.l * 1e6:.2f}")
    if args.verify:
        sim = verify_opamp(amp)
        print("simulation:")
        for key, value in sim.items():
            print(f"  {key:14s} {value:.6g}")
    _render_diagnostics(ape.diagnostics)
    return 0


def _cmd_estimate_component(args, tech) -> int:
    from .estimator import AnalogPerformanceEstimator

    ape = AnalogPerformanceEstimator(tech, tolerant=args.tolerant)
    comp = ape.estimate_component(args.kind, **_kv_pairs(args.params))
    _print_estimate(args.kind, comp.estimate)
    for role, dev in sorted(comp.devices.items()):
        print(f"  {role:14s} W={format_si(dev.w, 'm')} L={format_si(dev.l, 'm')}")
    _render_diagnostics(ape.diagnostics)
    return 0


def _cmd_estimate_module(args, tech) -> int:
    from .estimator import AnalogPerformanceEstimator

    ape = AnalogPerformanceEstimator(tech)
    spec = _kv_pairs(args.params)
    _int_keys(spec, ("order", "bits"))
    module = ape.estimate_module(args.kind, **spec)
    _print_estimate(args.kind, module.estimate)
    print(f"  {'total_area':14s} {module.total_area:.6g}")
    return 0


#: ``synthesize`` flags that define the problem (not the machinery):
#: journaled into the run directory's ``cli.json`` sidecar so
#: ``--resume RUN_DIR`` works without repeating them.
_SYNTH_SIDECAR_ARGS = (
    "gain", "ugf", "ibias", "cl", "area", "mode", "budget", "seed",
    "restarts", "retries", "deadline", "max_failures",
    "corners", "mc_samples", "robust_cost", "yield_target",
    "feasibility", "store_dir", "surrogate",
)


def _cmd_synthesize(args, tech) -> int:
    from .opamp import OpAmpSpec
    from .runtime import EvalBudget, RetryPolicy, RunJournal, SupervisorConfig
    from .synthesis import synthesize_opamp

    resume = args.resume is not None
    run_dir = args.resume if resume else args.run_dir
    if resume:
        # Restore the problem-defining flags the user omitted from the
        # run directory's sidecar, so "repro synthesize --resume DIR"
        # needs nothing else.
        saved = RunJournal(run_dir).load_sidecar("cli.json") or {}
        for key in _SYNTH_SIDECAR_ARGS:
            if getattr(args, key, None) is None and key in saved:
                setattr(args, key, saved[key])
    if args.gain is None or args.ugf is None:
        raise ApeError(
            "synthesize requires --gain and --ugf "
            "(or --resume RUN_DIR with a cli.json sidecar)"
        )
    for key, fallback in (
        ("ibias", "1u"), ("cl", "10p"), ("area", "inf"), ("mode", "ape"),
        ("budget", 150), ("seed", 1), ("retries", 0), ("restarts", 1),
        ("feasibility", "off"), ("surrogate", "off"),
    ):
        if getattr(args, key, None) is None:
            setattr(args, key, fallback)

    spec = OpAmpSpec(
        gain=parse_quantity(args.gain),
        ugf=parse_quantity(args.ugf),
        ibias=parse_quantity(args.ibias),
        cl=parse_quantity(args.cl),
        area=(math.inf if args.area == "inf" else parse_quantity(args.area)),
    )
    robust = None
    if args.corners is not None or (args.mc_samples or 0) > 0:
        from .synthesis import RobustSpec

        # MC-only runs still need a corner list; plain "tt" aliases the
        # nominal evaluation, so it costs nothing extra.
        corners = (
            tuple(c for c in args.corners.split(",") if c.strip())
            if args.corners is not None else ("tt",)
        )
        robust = RobustSpec(
            corners=corners,
            mc_samples=args.mc_samples or 0,
            mode=args.robust_cost or "worst",
            yield_target=(
                float(args.yield_target)
                if args.yield_target is not None else 1.0
            ),
        )
    budget = None
    if args.deadline is not None or args.max_failures is not None:
        budget = EvalBudget(
            deadline_seconds=(
                parse_quantity(args.deadline)
                if args.deadline is not None else None
            ),
            max_failures=args.max_failures,
        )
    retry = (
        RetryPolicy(max_attempts=args.retries + 1, seed=args.seed)
        if args.retries > 0 else None
    )
    supervisor = None
    if (
        args.heartbeat_timeout is not None
        or args.chain_timeout is not None
        or args.max_chain_retries is not None
    ):
        defaults = SupervisorConfig()
        supervisor = SupervisorConfig(
            heartbeat_timeout_seconds=(
                parse_quantity(args.heartbeat_timeout)
                if args.heartbeat_timeout is not None else None
            ),
            chain_timeout_seconds=(
                parse_quantity(args.chain_timeout)
                if args.chain_timeout is not None else None
            ),
            max_chain_retries=(
                args.max_chain_retries
                if args.max_chain_retries is not None
                else defaults.max_chain_retries
            ),
        )
    if run_dir is not None and not resume:
        RunJournal(run_dir).write_sidecar(
            "cli.json",
            {
                key: getattr(args, key)
                for key in _SYNTH_SIDECAR_ARGS
                if getattr(args, key, None) is not None
            },
        )
    log = DiagnosticLog()
    result = synthesize_opamp(
        tech, spec, mode=args.mode,
        max_evaluations=args.budget, seed=args.seed,
        tolerant=args.tolerant, budget=budget, retry=retry,
        diagnostics=log,
        restarts=args.restarts, workers=args.workers,
        oversubscribe=args.oversubscribe,
        run_dir=run_dir, resume=resume, supervisor=supervisor,
        robust=robust, feasibility=args.feasibility,
        store_dir=args.store_dir, surrogate=args.surrogate,
    )
    print(f"mode:       {result.mode}")
    print(f"meets spec: {result.meets_spec} ({result.comment})")
    if result.feasibility is not None:
        verdict = "feasible" if result.feasibility.feasible else "INFEASIBLE"
        codes = ",".join(
            f.code for f in result.feasibility.findings
        ) or "clean"
        print(f"feasibility: {verdict} ({codes})")
    if result.degraded:
        print("degraded:   True")
    if result.metrics:
        for key, value in sorted(result.metrics.items()):
            print(f"  {key:14s} {value:.6g}")
    print(f"evaluations: {result.evaluations} "
          f"({result.failed_evaluations} failed, "
          f"{result.lint_rejections} lint-rejected, "
          f"{result.retries} retries), "
          f"annealer {result.cpu_seconds:.2f} s, "
          f"APE {result.ape_seconds * 1e3:.2f} ms")
    if result.robust_mode is not None:
        print(f"robust:      {result.robust_mode}-case over "
              f"{len(result.corner_metrics)} variant(s), "
              f"corner evals: {result.corner_evals}, "
              f"screened: {result.screened_candidates}")
        if result.worst_corner is not None:
            print(f"worst case:  {result.worst_corner}")
        if result.estimated_yield is not None:
            print(f"est. yield:  {result.estimated_yield:.1%}")
    if result.restarts > 1:
        print(f"chains:      {len(result.chains)} of {result.restarts} "
              f"on {result.workers} worker(s), best costs "
              f"{[round(c.best_cost, 6) for c in result.chains]}")
    if (
        result.worker_restarts or result.quarantined_chains
        or result.resumed_chains or result.interrupted
    ):
        print(f"supervision: {result.worker_restarts} worker restart(s), "
              f"quarantined {result.quarantined_chains}, "
              f"resumed {result.resumed_chains}, "
              f"interrupted {result.interrupted}")
    if result.run_dir is not None:
        print(f"run journal: {result.run_dir} "
              f"(resume with: repro synthesize --resume {result.run_dir})")
    lookups = result.cache_hits + result.cache_misses
    cache = (
        f"{result.cache_hits} hits / {result.cache_misses} misses "
        f"(hit rate {result.cache_hits / lookups:.1%})"
        if lookups else "off"
    )
    print(f"throughput:  {result.evals_per_second:.1f} evals/s, "
          f"cache {cache}")
    if result.store_dir is not None:
        print(f"store:       {result.store_dir} "
              f"({result.store_hits} hits / "
              f"{result.store_writes} new rows)")
    if result.surrogate != "off":
        print(f"surrogate:   {result.surrogate} "
              f"({result.surrogate_skips} proposals skipped, "
              f"{result.surrogate_refits} refits)")
    _render_diagnostics(log)
    return 0 if result.meets_spec else 1


def _qty(value) -> float:
    """Coerce a CLI flag or JSON fixture value to a float quantity."""
    if isinstance(value, str):
        return math.inf if value == "inf" else parse_quantity(value)
    return float(value)


def _cmd_analyze(args, tech) -> int:
    import json

    from .analysis import analyze_problem, screen_topologies
    from .opamp import OpAmpSpec
    from .synthesis import opamp_synthesis_spec

    fixture: dict = {}
    if args.spec_file is not None:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            fixture = json.load(handle)
        if not isinstance(fixture, dict):
            raise ApeError(f"{args.spec_file}: expected a JSON object")

    spec_in = dict(fixture.get("spec", {}))
    # Command-line flags override fixture entries.
    for key, flag in (
        ("gain", args.gain), ("ugf", args.ugf), ("ibias", args.ibias),
        ("cl", args.cl), ("area", args.area), ("slew_rate", args.slew_rate),
    ):
        if flag is not None:
            spec_in[key] = flag
    if spec_in.get("gain") is None or spec_in.get("ugf") is None:
        raise ApeError(
            "analyze requires --gain and --ugf (or a --spec-file "
            "providing them)"
        )
    spec = OpAmpSpec(
        gain=_qty(spec_in["gain"]),
        ugf=_qty(spec_in["ugf"]),
        ibias=_qty(spec_in.get("ibias", "1u")),
        cl=_qty(spec_in.get("cl", "10p")),
        area=_qty(spec_in.get("area", "inf")),
        slew_rate=_qty(spec_in.get("slew_rate", 0.0)),
    )

    topo_in = dict(fixture.get("topology", {}))
    if args.current_source is not None:
        topo_in["current_source"] = args.current_source
    if args.diff_pair is not None:
        topo_in["diff_pair"] = args.diff_pair
    if args.buffer:
        topo_in["output_buffer"] = True
    if args.z_load is not None:
        topo_in["z_load"] = args.z_load
    topology = None
    if topo_in:
        from .opamp.topology import OpAmpTopology

        topology = OpAmpTopology(
            current_source=topo_in.get("current_source", "mirror"),
            diff_pair=topo_in.get("diff_pair", "cmos"),
            gain_stage=topo_in.get("gain_stage"),
            output_buffer=bool(topo_in.get("output_buffer", False)),
            z_load=_qty(topo_in.get("z_load", "inf")),
        )

    synth = opamp_synthesis_spec(spec)
    for entry in fixture.get("constraints", ()):
        synth.require(
            str(entry["metric"]), str(entry["kind"]), _qty(entry["bound"]),
            weight=float(entry.get("weight", 1.0)),
        )
    if args.max_power is not None:
        synth.require("dc_power", "le", _qty(args.max_power))

    mode = args.mode or fixture.get("mode") or "ape"
    name = fixture.get("name") or "opamp"

    if args.screen:
        verdicts = screen_topologies(
            tech, spec, synthesis_spec=synth, mode=mode, name=name
        )
        if args.format == "json":
            print(json.dumps([v.to_dict() for v in verdicts], indent=2))
        else:
            for rank, verdict in enumerate(verdicts, start=1):
                codes = ",".join(verdict.report.error_codes) or "-"
                print(f"{rank}. {verdict.label:24s} "
                      f"{'feasible' if verdict.feasible else 'INFEASIBLE':10s} "
                      f"errors: {codes}")
        return 0 if any(v.feasible for v in verdicts) else 1

    report = analyze_problem(
        tech, spec, topology, synth,
        mode=mode, contract=not args.no_contract, name=name,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.feasible else 1


def _cmd_bench(args, tech) -> int:
    import os

    from .benchmark import (
        check_regression,
        load_report,
        render_analysis_report,
        render_parallel_report,
        render_report,
        render_robust_report,
        render_sparse_report,
        render_store_report,
        run_analysis_benchmark,
        run_engine_benchmark,
        run_parallel_benchmark,
        run_robust_benchmark,
        run_sparse_benchmark,
        run_store_benchmark,
        write_report,
    )

    if args.validate is not None:
        failures = 0
        for path in args.validate:
            try:
                report = load_report(path)
            except ApeError as exc:
                print(f"{path}: INVALID — {exc}")
                failures += 1
            else:
                met = report.target_results()
                print(f"{path}: ok (suite {report.suite}, "
                      f"{len(report.measures)} measure(s), "
                      f"{sum(met.values())}/{len(met)} target(s) met)")
        return 1 if failures else 0

    min_time = (
        parse_quantity(args.min_time) if args.min_time is not None else None
    )

    def finish(report, out: str) -> bool:
        """Write the report; True when targets hold and nothing regressed."""
        previous = None
        if args.check and os.path.exists(out):
            try:
                previous = load_report(out)
            except ApeError:
                previous = None  # pre-schema or corrupt: no baseline
        write_report(report, out)
        print(f"report written to {out}")
        ok = report.all_targets_met()
        for name in report.missed_targets():
            print(f"target MISSED: {name}")
        if previous is not None:
            for line in check_regression(report, previous):
                print(f"regression: {line}")
                ok = False
        return ok

    ok = True
    if args.suite in ("engine", "all"):
        report = run_engine_benchmark(quick=args.quick, min_time=min_time)
        print(render_report(report))
        out = args.out if args.suite == "engine" and args.out else "BENCH_engine.json"
        ok = finish(report, out) and ok
    if args.suite in ("parallel", "all"):
        report = run_parallel_benchmark(
            quick=args.quick, workers=args.workers
        )
        print(render_parallel_report(report))
        out = (
            args.out if args.suite == "parallel" and args.out
            else "BENCH_parallel.json"
        )
        ok = finish(report, out) and ok
    if args.suite in ("robust", "all"):
        report = run_robust_benchmark(
            quick=args.quick, workers=args.workers,
            oversubscribe=args.oversubscribe,
        )
        print(render_robust_report(report))
        out = (
            args.out if args.suite == "robust" and args.out
            else "BENCH_robust.json"
        )
        ok = finish(report, out) and ok
    if args.suite in ("sparse", "all"):
        report = run_sparse_benchmark(quick=args.quick, min_time=min_time)
        print(render_sparse_report(report))
        out = (
            args.out if args.suite == "sparse" and args.out
            else "BENCH_sparse.json"
        )
        ok = finish(report, out) and ok
    if args.suite in ("analysis", "all"):
        report = run_analysis_benchmark(quick=args.quick)
        print(render_analysis_report(report))
        out = (
            args.out if args.suite == "analysis" and args.out
            else "BENCH_analysis.json"
        )
        ok = finish(report, out) and ok
    if args.suite in ("store", "all"):
        report = run_store_benchmark(quick=args.quick)
        print(render_store_report(report))
        out = (
            args.out if args.suite == "store" and args.out
            else "BENCH_store.json"
        )
        ok = finish(report, out) and ok
    if args.check and not ok:
        return 1
    return 0


def _cmd_diagnostics(args, tech) -> int:
    import dataclasses
    import json

    from .runtime import global_stats

    log = global_log()
    stats = global_stats()
    if getattr(args, "format", "text") == "json":
        payload = {
            "diagnostics": [dataclasses.asdict(d) for d in log],
            "stats": stats.to_dict(),
        }
        print(json.dumps(payload, indent=2, default=repr))
    else:
        print(f"{len(log)} diagnostic record(s) this session")
        if log:
            print(log.render())
        print(stats.render())
    if args.clear:
        log.clear()
        stats.clear()
    return 0


def _cmd_lint(args, tech) -> int:
    import json

    from .lint import lint_circuit
    from .spice import read_deck_file

    models = {"CMOSN": tech.nmos, "CMOSP": tech.pmos}
    select = (
        [c.strip().upper() for c in args.select.split(",") if c.strip()]
        if args.select is not None else None
    )
    ignore = (
        [c.strip().upper() for c in args.ignore.split(",") if c.strip()]
        if args.ignore is not None else None
    )
    reports = []
    for path in args.decks:
        circuit = read_deck_file(path, models=models)
        report = lint_circuit(
            circuit,
            tech=None if args.no_tech_rules else tech,
            rules=select,
            suppress=ignore,
        )
        reports.append((path, report))
    if args.format == "json":
        print(json.dumps(
            [dict(path=path, **report.to_dict())
             for path, report in reports],
            indent=2,
        ))
    else:
        for path, report in reports:
            print(f"{path}: {report.render()}")
    return 0 if all(report.ok for _, report in reports) else 1


def _cmd_simulate(args, tech) -> int:
    from .spice import (
        ac_analysis,
        dc_operating_point,
        read_deck_file,
        transient_analysis,
    )
    from .spice.ac import log_frequencies

    models = {"CMOSN": tech.nmos, "CMOSP": tech.pmos}
    circuit = read_deck_file(args.deck, models=models)
    op = dc_operating_point(circuit)
    any_analysis = args.ac or args.tran or args.noise or args.tf
    if args.op or not any_analysis:
        print("DC operating point:")
        for node, volt in op.voltages.items():
            print(f"  V({node}) = {volt:.6g}")
        for name, mop in op.mosfet_ops.items():
            print(f"  {name}: {mop.region}, Id={mop.ids:.4g}, "
                  f"gm={mop.gm:.4g}")
    if args.ac:
        f1, f2 = (parse_quantity(v) for v in args.ac)
        freqs = log_frequencies(f1, f2, 10)
        ac = ac_analysis(circuit, op=op, frequencies=freqs)
        node = args.out or circuit.nodes()[-1]
        print(f"AC magnitude at {node}:")
        for f, m in zip(freqs, ac.magnitude(node)):
            print(f"  {f:12.4g} Hz  {m:.6g}")
    if args.tran:
        t_stop, dt = (parse_quantity(v) for v in args.tran)
        tran = transient_analysis(circuit, t_stop, dt, op=op)
        node = args.out or circuit.nodes()[-1]
        print(f"transient V({node}):")
        step = max(len(tran.times) // 20, 1)
        for t, v in zip(tran.times[::step], tran.v(node)[::step]):
            print(f"  {t:12.4g} s  {v:.6g}")
    if args.noise:
        import math as _math

        from .spice import noise_analysis

        f1, f2 = (parse_quantity(v) for v in args.noise)
        freqs = log_frequencies(f1, f2, 5)
        node = args.out or circuit.nodes()[-1]
        result = noise_analysis(circuit, node, freqs, op=op)
        print(f"output noise density at {node}:")
        for f, psd in zip(result.frequencies, result.output_psd):
            print(f"  {f:12.4g} Hz  {_math.sqrt(psd):.4g} V/sqrt(Hz)")
        print(f"dominant contributor: {result.dominant_contributor()}")
    if args.tf:
        from .spice import extract_transfer_function

        node = args.out or circuit.nodes()[-1]
        tf = extract_transfer_function(circuit, node, op=op)
        print(f"H(s) to {node}: order {tf.order}, "
              f"DC gain {tf.dc_gain:.6g}, "
              f"{'stable' if tf.is_stable() else 'UNSTABLE'}")
        for pole in tf.poles():
            print(f"  pole: {pole:.6g} rad/s")
        for zero in tf.zeros():
            print(f"  zero: {zero:.6g} rad/s")
    return 0


def _cmd_serve(args, tech) -> int:
    from .service import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        service_workers=args.service_workers,
        synth_workers=args.synth_workers,
        oversubscribe=args.oversubscribe,
        lease_seconds=parse_quantity(args.lease),
        max_queue_depth=args.max_queue_depth,
        tenant_max_active=args.tenant_max_active,
        tenant_max_evals=args.tenant_max_evals,
        max_attempts=args.max_job_attempts,
        drain_timeout_s=parse_quantity(args.drain_timeout),
        verbose=args.verbose,
    )
    return run_service(tech, config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .technology import technology_by_name

    injector = None
    try:
        # Arm the deterministic fault-injection harness when requested
        # (REPRO_FAULTS="seed=7,spice.dc=0.2,..."); no-op otherwise.
        injector = _faults.arm_from_env()
        if args.solver is not None:
            from .spice import set_solver_mode

            set_solver_mode(args.solver)
        tech = technology_by_name(args.tech)
        handler = {
            "estimate-opamp": _cmd_estimate_opamp,
            "estimate-component": _cmd_estimate_component,
            "estimate-module": _cmd_estimate_module,
            "synthesize": _cmd_synthesize,
            "analyze": _cmd_analyze,
            "lint": _cmd_lint,
            "simulate": _cmd_simulate,
            "bench": _cmd_bench,
            "diagnostics": _cmd_diagnostics,
            "serve": _cmd_serve,
        }[args.command]
        return handler(args, tech)
    except ApeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if injector is not None:
            _faults.disarm()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
