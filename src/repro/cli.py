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
import inspect
import sys
from dataclasses import replace

from .errors import ApeError
from .opamp.topology import CURRENT_SOURCES, DIFF_PAIRS, OpAmpSpec, OpAmpTopology
from .runtime import EvalBudget, RetryPolicy, RunJournal, SupervisorConfig
from .runtime import faults as _faults
from .runtime.diagnostics import DiagnosticLog, global_log
from .service import ServiceConfig, run_service
from .spice.linalg import set_solver_mode, solver_mode
from .synthesis.config import (
    _RUN_KEYS,
    _SPEC_KEYS,
    _TOPOLOGY_KEYS,
    FEASIBILITY_MODES,
    MODES,
    SURROGATE_MODES,
    RunConfig,
)
from .synthesis.cost import ROBUST_COST_MODES
from .synthesis.robust import RobustSpec
from .units import format_quantity, format_si, parse_quantity
from .variation.corners import parse_corner_list

__all__ = ["main", "build_parser"]

#: The run-request flags, by dest: the section of ``RunConfig``'s JSON
#: request each one fills ("" is the top level), the class declaring
#: its field, and its key.  Only ``--buffer`` and ``--budget`` are
#: named otherwise than their key; ``gain_stage`` and ``name`` have no
#: flag.
_REQUEST_FLAGS = {
    {"output_buffer": "buffer", "max_evaluations": "budget"}.get(key, key): (
        section, owner, key
    )
    for section, owner, keys in (
        ("spec", OpAmpSpec, _SPEC_KEYS),
        ("topology", OpAmpTopology, _TOPOLOGY_KEYS),
        ("", RunConfig, _RUN_KEYS),
    )
    for key in keys
    if key not in ("gain_stage", "name")
}

#: The other flags that name a ``synthesize`` run, by dest: the class
#: each one configures and the field it sets.
_RUN_FLAGS = {
    "deadline": (EvalBudget, "deadline_seconds"),
    "max_failures": (EvalBudget, "max_failures"),
    "heartbeat_timeout": (SupervisorConfig, "heartbeat_timeout_seconds"),
    "chain_timeout": (SupervisorConfig, "chain_timeout_seconds"),
    "max_chain_retries": (SupervisorConfig, "max_chain_retries"),
    "corners": (RobustSpec, "corners"),
    "mc_samples": (RobustSpec, "mc_samples"),
    "robust_cost": (RobustSpec, "mode"),
    "yield_target": (RobustSpec, "yield_target"),
    "feasibility": (RunConfig, "feasibility"),
    "surrogate": (RunConfig, "surrogate"),
}

#: ``repro serve``'s flags, by dest: the ``ServiceConfig`` field each sets.
_SERVE_FLAGS = {
    "host": (ServiceConfig, "host"),
    "port": (ServiceConfig, "port"),
    "data_dir": (ServiceConfig, "data_dir"),
    "service_workers": (ServiceConfig, "service_workers"),
    "synth_workers": (ServiceConfig, "synth_workers"),
    "oversubscribe": (ServiceConfig, "oversubscribe"),
    "lease": (ServiceConfig, "lease_seconds"),
    "max_queue_depth": (ServiceConfig, "max_queue_depth"),
    "tenant_max_active": (ServiceConfig, "tenant_max_active"),
    "tenant_max_evals": (ServiceConfig, "tenant_max_evals"),
    "max_job_attempts": (ServiceConfig, "max_attempts"),
    "drain_timeout": (ServiceConfig, "drain_timeout_s"),
    "verbose": (ServiceConfig, "verbose"),
}

#: Every flag that sets one dataclass field, by dest.
_FIELD_FLAGS = {**_RUN_FLAGS, **_SERVE_FLAGS}

#: The tuple each choice field is validated against, by flag dest.
_CHOICES = {
    "current_source": CURRENT_SOURCES,
    "diff_pair": DIFF_PAIRS,
    "mode": MODES,
    "robust_cost": ROBUST_COST_MODES,
    "feasibility": FEASIBILITY_MODES,
    "surrogate": SURROGATE_MODES,
}

#: Each field flag's help, by dest; the default it shows is its field's.
_HELP = {
    "gain": "low-frequency differential gain",
    "ugf": "unity-gain frequency [Hz]",
    "ibias": "bias (tail) current [A]",
    "cl": "load capacitance [F]",
    "area": "gate-area budget [m^2]",
    "slew_rate": "slew rate [V/s]; 0 leaves it unconstrained",
    "current_source": "tail current source",
    "diff_pair": "differential stage; folded is the folded cascode",
    "buffer": "add a source-follower output buffer",
    "z_load": "resistive load the buffer drives [ohm]",
    "mode": "search box: around APE's template, or the paper's wide ranges",
    "seed": "master seed; each chain's seed is derived from it",
    "restarts": "independently seeded annealing chains; the best one wins",
    "budget": "evaluations per annealing chain",
    "deadline": "wall-clock budget for the run [s]",
    "max_failures": "stop, degraded, after this many failed evaluations",
    "heartbeat_timeout": "replace the worker of a chain silent this long [s]",
    "chain_timeout": "hard wall-clock deadline per chain attempt [s]",
    "max_chain_retries": "resubmissions of a chain whose worker was lost",
    "corners": "size against these corners, e.g. TT,SS,FF or 'SS@-40C,4.5V'",
    "mc_samples": "size against this many Pelgrom mismatch Monte Carlo samples",
    "robust_cost": "aggregate the corners and samples by worst case or yield",
    "yield_target": "target yield fraction for --robust-cost yield",
    "feasibility": "reject a provably infeasible spec; contract also cuts the box",
    "surrogate": "rank: evaluate only the APE-best of four proposals per move",
    "host": "bind address",
    "port": "bind port; 0 picks a free port",
    "data_dir": "job queue + run journals + shared eval store",
    "service_workers": "concurrent jobs this server executes",
    "synth_workers": "process-pool width per job",
    "oversubscribe": "allow more synthesis workers than CPUs",
    "lease": "job lease seconds; a crashed server's jobs become claimable "
             "after this",
    "max_queue_depth": "bound on queued+running jobs before 429s",
    "tenant_max_active": "per-tenant concurrent job cap",
    "tenant_max_evals": "per-tenant cap on summed max_evaluations of active jobs",
    "max_job_attempts": "attempts before a job is quarantined as poison",
    "drain_timeout": "seconds a SIGTERM drain waits for running jobs",
    "verbose": "log each HTTP request to stderr",
}

#: ``synthesize``'s run-request flags.
_SYNTH_REQUEST = ("gain", "ugf", "ibias", "cl", "area", "mode", "budget",
                  "seed", "restarts")

#: The ``synthesize`` flags that name its run: ``--run-dir`` journals
#: the ones given into the run directory's ``cli.json``, with the
#: global ``--tech``, the tolerance and a forced ``--solver``, and
#: ``--resume`` restores each one omitted from it.
_JOURNALED = (*_SYNTH_REQUEST, *_RUN_FLAGS, "retries", "store_dir")
_GLOBALS = ("tech", "tolerant", "solver")


def _kv_pairs(pairs: list[str], cls: type | None = None) -> dict[str, object]:
    """``key=value`` entries, each typed by the annotation of the
    ``cls.design`` parameter it sets: text for a ``str``, an integer
    for an ``int``, else a quantity (or text where none parses)."""
    params = inspect.signature(cls.design).parameters if cls else {}
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ApeError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        if params and key not in params:
            raise ApeError(f"{cls.__name__}.design() has no parameter {key!r}")
        annotation = str(params[key].annotation) if params else ""
        if annotation == "str":
            out[key] = raw
        elif annotation == "int":
            value = parse_quantity(raw)
            if not value.is_integer():
                raise ApeError(f"{key} must be an integer, got {raw!r}")
            out[key] = int(value)
        else:
            try:
                out[key] = parse_quantity(raw)
            except ApeError:
                out[key] = raw  # string-valued options (polarity ...)
    return out


def _print_estimate(title: str, estimate) -> None:
    print(f"{title}:")
    for key, value in estimate.as_dict().items():
        print(f"  {key:14s} {value:.6g}")


def _field(dest: str) -> inspect.Parameter:
    """The constructor parameter, or dataclass field, a flag sets."""
    owner, name = _FIELD_FLAGS.get(dest) or _REQUEST_FLAGS[dest][1:]
    return inspect.signature(owner).parameters[name]


def _add_run_flags(
    parser: argparse.ArgumentParser, dests, required: bool | str = True
) -> None:
    """Declare flags, each from the field it sets: an integer, a
    switch or text as the field's annotation says, showing the field's
    default, choosing from its validation tuple.  An omitted flag is
    ``None`` and leaves the field its default; a field without one is
    required, by argparse or (``required`` text) by the command."""
    for dest in dests:
        field = _field(dest)
        kind = str(field.annotation)
        options: dict = {"default": None, "help": _HELP[dest]}
        if kind == "bool":
            options["action"] = "store_true"
        else:
            options["type"] = int if kind.startswith("int") else None
            options["choices"] = _CHOICES.get(dest)
        # --corners switches robust synthesis on; left out, the run
        # is nominal, whatever RobustSpec's own corner list says.
        default = None if dest == "corners" else field.default
        if default is not field.empty:
            if isinstance(default, float):
                default = format_quantity(default)
            shown = "off" if default is None or default is False else default
            options["help"] += f" (default: {shown})"
        elif required is True:
            options["required"] = True
        else:
            options["help"] += f" (required unless {required})"
        parser.add_argument("--" + dest.replace("_", "-"), **options)


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
    _add_run_flags(p, (
        "gain", "ugf", "ibias", "cl", "current_source", "diff_pair",
        "buffer", "z_load",
    ))
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
    _add_run_flags(
        p, _SYNTH_REQUEST, "--resume restores it from the run directory"
    )
    p.add_argument("--retries", type=int, default=None,
                   help="DC-solver retry attempts per evaluation "
                        "(deterministic jittered restarts; default: 0)")
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
                        "from RUN_DIR and execute only the rest; each "
                        "flag naming the run that is omitted, the global "
                        "ones too, is restored from RUN_DIR")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persistent evaluation store: cache every "
                        "candidate's cost/metrics in DIR (SQLite) and "
                        "reuse them across runs that share the same "
                        "problem fingerprint")
    _add_run_flags(p, _RUN_FLAGS)

    p = sub.add_parser(
        "analyze",
        help="static spec feasibility analysis: interval bounds over the "
             "APE estimator, no Newton solves (exit 1 when provably "
             "infeasible)",
    )
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON spec fixture (see examples/specs/); "
                        "command-line flags override its entries")
    _add_run_flags(p, (
        "gain", "ugf", "ibias", "cl", "area", "slew_rate",
        "current_source", "diff_pair", "buffer", "z_load", "mode",
    ), "--spec-file provides it")
    p.add_argument("--max-power", default=None,
                   help="extra dc_power <= BOUND constraint [W]")
    p.add_argument("--no-contract", action="store_true",
                   help="skip the sound box contraction pass")
    p.add_argument("--screen", action="store_true",
                   help="rank the structural topology catalog by static "
                        "feasibility instead of analyzing one candidate")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (default: text)")

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
    _add_run_flags(p, _SERVE_FLAGS)

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


def _run_config(args, payload: dict | None = None) -> RunConfig:
    """The run that a command's request flags spell over a JSON run
    request (a ``--spec-file`` fixture): a flag given overrides the
    request's entry, and a field neither sets keeps its default."""
    payload = dict(payload or {})
    for dest, (section, _owner, key) in _REQUEST_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if section:
            payload[section] = {**payload.get(section, {}), key: value}
        else:
            payload[key] = value
    if "spec" not in payload:
        raise ApeError(f"{args.command} requires --gain and --ugf")
    return RunConfig.from_payload(payload)


def _cmd_estimate_opamp(args, tech) -> int:
    from .estimator import AnalogPerformanceEstimator
    from .opamp import verify_opamp

    config = _run_config(args)
    topology = config.topology or OpAmpTopology()
    ape = AnalogPerformanceEstimator(tech, tolerant=args.tolerant)
    amp = ape.estimate_opamp(
        **vars(config.spec),
        **{key: getattr(topology, key) for key in _TOPOLOGY_KEYS},
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
    from .estimator import _COMPONENT_KINDS, AnalogPerformanceEstimator

    ape = AnalogPerformanceEstimator(tech, tolerant=args.tolerant)
    spec = _kv_pairs(args.params, _COMPONENT_KINDS.get(args.kind.lower()))
    comp = ape.estimate_component(args.kind, **spec)
    _print_estimate(args.kind, comp.estimate)
    for role, dev in sorted(comp.devices.items()):
        print(f"  {role:14s} W={format_si(dev.w, 'm')} L={format_si(dev.l, 'm')}")
    _render_diagnostics(ape.diagnostics)
    return 0


def _cmd_estimate_module(args, tech) -> int:
    from .estimator import _MODULE_KINDS, AnalogPerformanceEstimator

    ape = AnalogPerformanceEstimator(tech)
    spec = _kv_pairs(args.params, _MODULE_KINDS.get(args.kind.lower()))
    module = ape.estimate_module(args.kind, **spec)
    _print_estimate(args.kind, module.estimate)
    print(f"  {'total_area':14s} {module.total_area:.6g}")
    return 0


def _fields(args, owner) -> dict:
    """The fields of ``owner`` that the flags given set."""
    fields = {}
    for dest, (cls, name) in _FIELD_FLAGS.items():
        value = getattr(args, dest) if cls is owner else None
        if value is None:
            continue
        if dest == "corners":
            # A modifier fragment ("4.5V" in "SS@-40C,4.5V") belongs to
            # the corner before it: the list is not split on every comma.
            value = tuple(c.canonical for c in parse_corner_list(value))
        elif str(_field(dest).annotation).startswith("float"):
            value = parse_quantity(value)
        fields[name] = value
    return fields


def _cmd_synthesize(args, tech) -> int:
    from .synthesis import synthesize_opamp

    resume = args.resume is not None
    run_dir = args.resume if resume else args.run_dir
    robust = _fields(args, RobustSpec)
    # MC-only runs still need a corner list; plain "tt" aliases the
    # nominal evaluation, so it costs nothing extra.
    robust_spec = (
        RobustSpec(**{"corners": ("tt",), **robust})
        if "corners" in robust or robust.get("mc_samples", 0) > 0
        else None
    )
    config = replace(
        _run_config(args), tolerant=args.tolerant, robust=robust_spec,
        **_fields(args, RunConfig),
    )
    budget = _fields(args, EvalBudget)
    supervisor = _fields(args, SupervisorConfig)
    retry = (
        RetryPolicy(max_attempts=args.retries + 1, seed=config.seed)
        if (args.retries or 0) > 0 else None
    )
    if run_dir is not None and not resume:
        sidecar = {
            dest: getattr(args, dest)
            for dest in (*_JOURNALED, "tech", "tolerant")
            if getattr(args, dest) is not None
        }
        if solver_mode() != "auto":
            sidecar["solver"] = solver_mode()
        RunJournal(run_dir).write_sidecar("cli.json", sidecar)
    log = DiagnosticLog()
    result = synthesize_opamp(
        tech, **config.as_kwargs(),
        budget=EvalBudget(**budget) if budget else None,
        retry=retry, diagnostics=log,
        workers=args.workers, oversubscribe=args.oversubscribe,
        run_dir=run_dir, resume=resume,
        supervisor=SupervisorConfig(**supervisor) if supervisor else None,
        store_dir=args.store_dir,
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
              f"({result.surrogate_skips} proposals skipped)")
    _render_diagnostics(log)
    return 0 if result.meets_spec else 1


def _cmd_analyze(args, tech) -> int:
    import json

    from .analysis import screen_topologies

    payload: dict = {}
    if args.spec_file is not None:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ApeError(f"{args.spec_file}: expected a JSON object")
        # A fixture's "description" is prose, not part of the request.
        payload.pop("description", None)
    if args.max_power is not None:
        payload["constraints"] = [
            *payload.get("constraints", ()),
            {"metric": "dc_power", "kind": "le", "bound": args.max_power},
        ]
    # The request refuses a key it does not know.
    config = _run_config(args, payload)

    if args.screen:
        verdicts = screen_topologies(
            tech, config.spec,
            synthesis_spec=config.resolved_synthesis_spec(),
            mode=config.mode, range_factor=config.range_factor,
            name=config.name,
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

    report = config.analyze(tech, contract=not args.no_contract)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.feasible else 1


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
    return run_service(tech, ServiceConfig(**_fields(args, ServiceConfig)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # The global flags parse unset, so a resume can tell one omitted
    # from one given; the parser's defaults fill in the rest below.
    args = parser.parse_args(argv, argparse.Namespace(tech=None, tolerant=None))
    from .technology import technology_by_name

    injector = None
    try:
        # Arm the deterministic fault-injection harness when requested
        # (REPRO_FAULTS="seed=7,spice.dc=0.2,..."); no-op otherwise.
        injector = _faults.arm_from_env()
        if getattr(args, "resume", None) is not None:
            # "repro synthesize --resume DIR" needs nothing else.
            saved = RunJournal(args.resume).load_sidecar("cli.json") or {}
            for dest in (*_JOURNALED, *_GLOBALS):
                if getattr(args, dest) is None and dest in saved:
                    setattr(args, dest, saved[dest])
        for dest in _GLOBALS:
            if getattr(args, dest) is None:
                setattr(args, dest, parser.get_default(dest))
        if args.solver is not None:
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
