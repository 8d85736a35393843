"""Engine hot-path benchmark: compiled vs naive assembly, same run.

Times the four workloads the synthesis loop actually spends its cycles
on — DC operating point, AC sweep, transient integration and the full
``coarse_design_opamp`` -> annealer candidate evaluation — once with
the stamp-compiled engine (the default) and once with the naive
per-element assembly loops forced via
:func:`repro.spice.engine.naive_assembly`.  Because both measurements
happen in one process on the same fixtures, the reported speedups are
a like-for-like A/B, not a comparison against a stale recording.

The entry point is :func:`run_engine_benchmark`, which returns a
validated :class:`~repro.benchmark.report.BenchReport` ready to be
serialized as ``BENCH_engine.json``; the ``repro bench`` CLI
subcommand and ``benchmarks/bench_engine_hotpath.py`` are thin
wrappers around it.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from .report import BenchMeasure, BenchReport, BenchTarget

__all__ = [
    "run_engine_benchmark",
    "run_parallel_benchmark",
    "render_report",
    "render_parallel_report",
    "SPEEDUP_TARGETS",
    "PARALLEL_SPEEDUP_TARGETS",
    "SUPERVISED_OVERHEAD_TARGET",
    "SUPERVISED_OVERHEAD_TARGET_QUICK",
]

#: Acceptance floors: compiled must beat naive by at least this factor.
SPEEDUP_TARGETS = {"ac_sweep": 3.0, "anneal_eval": 2.0, "lint_gate": 3.0}

#: Acceptance floor for the multi-chain executor: a 4-restart leg on
#: 4 workers must beat 4 sequential serial-path legs by this factor.
PARALLEL_SPEEDUP_TARGETS = {"synth_parallel": 2.5}

#: Acceptance ceiling for the supervised leg: heartbeats, watchdog
#: polling and write-ahead journaling may cost at most this fraction
#: over the bare parallel run (full mode; quick smoke runs are too
#: short for the fsync cost to amortize, so they get a loose ceiling).
SUPERVISED_OVERHEAD_TARGET = 0.05
SUPERVISED_OVERHEAD_TARGET_QUICK = 0.50


def _ops_per_sec(
    fn: Callable[[], object],
    *,
    min_time: float,
    min_reps: int = 3,
    passes: int = 2,
) -> tuple[float, int]:
    """Best rate over ``passes`` timed windows of ``min_time`` seconds.

    One untimed warm-up call runs first so one-time costs (stamp
    compilation, operating-point caches) are amortized identically for
    both engine modes.  Taking the best of several windows filters
    scheduler/thermal noise the same way ``timeit`` recommends.
    """
    fn()
    best_rate = 0.0
    best_reps = 0
    for _ in range(passes):
        reps = 0
        start = time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time and reps >= min_reps:
                break
        rate = reps / elapsed
        if rate > best_rate:
            best_rate = rate
            best_reps = reps
    return best_rate, best_reps


def _opamp_fixture():
    """A realistically sized op-amp open-loop bench plus its OP."""
    from ..opamp import OpAmpSpec, design_opamp
    from ..opamp.benches import open_loop_bench
    from ..spice import System, dc_operating_point
    from ..technology import generic_05um

    tech = generic_05um()
    amp = design_opamp(
        tech, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    )
    bench = open_loop_bench(amp, v_diff=0.0)
    system = System(bench)
    op = dc_operating_point(bench, system=system)
    return bench, system, op


def _transient_fixture():
    """An RC + switching-source circuit for time-domain stepping."""
    from ..spice import Circuit, PulseWave

    ckt = Circuit("bench-tran")
    ckt.v(
        "in", "0", dc=0.0,
        wave=PulseWave(v1=0.0, v2=1.0, delay=1e-7, rise=1e-8,
                      fall=1e-8, width=5e-7, period=1e-6),
    )
    ckt.r("in", "mid", 1e3)
    ckt.c("mid", "0", 10e-12)
    ckt.r("mid", "out", 5e3)
    ckt.c("out", "0", 2e-12)
    ckt.ind("out", "tail", 1e-6)
    ckt.r("tail", "0", 50.0)
    return ckt


def _anneal_fixture():
    """``coarse_design_opamp`` template + annealer-style sizing problem.

    Returns ``(problem, params_list)`` where the params cycle through a
    few perturbed candidates, exactly like the annealer's inner loop.
    """
    from ..opamp import OpAmpSpec, coarse_design_opamp
    from ..synthesis.problems import OpAmpSizingProblem, ape_ranges
    from ..technology import generic_05um

    tech = generic_05um()
    template, _ = coarse_design_opamp(
        tech, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    )
    problem = OpAmpSizingProblem(template, ape_ranges(template))
    # From-scratch reference: no shared system, template warm start,
    # in-place bench or warm-started bisections.
    baseline = OpAmpSizingProblem(
        template, ape_ranges(template), reuse_state=False
    )
    base = template.initial_point()
    params_list = []
    for scale in (1.0, 0.95, 1.05, 0.9):
        params_list.append(
            {key: value * scale for key, value in base.items()}
        )
    return problem, baseline, params_list


def _lint_gate_fixture():
    """Structurally broken candidates: lint-gated vs ungated evaluation.

    The bench factory AC-couples a mirror-load gate, so every candidate
    is structurally singular (E101 floating gate).  The gated problem
    rejects each candidate from the cached structural lint verdict —
    a dictionary lookup — while the ungated baseline pays a full DC
    solve + AWE attempt per candidate, which is exactly the cost the
    electrical rule checker exists to avoid.
    """
    from dataclasses import replace as dc_replace

    from ..opamp import OpAmpSpec, coarse_design_opamp
    from ..opamp.benches import open_loop_bench
    from ..spice.netlist import Circuit, Mosfet
    from ..synthesis.problems import OpAmpSizingProblem, ape_ranges
    from ..technology import generic_05um

    tech = generic_05um()
    template, _ = coarse_design_opamp(
        tech, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)
    )

    def broken_bench(amp, v_diff=0.0):
        bench = open_loop_bench(amp, v_diff=v_diff)
        mosfets = [e for e in bench if isinstance(e, Mosfet)]
        target = next(
            (m for m in mosfets if m.name.endswith("DFML2")), mosfets[-1]
        )
        floated = dc_replace(target, ng=target.ng + "_float")
        rebuilt = Circuit(bench.title)
        for element in bench:
            rebuilt.add(
                floated if element.name == target.name else element
            )
        rebuilt.c(target.ng, floated.ng, 1e-12, name="CACGATE")
        return rebuilt

    gated = OpAmpSizingProblem(
        template, ape_ranges(template), bench_factory=broken_bench
    )
    ungated = OpAmpSizingProblem(
        template, ape_ranges(template), bench_factory=broken_bench,
        lint=False,
    )
    base = template.initial_point()
    params_list = [
        {key: value * scale for key, value in base.items()}
        for scale in (1.0, 0.95, 1.05, 0.9)
    ]
    return gated, ungated, params_list


def run_engine_benchmark(
    *, quick: bool = False, min_time: float | None = None
) -> BenchReport:
    """A/B benchmark of the compiled engine against naive assembly.

    Measures ops/sec for each workload in both engine modes within one
    process and returns a validated :class:`BenchReport`.  ``quick``
    shortens the per-measurement time floor for CI smoke runs;
    ``min_time`` overrides it outright.
    """
    from ..spice import naive_assembly
    from ..spice.ac import ac_analysis, log_frequencies
    from ..spice.dc import dc_operating_point
    from ..spice.transient import transient_analysis

    if min_time is None:
        min_time = 0.2 if quick else 0.75

    bench, system, op = _opamp_fixture()
    freqs = log_frequencies(1.0, 1e9, 5 if quick else 10)
    tran_ckt = _transient_fixture()
    t_stop, dt = (1e-6, 1e-8) if quick else (2e-6, 1e-8)
    problem, baseline_problem, params_list = _anneal_fixture()
    gated_problem, ungated_problem, lint_params = _lint_gate_fixture()

    def run_op():
        return dc_operating_point(bench, system=system)

    def run_ac():
        return ac_analysis(bench, op=op, frequencies=freqs)

    def run_tran():
        return transient_analysis(tran_ckt, t_stop, dt)

    def eval_with(prob, candidates=None):
        # Evaluate the full candidate set so every rep does identical
        # work (candidates differ in how many bisections they need).
        batch = params_list if candidates is None else candidates

        def run_eval():
            return [prob.evaluate(params) for params in batch]

        return run_eval

    # Each workload: (current fast path, pre-PR baseline path,
    # naive_baseline).  The first three differ only in the assembly
    # engine; the annealer baseline additionally re-creates the MNA
    # system and cold-starts every bisection, as the pre-PR evaluation
    # loop did.  ``lint_gate`` compares the ERC pre-screen against
    # solving the same structurally broken candidates; both sides use
    # the compiled engine (naive_baseline=False) so the measured
    # speedup is the gate's alone.
    workloads = {
        "op": (run_op, run_op, True),
        "ac_sweep": (run_ac, run_ac, True),
        "transient": (run_tran, run_tran, True),
        "anneal_eval": (
            eval_with(problem), eval_with(baseline_problem), True,
        ),
        "lint_gate": (
            eval_with(gated_problem, lint_params),
            eval_with(ungated_problem, lint_params),
            False,
        ),
    }
    measures: dict[str, BenchMeasure] = {}
    for name, (fast_fn, base_fn, naive_baseline) in workloads.items():
        # Naive first so the compiled pass cannot inherit a warm cache
        # the baseline did not also enjoy (both get their own warm-up).
        if naive_baseline:
            with naive_assembly():
                naive_rate, naive_reps = _ops_per_sec(
                    base_fn, min_time=min_time
                )
        else:
            naive_rate, naive_reps = _ops_per_sec(base_fn, min_time=min_time)
        compiled_rate, compiled_reps = _ops_per_sec(fast_fn, min_time=min_time)
        measures[name] = BenchMeasure(
            name=name,
            value=compiled_rate,
            baseline=naive_rate,
            ratio=compiled_rate / naive_rate,
            unit="ops/s",
            detail={"reps": {"compiled": compiled_reps, "naive": naive_reps}},
        )
    return BenchReport(
        suite="engine",
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        quick=quick,
        baseline=(
            "naive per-element assembly; anneal_eval additionally "
            "rebuilds the MNA system and cold-starts each bisection "
            "(pre-compiled-engine evaluation path); lint_gate's "
            "baseline instead solves structurally broken candidates "
            "the ERC would have rejected (compiled engine both sides)"
        ),
        measures=measures,
        targets=tuple(
            BenchTarget(name, "floor", floor)
            for name, floor in SPEEDUP_TARGETS.items()
        ),
        context={"min_time_per_measurement_s": min_time},
    )


def run_parallel_benchmark(
    *,
    quick: bool = False,
    restarts: int = 4,
    workers: int = 4,
    seed: int = 1,
    max_evaluations: int | None = None,
) -> BenchReport:
    """A/B benchmark of the multi-chain executor against serial legs.

    The workload is the Table-3 OpAmp1 synthesis leg (Wilson tail,
    CMOS diff pair, output buffer, 1 kOhm load).  The baseline runs
    ``restarts`` sequential serial ``synthesize_opamp`` calls (no
    memo) seeded with the same per-chain seeds the executor derives.
    The contender is one ``synthesize_opamp(restarts=..., workers=...)``
    call: same chains, same seeds, same budget and evaluation profile,
    fanned across the pool with a shared
    :class:`~repro.parallel.EvalMemo`.  Both sides run in this
    process/pool with identical warm-up, so the reported speedup is a
    like-for-like A/B of the pool and the memo, not of the hardware.

    A third *supervised* leg repeats the parallel run with the full
    supervision stack armed — heartbeat watchdog, write-ahead run
    journal (in a temporary directory), per-chain memo snapshots — and
    reports its overhead over the bare parallel run, checked against
    :data:`SUPERVISED_OVERHEAD_TARGET`.
    """
    import os
    import tempfile

    from ..opamp import OpAmpSpec, OpAmpTopology
    from ..parallel import derive_chain_seed, effective_workers, usable_cpu_count
    from ..runtime.diagnostics import DiagnosticLog
    from ..runtime.supervisor import SupervisorConfig
    from ..synthesis import synthesize_opamp
    from ..technology import generic_05um

    # Full mode uses the engine's default per-leg budget; the annealer's
    # late phase revisits (and bound-clamps onto) previously seen points,
    # so both the memo hit rate and the baseline's balancing cost grow
    # with leg length — quick mode is a smoke run, not a target check.
    if max_evaluations is None:
        max_evaluations = 60 if quick else 250

    tech = generic_05um()
    spec = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12)
    topology = OpAmpTopology(
        current_source="wilson", output_buffer=True, z_load=1e3
    )
    log = DiagnosticLog(mirror=False)

    def serial_leg(chain_index: int, budget: int):
        # One chain on the serial path (memo=False pins the cache off
        # even for shared-log runs).
        return synthesize_opamp(
            tech, spec, topology, mode="ape",
            max_evaluations=budget,
            seed=derive_chain_seed(seed, chain_index),
            name="OpAmp1", memo=False, diagnostics=log,
        )

    # One short untimed leg warms process-wide one-time costs (imports,
    # stamp compilation, technology tables) for both sides alike, and a
    # journaled one does the same for the supervised leg (journal
    # module, tempdir machinery, first fsync on this filesystem, the
    # full-size memo snapshot).  The supervised warm-up must match the
    # timed workload in full mode: the first full-size journaled run
    # pays one-time allocation costs a toy warm-up does not reach, and
    # with a 5 % ceiling that residue alone would fail the check.
    serial_leg(0, 8)
    with tempfile.TemporaryDirectory() as scratch:
        synthesize_opamp(
            tech, spec, topology, mode="ape",
            max_evaluations=8 if quick else max_evaluations,
            seed=seed, name="OpAmp1",
            restarts=2 if quick else restarts, workers=workers,
            diagnostics=log, run_dir=os.path.join(scratch, "warm"),
            supervisor=SupervisorConfig(
                heartbeat_timeout_seconds=30.0,
                install_signal_handlers=False,
            ),
        )

    # Both sides are deterministic, so repeated passes redo identical
    # work; interleaving them and keeping the per-side minimum strips
    # out background-load noise without biasing the A/B ratio.
    repeats = 1 if quick else 3
    serial_seconds = math.inf
    parallel_seconds = math.inf
    supervised_seconds = math.inf
    supervisor = SupervisorConfig(
        heartbeat_timeout_seconds=30.0, install_signal_handlers=False
    )
    for _ in range(repeats):
        start = time.perf_counter()
        serial_results = [
            serial_leg(index, max_evaluations) for index in range(restarts)
        ]
        serial_seconds = min(
            serial_seconds, time.perf_counter() - start
        )

        start = time.perf_counter()
        parallel_result = synthesize_opamp(
            tech, spec, topology, mode="ape",
            max_evaluations=max_evaluations, seed=seed, name="OpAmp1",
            restarts=restarts, workers=workers, diagnostics=log,
        )
        parallel_seconds = min(
            parallel_seconds, time.perf_counter() - start
        )

        # Supervised leg: same workload with the watchdog and the
        # write-ahead journal armed (journal I/O included in the cost).
        with tempfile.TemporaryDirectory() as scratch:
            start = time.perf_counter()
            supervised_result = synthesize_opamp(
                tech, spec, topology, mode="ape",
                max_evaluations=max_evaluations, seed=seed, name="OpAmp1",
                restarts=restarts, workers=workers, diagnostics=log,
                run_dir=os.path.join(scratch, "run"),
                supervisor=supervisor,
            )
            supervised_seconds = min(
                supervised_seconds, time.perf_counter() - start
            )

    serial_evals = sum(r.evaluations for r in serial_results)
    speedup = serial_seconds / parallel_seconds
    supervised_overhead = supervised_seconds / parallel_seconds - 1.0
    overhead_target = (
        SUPERVISED_OVERHEAD_TARGET_QUICK if quick
        else SUPERVISED_OVERHEAD_TARGET
    )
    lookups = parallel_result.cache_hits + parallel_result.cache_misses
    measures = {
        "synth_parallel": BenchMeasure(
            name="synth_parallel",
            value=parallel_seconds,
            baseline=serial_seconds,
            ratio=speedup,
            unit="s",
            detail={
                "serial_evaluations": serial_evals,
                "serial_evals_per_sec": serial_evals / serial_seconds,
                "serial_best_cost": min(
                    r.best_cost for r in serial_results
                ),
                "parallel_evaluations": parallel_result.evaluations,
                "parallel_evals_per_sec": parallel_result.evals_per_second,
                "parallel_best_cost": parallel_result.best_cost,
                "cache_hits": parallel_result.cache_hits,
                "cache_misses": parallel_result.cache_misses,
                "cache_hit_rate": (
                    parallel_result.cache_hits / lookups if lookups else 0.0
                ),
                "chain_best_costs": [
                    chain.best_cost for chain in parallel_result.chains
                ],
            },
        ),
        "supervised_overhead": BenchMeasure(
            name="supervised_overhead",
            value=supervised_seconds,
            baseline=parallel_seconds,
            ratio=supervised_overhead,
            unit="s",
            detail={
                "best_cost": supervised_result.best_cost,
                "best_cost_matches_parallel": (
                    supervised_result.best_cost == parallel_result.best_cost
                ),
                "worker_restarts": supervised_result.worker_restarts,
                "heartbeat_timeout_seconds": (
                    supervisor.heartbeat_timeout_seconds
                ),
            },
        ),
    }
    return BenchReport(
        suite="parallel",
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        quick=quick,
        baseline=(
            f"{restarts} sequential single-chain synthesize_opamp legs "
            "(serial path: no memo), same per-chain seeds and evaluation "
            "budget"
        ),
        measures=measures,
        targets=(
            BenchTarget(
                "synth_parallel", "floor",
                PARALLEL_SPEEDUP_TARGETS["synth_parallel"],
            ),
            BenchTarget("supervised_overhead", "ceiling", overhead_target),
        ),
        context={
            "workload": {
                "name": "synth_parallel",
                "description": (
                    "Table-3 OpAmp1 APE-mode leg: "
                    f"{restarts} restarts x {max_evaluations} evaluations"
                ),
                "restarts": restarts,
                "max_evaluations_per_chain": max_evaluations,
                "seed": seed,
            },
            "cpu_count": usable_cpu_count(),
            "workers_requested": workers,
            "workers_effective": effective_workers(workers, restarts),
        },
    )


def render_parallel_report(report: BenchReport) -> str:
    """Human-readable summary of a :func:`run_parallel_benchmark` report."""
    par = report.measures["synth_parallel"]
    sup = report.measures["supervised_overhead"]
    targets = {t.measure: t for t in report.targets}
    met = report.target_results()
    context = report.context
    return "\n".join([
        f"parallel synthesis benchmark "
        f"({'quick' if report.quick else 'full'})",
        f"workload: {context['workload']['description']}",
        f"workers: {context['workers_effective']} effective of "
        f"{context['workers_requested']} requested "
        f"({context['cpu_count']} usable CPU(s))",
        f"serial:   {par.baseline:8.2f} s  "
        f"{par.detail['serial_evals_per_sec']:7.1f} evals/s  "
        f"best cost {par.detail['serial_best_cost']:.6g}",
        f"parallel: {par.value:8.2f} s  "
        f"{par.detail['parallel_evals_per_sec']:7.1f} evals/s  "
        f"best cost {par.detail['parallel_best_cost']:.6g}",
        f"cache: {par.detail['cache_hits']} hits / "
        f"{par.detail['cache_misses']} misses "
        f"(hit rate {par.detail['cache_hit_rate']:.1%})",
        f"speedup: {par.ratio:.2f}x  "
        f"(target {targets['synth_parallel'].value:.1f}x: "
        f"{'ok' if met['synth_parallel'] else 'MISSED'})",
        f"supervised: {sup.value:8.2f} s  "
        f"overhead {sup.ratio:+.1%}  "
        f"(ceiling {targets['supervised_overhead'].value:.0%}: "
        f"{'ok' if met['supervised_overhead'] else 'MISSED'})",
    ])


def render_report(report: BenchReport) -> str:
    """Human-readable table for a :func:`run_engine_benchmark` report."""
    lines = [
        f"engine hot-path benchmark ({'quick' if report.quick else 'full'})",
        f"{'workload':<12} {'compiled/s':>12} {'naive/s':>12} {'speedup':>9}",
    ]
    targets = {t.measure: t.value for t in report.targets}
    for name, row in report.measures.items():
        target = targets.get(name)
        mark = ""
        if target is not None:
            mark = (
                f"  (target {target:.1f}x: "
                f"{'ok' if row.ratio >= target else 'MISSED'})"
            )
        lines.append(
            f"{name:<12} {row.value:>12.2f} "
            f"{row.baseline:>12.2f} "
            f"{row.ratio:>8.2f}x{mark}"
        )
    return "\n".join(lines)
