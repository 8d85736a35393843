"""One benchmark pass: a fresh process that runs rounds of one workload.

``run.py`` starts this script several times per run, so no process-level
warmth (imports, the executor's worker caches, open stores) leaks from
one pass into the next::

    python perfbench/workloads.py WORKLOAD SEED WORKDIR [--pass-index I] \\
        [--seconds T] [--min-rounds N] [--trace-dir DIR]

The pass sets up (imports, technology, fixtures), then runs rounds of
operations: at least ``N`` (default 1), then more while the next one is
expected to end within ``T`` seconds of the process start.  Round ``R``
draws its inputs from ``(WORKLOAD, SEED, I, R)`` alone, so the same
arguments give the same operations, and no two rounds repeat one.
Every operation gets fresh run, store and service data directories
under ``WORKDIR``; the serial synthesis path keeps no state between
calls, so a later round in the same process is as cold as the first.
The pass writes ``WORKDIR/pass.json``: every timed operation, the
correctness tallies, the host record and, when traced, the per-layer
split.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

#: Paper Table 1 (left side): name, gain, UGF [Hz], area [m^2], Ibias [A],
#: tail current source, output buffer, load impedance [ohm].  Copied here
#: so the workload stays fixed whatever happens to the repository's own
#: table fixtures.
TABLE1 = (
    ("oa0", 200, 1.3e6, 5000e-12, 1.0e-6, "wilson", True, 1e3),
    ("oa1", 70, 3.0e6, 3000e-12, 2.0e-6, "wilson", True, 1e3),
    ("oa2", 100, 2.5e6, 2000e-12, 1.5e-6, "wilson", True, 2e3),
    ("oa3", 250, 8.0e6, 1000e-12, 1.0e-6, "mirror", False, math.inf),
    ("oa4", 150, 3.0e6, 1000e-12, 100e-6, "mirror", False, math.inf),
    ("oa5", 200, 8.0e6, 5000e-12, 10e-6, "mirror", False, math.inf),
    ("oa6", 50, 10.0e6, 200e-12, 10e-6, "mirror", False, math.inf),
    ("oa7", 200, 3.0e6, 6000e-12, 1.0e-6, "mirror", True, 1e3),
    ("oa8", 100, 2.0e6, 1000e-12, 1.0e-6, "mirror", True, 10e3),
    ("oa9", 200, 5.0e6, 5000e-12, 10e-6, "mirror", True, 10e3),
)
#: Paper Table 3's OpAmp1 (no area budget).
OPAMP1 = ("OpAmp1", 206, 1.3e6, math.inf, 1.0e-6, "wilson", True, 1e3)

#: Annealing evaluations per Table-4 row.  The repository's own
#: Table-4 bench spends 150; a round of all ten rows at 40 takes about
#: two seconds, so a run covers each row with a dozen seeds, which keeps
#: the run's medians and its mean cost steady from one seed to the next.
#: The four unbuffered rows still balance every candidate.
TABLE4_BUDGET = 40
ROBUST_REQUESTS = 4
ROBUST_BUDGET = 50
MULTICHAIN_REQUESTS = 3
MULTICHAIN_RESTARTS = 4
MULTICHAIN_WORKERS = 2
MULTICHAIN_BUDGET = 100
#: APE sizing takes about a millisecond: it is timed back to back this
#: many times per round.
DESIGN_REPEATS = 3

now = time.perf_counter

#: Seconds ``reference_kernel`` takes on the reference host when nothing
#: else slows it.  Every timed operation records ``calibrate()`` measured
#: around it, and ``run.py`` reports its time at this speed.  The shared
#: reference host runs a CPU-bound loop up to 2x slower for anything
#: from milliseconds to over a minute (no steal time shows it); no statistic
#: of the operation's own times sees past a slow spell that spans the
#: whole run, the kernel's time beside it can.
CAL_REF_S = 1.16e-3
CAL_REPEATS = 3


def reference_kernel() -> float:
    """A fixed mix like the program's own: interpreted float math and
    dict traffic, then small dense solves.  Never change it: its time
    is the unit every other time is measured in."""
    import numpy

    acc = 0.0
    table: dict[int, float] = {}
    for i in range(3000):
        x = i * 0.001
        acc += math.exp(-x) * math.sin(x) + x * x
        table[i & 63] = acc
    a = numpy.eye(12) * 4.0 + 0.1
    b = numpy.ones(12)
    for _ in range(60):
        b = numpy.linalg.solve(a, b) + 1.0
    return acc + float(b[0])


def calibrate(repeats: int = CAL_REPEATS) -> float:
    """Mean seconds of ``repeats`` back-to-back kernel runs.

    The mean, not the fastest: outside load comes in bursts as short as
    milliseconds, which the fastest run slips between and the operation
    beside it does not."""
    t0 = now()
    for _ in range(repeats):
        reference_kernel()
    return (now() - t0) / repeats


def calibrate_cpus() -> float:
    """Geometric mean of ``calibrate()`` on each usable CPU in turn: the
    kernel time for work spread over all of them, as a pool's is."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return math.exp(statistics.fmean(math.log(t) for t in times))


def round_rng(workload: str, seed: int, pass_index: int,
              round_index: int) -> random.Random:
    """One round's input generator: a pure function of its arguments."""
    return random.Random(f"{workload}/{seed}/{pass_index}/{round_index}")


def draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def spec_and_topology(row):
    from repro.opamp import OpAmpSpec, OpAmpTopology

    name, gain, ugf, area, ibias, source, buffered, z_load = row
    spec = OpAmpSpec(gain=gain, ugf=ugf, area=area, ibias=ibias, cl=10e-12)
    topology = OpAmpTopology(
        current_source=source,
        diff_pair="cmos",
        output_buffer=buffered,
        z_load=z_load,
    )
    return spec, topology


def result_summary(result) -> dict:
    """The counters a synthesis result carries, for the per-layer split."""
    return {
        "restarts": result.restarts,
        "workers": result.workers,
        "run_dir": result.run_dir,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "store_hits": result.store_hits,
        "screened_candidates": result.screened_candidates,
    }


def host_record() -> dict:
    import numpy
    import scipy

    from repro.parallel import usable_cpu_count
    from repro.spice import solver_mode

    return {
        "usable_cpus": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "solver_mode": solver_mode(),
        "machine": platform.machine(),
    }


class Pass:
    """Timed samples and correctness tallies of one pass."""

    def __init__(self) -> None:
        self.ready: float | None = None
        self.setup_cal: float | None = None
        self.setups: list[tuple[float, float]] = []
        self.rounds = 0
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.results: list[dict] = []
        self.windows: list[tuple[float, float]] = []
        self.workers: set[int] = set()
        self.host: dict = {}
        self.layers: dict[str, float] = {}

    def start(self) -> None:
        """Mark the end of set-up: the first timed operation follows."""
        self.ready = now()
        self.setup_cal = calibrate()

    @contextlib.contextmanager
    def guard(self, label: str):
        """Count an operation that raises as a failed operation."""
        try:
            yield
        except Exception as exc:
            traceback.print_exc()
            self.check(False, f"{label}: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def op(self, key, kind, t0, t1, *, cal, evals=0, eval_seconds=None,
           meets=None, cost=None) -> None:
        """Record one timed operation of the current round.

        ``kind`` is ``synth`` (a synthesis request) or ``fast`` (an answer
        without a new search).  ``cal`` is the kernel's time around the
        operation.  ``eval_seconds`` is the time its ``evals`` candidate
        evaluations count against (default: the operation's duration).
        """
        self.windows.append((t0, t1))
        self.ops.append({
            "key": key,
            "round": self.rounds,
            "kind": kind,
            "cal": cal,
            "seconds": t1 - t0,
            "evals": evals,
            "eval_seconds": t1 - t0 if eval_seconds is None else eval_seconds,
            "meets": meets,
            "cost": cost,
        })

    def synthesis(self, key, kind, result, t0, t1, *, cal, evals,
                  problems=()):
        """Record one ``synthesize_opamp`` call and check its result.

        ``problems`` are extra ``(failed, why)`` checks of the caller.
        """
        self.op(
            key, kind, t0, t1, cal=cal, evals=result.evaluations,
            meets=bool(result.meets_spec), cost=float(result.best_cost),
        )
        self.results.append(result_summary(result))
        self.workers.add(result.workers)
        why = [
            text for bad, text in (
                (result.evaluations != evals,
                 f"{result.evaluations} evaluations, expected {evals}"),
                (result.degraded, "degraded result"),
                (result.interrupted, "interrupted run"),
                *problems,
            ) if bad
        ]
        return self.check(not why, f"{key}: {'; '.join(why)}")

    def to_json(self) -> dict:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "ready": self.ready,
            "setup_cal": self.setup_cal,
            "setups": self.setups,
            "rounds": self.rounds,
            "ops": self.ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "wall_s": sum(end - start for start, end in self.windows),
            "workers": sorted(self.workers),
            "peak_rss_kb": usage,
            "host": self.host,
            "layers": self.layers,
        }


def timed_design(p: Pass, tech, row, key) -> None:
    """APE's analytic sizing of ``row``: the answer given without search.

    One sizing takes about a millisecond, so it is timed as
    ``DESIGN_REPEATS`` back-to-back calls, each one operation.
    """
    import repro.opamp

    spec, topology = spec_and_topology(row)
    with p.guard(key):
        before = calibrate()
        windows = []
        for _ in range(DESIGN_REPEATS):
            t0 = now()
            amp = repro.opamp.design_opamp(tech, spec, topology, name=row[0])
            windows.append((t0, now()))
        cal = (before + calibrate()) / 2
        for t0, t1 in windows:
            p.op(key, "fast", t0, t1, cal=cal)
        p.check(amp is not None, f"{key}: APE design returned nothing")


def table4_ape(p: Pass, inputs, workdir: Path):
    """All ten Table-1 rows, APE-initialized, on the serial default path.

    Each round runs every row once, with seeds from ``inputs(round)``.
    """
    from repro.synthesis import synthesize_opamp
    from repro.technology import generic_05um

    tech = generic_05um()
    rows = [(row, spec_and_topology(row)) for row in TABLE1]

    def run_round(index: int) -> None:
        rng = inputs(index)
        for row, (spec, topology) in rows:
            seed = draw_seed(rng)
            key = f"{row[0]}/round-{index}"
            timed_design(p, tech, row, f"{key}/ape")
            with p.guard(key):
                before = calibrate()
                t0 = now()
                result = synthesize_opamp(
                    tech, spec, topology, mode="ape",
                    max_evaluations=TABLE4_BUDGET, seed=seed, name=row[0],
                )
                t1 = now()
                p.synthesis(key, "synth", result, t0, t1,
                            cal=(before + calibrate()) / 2,
                            evals=TABLE4_BUDGET)

    return run_round


def robust_corners(p: Pass, inputs, workdir: Path):
    """Worst-case sizing of OpAmp1 over the tt/ss/ff corners.

    Each round makes ``ROBUST_REQUESTS`` requests, with seeds from
    ``inputs(round)``.
    """
    from repro.synthesis import synthesize_opamp
    from repro.synthesis.robust import RobustSpec
    from repro.technology import generic_05um

    tech = generic_05um()
    robust = RobustSpec(corners=("tt", "ss", "ff"), mode="worst")
    spec, topology = spec_and_topology(OPAMP1)

    def run_round(index: int) -> None:
        rng = inputs(index)
        for request in range(ROBUST_REQUESTS):
            seed = draw_seed(rng)
            key = f"round-{index}/request-{request}"
            timed_design(p, tech, OPAMP1, f"{key}/ape")
            with p.guard(key):
                before = calibrate()
                t0 = now()
                result = synthesize_opamp(
                    tech, spec, topology, mode="ape",
                    max_evaluations=ROBUST_BUDGET, seed=seed,
                    name=OPAMP1[0], robust=robust,
                )
                t1 = now()
                p.synthesis(
                    key, "synth", result, t0, t1,
                    cal=(before + calibrate()) / 2, evals=ROBUST_BUDGET,
                    problems=(
                        (result.robust_mode != "worst", "not a worst-case run"),
                        (result.corner_evals <= 0, "no corner evaluations"),
                    ),
                )

    return run_round


def multichain_store(p: Pass, inputs, workdir: Path):
    """Pooled four-chain OpAmp1 runs: a cold leg, then a warm re-run.

    Each round makes ``MULTICHAIN_REQUESTS`` requests, with seeds from
    ``inputs(round)``.  Both legs of a request journal into their own
    fresh run directory and share one fresh store: the cold leg writes
    it, the warm leg must reproduce the cold best cost and per-chain
    costs bit for bit without writing.
    """
    from repro.parallel import usable_cpu_count
    from repro.synthesis import synthesize_opamp
    from repro.technology import generic_05um

    tech = generic_05um()
    spec, topology = spec_and_topology(OPAMP1)
    cpus = usable_cpu_count()
    budget = MULTICHAIN_BUDGET * MULTICHAIN_RESTARTS

    # A pool clamped to one in-process worker would silently bypass the
    # cross-process path this workload exists to measure.
    def pooled(result):
        return (
            result.workers != MULTICHAIN_WORKERS,
            f"ran on {result.workers} worker(s) with {cpus} usable CPU(s)",
        )

    def leg(base, name, seed):
        """``(result, t0, t1, cal)`` of one leg."""
        before = calibrate_cpus()
        t0 = now()
        result = synthesize_opamp(
            tech, spec, topology, mode="ape",
            max_evaluations=MULTICHAIN_BUDGET, seed=seed,
            name=OPAMP1[0], restarts=MULTICHAIN_RESTARTS,
            workers=MULTICHAIN_WORKERS,
            run_dir=str(base / f"run-{name}"),
            store_dir=str(base / "store"),
        )
        t1 = now()
        return result, t0, t1, (before + calibrate_cpus()) / 2

    def run_round(index: int) -> None:
        rng = inputs(index)
        for request in range(MULTICHAIN_REQUESTS):
            seed = draw_seed(rng)
            key = f"round-{index}/request-{request}"
            base = workdir / key
            with p.guard(f"{key}/cold"):
                cold, t0, t1, cal = leg(base, "cold", seed)
                p.synthesis(
                    f"{key}/cold", "synth", cold, t0, t1, cal=cal,
                    evals=budget,
                    problems=(
                        pooled(cold),
                        (cold.store_writes <= 0, "cold leg wrote no store rows"),
                    ),
                )
                warm, t0, t1, cal = leg(base, "warm", seed)
                p.synthesis(
                    f"{key}/warm", "fast", warm, t0, t1, cal=cal,
                    evals=budget,
                    problems=(
                        pooled(warm),
                        (warm.best_cost != cold.best_cost,
                         f"warm best cost {warm.best_cost!r} "
                         f"!= cold {cold.best_cost!r}"),
                        ([c.best_cost for c in warm.chains]
                         != [c.best_cost for c in cold.chains],
                         "warm per-chain costs differ from the cold leg"),
                        (warm.store_writes != 0,
                         f"warm leg wrote {warm.store_writes} store rows"),
                    ),
                )
            shutil.rmtree(base, ignore_errors=True)

    return run_round


SYNTHESIS_WORKLOADS = {
    "table4_ape": table4_ape,
    "robust_corners": robust_corners,
    "multichain_store": multichain_store,
}


def run_rounds(p: Pass, run_round, deadline: float, min_rounds: int) -> None:
    """Run ``run_round(0)``, ``run_round(1)``, ...

    The first ``min_rounds`` always run; a later one starts only when a
    round of the mean length so far still ends before ``deadline``.
    """
    p.start()
    while True:
        run_round(p.rounds)
        p.rounds += 1
        elapsed = now() - p.ready
        if p.rounds >= min_rounds and now() + elapsed / p.rounds > deadline:
            return


def run_synthesis_pass(workload, inputs, workdir, deadline, min_rounds,
                       trace_dir) -> Pass:
    p = Pass()
    tracer = None
    if trace_dir is not None:
        from tracing import Tracer, instrument_synthesis

        tracer = Tracer(trace_dir)
        instrument_synthesis(tracer)
    run_round = SYNTHESIS_WORKLOADS[workload](p, inputs, workdir)
    run_rounds(p, run_round, deadline, min_rounds)
    p.host = host_record()
    if tracer is not None:
        from tracing import coverage, load_spans, synthesis_layers

        tracer.flush()
        spans, _counters = load_spans(trace_dir)
        p.layers = synthesis_layers(spans, p.results)
        p.layers["trace.coverage"] = coverage(spans, p.windows)
    return p


def main(argv=None) -> int:
    started = now()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    def inputs(round_index: int) -> random.Random:
        return round_rng(args.workload, args.seed, args.pass_index,
                         round_index)

    deadline = started + args.seconds
    if args.workload == "service_mix":
        from loadgen import run_service_pass

        p = run_service_pass(
            Pass(), inputs, args.workdir, deadline, args.min_rounds,
            args.trace_dir,
        )
    else:
        p = run_synthesis_pass(
            args.workload, inputs, args.workdir, deadline, args.min_rounds,
            args.trace_dir,
        )
    with open(args.workdir / "pass.json", "w", encoding="utf-8") as handle:
        json.dump(p.to_json(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
