"""Persistent-store benchmark: warm re-runs and APE-screened moves.

Two A/B legs justify the cross-run evaluation store and the move
screen that ranks annealer proposals by the APE equations:

* **Warm re-run speed** — the Table-3 OpAmp1 workload is synthesized
  twice into one ``store_dir``.  The cold run pays every Newton solve
  and persists each candidate's cost; the warm run replays the same
  deterministic trajectory but serves every evaluation from the store.
  The measure is the cold/warm wall-time ratio, and the two runs must
  agree on the best cost bit-for-bit (cache hits may only change
  speed, never results).
* **Screened evaluations-to-target** — for each benchmark seed the
  same problem is run twice into one store: ``surrogate="off"`` and
  ``surrogate="rank"``, which draws four proposals per move, ranks
  them by the cost of their APE closed-form estimates and spends a
  full evaluation only on the best-ranked one.  The measure is
  evaluations-to-target: how many *full* evaluations each leg needs
  before its running best cost reaches the worse of the two final
  costs, summed over seeds.  Evaluations are counted, not timed, so
  the measure is deterministic.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

from .analysis import _evals_to_target
from .report import BenchMeasure, BenchReport, BenchTarget

__all__ = [
    "STORE_TARGETS",
    "STORE_TARGETS_QUICK",
    "render_store_report",
    "run_store_benchmark",
]

#: A warm store-backed re-run must be at least 3x faster than the cold
#: run that filled the store; APE-screened moves must reach the common
#: cost target in at least 1.3x fewer full evaluations than the
#: unscreened annealer, aggregated over the benchmark seeds.
STORE_TARGETS = {
    "warm_synth": 3.0,
    "surrogate_evals": 1.3,
}

#: Quick (CI smoke) floors: tiny budgets leave the warm run dominated
#: by fixed per-run costs and the screen few moves to rank, so the
#: quick targets only assert "no slower / no more evaluations".
STORE_TARGETS_QUICK = {
    "warm_synth": 1.0,
    "surrogate_evals": 1.0,
}


def _full_history(result) -> list[float]:
    """Every full evaluation of a run, chains concatenated in order."""
    if not result.chains:
        return [result.best_cost]
    history: list[float] = []
    for chain in result.chains:
        history.extend(chain.history)
    return history


def run_store_benchmark(
    *,
    quick: bool = False,
    seed: int = 1,
    max_evaluations: int | None = None,
    warm_repeats: int = 3,
) -> BenchReport:
    """A/B the persistent store and the APE move screen vs baselines."""
    from ..opamp import OpAmpSpec, OpAmpTopology
    from ..runtime.diagnostics import DiagnosticLog
    from ..synthesis import synthesize_opamp
    from ..technology import generic_05um

    if max_evaluations is None:
        max_evaluations = 40 if quick else 250
    restarts = 2

    tech = generic_05um()
    # The Table-3 OpAmp1 workload (same spec/topology as the parallel
    # suite) keeps the committed BENCH_* reports comparable.
    spec = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12)
    topology = OpAmpTopology(
        current_source="wilson", output_buffer=True, z_load=1e3
    )

    def leg(**overrides):
        common = dict(
            mode="ape", max_evaluations=max_evaluations, seed=seed,
            name="OpAmp1", tolerant=True, restarts=restarts,
            # One effective worker runs the chains in-process: the
            # timed legs then compare evaluation paths, not pool
            # spawn/teardown.
            workers=1,
            diagnostics=DiagnosticLog(mirror=False),
        )
        common.update(overrides)
        return synthesize_opamp(tech, spec, topology, **common)

    # Warm process-wide one-time costs (imports, stamp compilation,
    # technology tables, sqlite module) outside the timed region.
    with tempfile.TemporaryDirectory() as scratch:
        leg(max_evaluations=8, store_dir=os.path.join(scratch, "warmup"))

    # ---- leg 1: cold vs warm run into one store ---------------------
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = os.path.join(scratch, "ab")
        start = time.perf_counter()
        cold = leg(store_dir=store_dir)
        cold_seconds = time.perf_counter() - start

        warm_seconds = math.inf
        warm = None
        for _ in range(warm_repeats):
            start = time.perf_counter()
            warm = leg(store_dir=store_dir)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert warm is not None
        if warm.best_cost != cold.best_cost:
            raise AssertionError(
                "warm store-backed run changed the best cost: "
                f"{warm.best_cost!r} != {cold.best_cost!r}"
            )

        # ---- leg 2: unscreened vs APE-screened moves ---------------
        surr_dir = os.path.join(scratch, "surrogate")
        seeds = tuple(range(seed, seed + 3))
        off_evals = 0
        rank_evals = 0
        per_seed: list[dict] = []
        off_seconds = 0.0
        rank_seconds = 0.0
        skips = 0
        for leg_seed in seeds:
            start = time.perf_counter()
            off = leg(store_dir=surr_dir, seed=leg_seed, surrogate="off")
            off_seconds += time.perf_counter() - start
            start = time.perf_counter()
            rank = leg(store_dir=surr_dir, seed=leg_seed, surrogate="rank")
            rank_seconds += time.perf_counter() - start
            target_cost = max(off.best_cost, rank.best_cost)
            seed_off = _evals_to_target(_full_history(off), target_cost)
            seed_rank = _evals_to_target(_full_history(rank), target_cost)
            off_evals += seed_off
            rank_evals += seed_rank
            skips += rank.surrogate_skips
            per_seed.append({
                "seed": leg_seed,
                "target_cost": target_cost,
                "off_evals_to_target": seed_off,
                "rank_evals_to_target": seed_rank,
                "off_best_cost": off.best_cost,
                "rank_best_cost": rank.best_cost,
                "surrogate_skips": rank.surrogate_skips,
            })

    measures = {
        "warm_synth": BenchMeasure(
            name="warm_synth",
            value=warm_seconds,
            baseline=cold_seconds,
            ratio=(
                cold_seconds / warm_seconds if warm_seconds > 0
                else float("inf")
            ),
            unit="s",
            detail={
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "warm_repeats": warm_repeats,
                "cold_store_writes": cold.store_writes,
                "warm_store_hits": warm.store_hits,
                "warm_store_writes": warm.store_writes,
                "best_cost": cold.best_cost,
                "best_cost_identical": warm.best_cost == cold.best_cost,
                "evaluations_per_run": cold.evaluations,
            },
        ),
        "surrogate_evals": BenchMeasure(
            name="surrogate_evals",
            value=float(rank_evals),
            baseline=float(off_evals),
            ratio=(off_evals / rank_evals) if rank_evals else float("inf"),
            unit="evaluations",
            detail={
                "seeds": list(seeds),
                "per_seed": per_seed,
                "off_evals_to_target": off_evals,
                "rank_evals_to_target": rank_evals,
                "off_seconds": off_seconds,
                "rank_seconds": rank_seconds,
                "surrogate_skips": skips,
            },
        ),
    }
    targets = STORE_TARGETS_QUICK if quick else STORE_TARGETS
    return BenchReport(
        suite="store",
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        quick=quick,
        baseline=(
            "cold store-backed run (leg 1) and surrogate='off' legs "
            "(leg 2); same seeds, budget, topology and box throughout"
        ),
        measures=measures,
        targets=tuple(
            BenchTarget(name, "floor", floor)
            for name, floor in targets.items()
        ),
        context={
            "workload": {
                "name": "table3_opamp1_store",
                "description": (
                    "Table-3 OpAmp1 (gain 206, UGF 1.3 MHz, wilson "
                    "source, buffered 1k load), "
                    f"{restarts}x{max_evaluations} evaluations per "
                    f"run, seeds {seeds[0]}-{seeds[-1]}"
                ),
                "max_evaluations_per_chain": max_evaluations,
                "restarts": restarts,
                "seeds": list(seeds),
                "warm_repeats": warm_repeats,
            },
        },
    )


def render_store_report(report: BenchReport) -> str:
    """Human-readable summary of a :func:`run_store_benchmark` report."""
    met = report.target_results()
    targets = {t.measure: t for t in report.targets}
    warm = report.measures["warm_synth"]
    surr = report.measures["surrogate_evals"]
    lines = [
        f"store benchmark ({'quick' if report.quick else 'full'})",
        f"workload: {report.context['workload']['description']}",
        f"warm re-run: {warm.value:.3f} s vs cold {warm.baseline:.3f} s "
        f"({warm.detail['warm_store_hits']} store hits, best cost "
        f"identical: {warm.detail['best_cost_identical']})",
        f"  speedup {warm.ratio:.2f}x  (target "
        f"{targets['warm_synth'].value:.1f}x: "
        f"{'ok' if met['warm_synth'] else 'MISSED'})",
        f"surrogate rank: {surr.detail['rank_evals_to_target']} evals "
        f"to target vs {surr.detail['off_evals_to_target']} off "
        f"({surr.detail['surrogate_skips']} proposals skipped)",
        f"  ratio {surr.ratio:.2f}x  (target "
        f"{targets['surrogate_evals'].value:.1f}x: "
        f"{'ok' if met['surrogate_evals'] else 'MISSED'})",
    ]
    return "\n".join(lines)
