"""Paper Table 4: ASTRX/OBLX with APE-generated initial points.

For every Table 1 specification, two legs run with the SAME annealing
schedule and evaluation budget:

* standalone — wide uninformed intervals (paper Table 1), and
* APE-initialized — the analytically sized circuit as the starting
  point with every interval at the APE value +/- 20 % (paper Table 4).

Reported per amp: achieved gain/UGF/area/power, CPU seconds and the
speed-up of the APE leg versus the standalone leg (the paper saw
13.8-71.7 % with one -33.9 % outlier).

Expected shape: every APE-initialized run meets its specification while
most standalone runs do not, and APE's own runtime is negligible.
"""

from __future__ import annotations

import pytest

from paper_tables import SYNTH_BUDGET, TABLE1, fmt
from repro.synthesis import synthesize_opamp


def _table4_row(tech, row, budget, seed):
    """Both legs of one Table-1 row.

    Like every run, each leg caches the candidates its chain revisits
    in a memo of its own (the legs anneal different boxes, so they are
    different problems).  Memo hits return the stored exact result, so
    the legs' metrics are those of an uncached run.
    """
    standalone = synthesize_opamp(
        tech, row.spec(), row.topology(),
        mode="standalone", max_evaluations=budget,
        seed=seed, name=row.name,
    )
    ape = synthesize_opamp(
        tech, row.spec(), row.topology(),
        mode="ape", max_evaluations=budget,
        seed=seed, name=row.name,
    )
    return row, standalone, ape


def run_table4(tech, budget: int = SYNTH_BUDGET, seed: int = 11):
    return [_table4_row(tech, row, budget, seed) for row in TABLE1]


@pytest.mark.benchmark(group="table4")
def test_table4_ape_initialized(benchmark, tech, show):
    results = benchmark.pedantic(
        lambda: run_table4(tech), rounds=1, iterations=1
    )
    header = (
        f"{'ckt':4s} {'gain':>8s} {'UGF MHz':>8s} {'area um2':>9s} "
        f"{'power mW':>9s} {'CPU s':>7s} {'speed-up':>9s}  comment"
    )
    lines = []
    ape_meets = 0
    standalone_meets = 0
    for row, standalone, ape in results:
        ape_meets += 1 if ape.meets_spec else 0
        standalone_meets += 1 if standalone.meets_spec else 0
        total_ape = ape.cpu_seconds + ape.ape_seconds
        speedup = (standalone.cpu_seconds - total_ape) / standalone.cpu_seconds
        lines.append(
            f"{row.name:4s} {fmt(ape.metric('gain'), 1, 1):>8s} "
            f"{fmt(ape.metric('ugf'), 1e-6, 2):>8s} "
            f"{fmt(ape.metric('gate_area'), 1e12, 1):>9s} "
            f"{fmt(ape.metric('dc_power'), 1e3, 2):>9s} "
            f"{total_ape:7.2f} {speedup * 100:8.1f}%  {ape.comment}"
        )
    show("Table 4: ASTRX/OBLX with APE initialization (+/-20% ranges)",
         header, lines)
    # The paper's central claim: APE-initialized synthesis succeeds
    # where standalone synthesis fails.
    assert ape_meets >= 8, f"APE leg met spec only {ape_meets}/10 times"
    assert ape_meets > standalone_meets, (
        f"no improvement: ape {ape_meets} vs standalone {standalone_meets}"
    )


@pytest.mark.benchmark(group="table4")
def test_ape_estimation_time_negligible(benchmark, tech, show):
    """APE's own CPU time for all ten op-amps (paper: 0.12 s total)."""
    from repro.opamp import design_opamp

    def estimate_all():
        return [
            design_opamp(tech, row.spec(), row.topology(), name=row.name)
            for row in TABLE1
        ]

    amps = benchmark(estimate_all)
    assert len(amps) == 10
