"""The paper's claims as executable checks.

Each test runs one leg of a paper-table benchmark (``benchmarks/``) on
that benchmark's own workload, seed and budget, and asserts the result
EXPERIMENTS.md records for it.
"""

import functools
import sys
from pathlib import Path

from repro.synthesis import synthesize_opamp
from repro.technology import generic_05um

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import SYNTH_BUDGET, TABLE1  # noqa: E402

#: ``bench_table4_ape_init.py``'s seed.
TABLE4_SEED = 11
#: ``bench_table1_standalone.py``'s seed.
TABLE1_SEED = 11


@functools.lru_cache(maxsize=None)
def _verdicts(
    mode: str, seed: int, surrogate: str = "off"
) -> dict[str, bool]:
    """Row name -> meets spec, for one leg over the ten Table-1 specs."""
    tech = generic_05um()
    return {
        row.name: synthesize_opamp(
            tech, row.spec(), row.topology(), mode=mode,
            max_evaluations=SYNTH_BUDGET, seed=seed, name=row.name,
            surrogate=surrogate,
        ).meets_spec
        for row in TABLE1
    }


def test_table4_ape_initialized_runs_meet_spec():
    """Table 4: APE-initialized synthesis meets spec on 9 of 10 rows.

    oa6's area is the recorded miss.
    """
    verdicts = _verdicts("ape", TABLE4_SEED)
    met = sum(verdicts.values())
    assert met >= 9, f"APE leg met spec on {met}/10 rows: {verdicts}"


def test_table1_standalone_runs_mostly_fail():
    """Table 1: standalone synthesis meets spec on at most 5 of 10 rows,
    fewer than the APE-initialized leg of Table 4.

    The paper reports 1 of 10; this reproduction records 5 (oa3, oa4,
    oa5, oa6 and oa8 meet spec).
    """
    standalone = _verdicts("standalone", TABLE1_SEED)
    met = sum(standalone.values())
    assert met <= 5, f"standalone leg met spec on {met}/10 rows: {standalone}"
    ape_met = sum(_verdicts("ape", TABLE4_SEED).values())
    assert ape_met > met, (
        f"APE leg ({ape_met}/10) does not beat standalone ({met}/10)"
    )


def test_table1_standalone_with_the_ape_screen_meets_spec():
    """Ablation under Table 1: the standalone leg with its moves ranked
    by the APE equations (``surrogate="rank"``) meets spec on at least
    9 of 10 rows, more than the unscreened leg.

    The estimator earns its keep inside the search loop too, not only
    as the starting point; this reproduction records 9 (oa2 misses).
    """
    screened = _verdicts("standalone", TABLE1_SEED, "rank")
    met = sum(screened.values())
    assert met >= 9, f"screened standalone leg met spec on {met}/10: {screened}"
    plain = sum(_verdicts("standalone", TABLE1_SEED).values())
    assert met > plain, (
        f"screened standalone ({met}/10) does not beat unscreened ({plain}/10)"
    )
