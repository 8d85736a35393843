"""The paper's claims as executable checks.

Each test runs one leg of a paper-table benchmark (``benchmarks/``) on
that benchmark's own workload, seed and budget, and asserts the result
EXPERIMENTS.md records for it.
"""

import sys
from pathlib import Path

from repro.synthesis import synthesize_opamp
from repro.technology import generic_05um

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import SYNTH_BUDGET, TABLE1  # noqa: E402

#: ``bench_table4_ape_init.py``'s seed.
TABLE4_SEED = 11


def test_table4_ape_initialized_runs_meet_spec():
    """Table 4: APE-initialized synthesis meets spec on 9 of 10 rows.

    oa6's area is the recorded miss.
    """
    tech = generic_05um()
    verdicts = {
        row.name: synthesize_opamp(
            tech, row.spec(), row.topology(), mode="ape",
            max_evaluations=SYNTH_BUDGET, seed=TABLE4_SEED, name=row.name,
        ).meets_spec
        for row in TABLE1
    }
    met = sum(verdicts.values())
    assert met >= 9, f"APE leg met spec on {met}/10 rows: {verdicts}"
