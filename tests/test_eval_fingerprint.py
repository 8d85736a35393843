"""The deviation report of ``tools/eval_fingerprint.py --compare``.

An ``EVALUATOR_VERSION`` bump moves the digest, so the report is what
vouches for it: each metric's largest relative deviation, the calls
that flipped between evaluated and failed, and a verdict against the
bound the tool states.  These tests run the comparison on small
hand-written files; no evaluation runs.
"""

import math
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import eval_fingerprint  # noqa: E402

BASE_METRICS = {
    "gain": 200.0,
    "ugf": 8e6,
    "phase_margin": 60.0,
    "gate_area": 1e-9,
    "dc_power": 1e-3,
    "offset": 1e-13,
}


def _file(calls, best_cost=0.25, evaluator=3):
    return {
        "evaluator": evaluator,
        "solver": "dense",
        "calls": {
            key: eval_fingerprint._hex_metrics(metrics)
            for key, metrics in calls.items()
        },
        "syntheses": {"oa3 ape": {"best_cost": float(best_cost).hex()}},
    }


def _pair(head_metrics, key="oa3 standalone seed 1#0"):
    base = _file({key: BASE_METRICS})
    head = _file({key: head_metrics}, best_cost=0.5, evaluator=4)
    return eval_fingerprint.compare(base, head)


def test_identical_files_are_within_the_bound():
    lines, ok = _pair(dict(BASE_METRICS))
    assert ok
    assert "flips: 0 (bound 0)" in lines


@pytest.mark.parametrize("head", [None, {**BASE_METRICS, "ugf": math.nan}])
def test_a_flip_breaks_the_bound(head):
    lines, ok = _pair(head)
    assert not ok
    assert any(line.startswith("flips: 1 ") for line in lines)


def test_the_ape_box_bound_is_tighter():
    moved = {**BASE_METRICS, "ugf": 8e6 * (1 + 1e-3)}
    assert _pair(moved, key="oa3 standalone seed 1#0")[1]
    assert not _pair(moved, key="oa3 ape seed 1#0")[1]
    assert not _pair({**BASE_METRICS, "ugf": 8e6 * 1.02})[1]


def test_offset_and_best_cost_are_reported_not_bounded():
    lines, ok = _pair({**BASE_METRICS, "offset": 2e-3})
    assert ok
    assert any(line.startswith("offset") for line in lines)
    assert any(line.startswith("synthesis oa3 ape") for line in lines)


def test_a_failure_on_both_sides_is_no_flip():
    failed = _file({"oa3 ape seed 1#0": None})
    lines, ok = eval_fingerprint.compare(failed, failed)
    assert ok
    assert "flips: 0 (bound 0)" in lines
