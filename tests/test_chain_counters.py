"""Chain counters through the journal, the run totals and the session.

Locks in what a run's per-chain counters (lint rejections, retries,
cache and store traffic, corner evaluations, screened candidates,
surrogate skips) must keep wherever they travel:

* every ``chain-finished`` journal record keeps its top-level keys, in
  their order, and the counters it carries add up to the run's totals;
* a finished run directory resumed with every chain replayed reports
  each counter total of the run that wrote it, and every counter is
  nonzero in at least one pinned run;
* the process's :class:`~repro.runtime.stats.SessionStats` grows by
  exactly what each run's result reports, renders as before and clears
  every field; a resumed run adds only the work it did itself, and so
  does it to the caller's :class:`~repro.runtime.EvalBudget` and
  :class:`~repro.runtime.RetryPolicy`.
"""

import dataclasses
import functools
import json
import os

import pytest

import repro.parallel.executor as executor
import repro.synthesis.problems as problems
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.runtime import EvalBudget, RetryPolicy, SupervisorConfig
from repro.runtime.faults import injected_faults
from repro.runtime.stats import SessionStats, global_stats
from repro.synthesis import synthesize_opamp
from repro.synthesis.robust import RobustSpec
from repro.technology import generic_05um
from tests.test_parallel import floating_gate_bench

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)
RUN = dict(mode="ape", max_evaluations=16, seed=3, name="counters")
ROBUST = RobustSpec(corners=("tt", "ss", "ff"), mc_samples=1)

#: The chain counters, as the journal and the result name them.
COUNTERS = (
    "lint_rejections", "retries", "cache_hits", "cache_misses",
    "corner_evals", "screened_candidates", "store_hits", "surrogate_skips",
)

#: A ``chain-finished`` record's top-level keys, in journal order.
OUTCOME_KEYS = [
    "chain_index", "seed", "anneal", "degraded_design", "ape_seconds",
    *COUNTERS, "diagnostics",
]


def _finished_records(run_dir):
    with open(os.path.join(run_dir, "journal.jsonl"), encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r["outcome"] for r in records if r["event"] == "chain-finished"]


def _counter_totals(result):
    return {name: getattr(result, name) for name in COUNTERS}


def test_the_executor_declares_the_journal_counters_in_order():
    assert executor.CHAIN_COUNTERS == COUNTERS


# ------------------------------------------------------------ journal keys


class TestJournalRecords:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize(
        "run",
        [
            dict(restarts=2, workers=2, oversubscribe=True),
            dict(restarts=2, workers=1, robust=ROBUST),
        ],
        ids=["pooled-plain", "in-process-robust"],
    )
    def test_chain_finished_records_keep_their_keys(self, run, tmp_path):
        run_dir = str(tmp_path / "run")
        result = synthesize_opamp(TECH, SPEC, TOPO, run_dir=run_dir, **run,
                                  **RUN)
        records = _finished_records(run_dir)
        assert len(records) == 2
        for record in records:
            assert list(record) == OUTCOME_KEYS
            assert all(type(record[name]) is int for name in COUNTERS)
        sums = {
            name: sum(record[name] for record in records)
            for name in COUNTERS
        }
        if run.get("robust") is not None:
            # The winner's verification adds one evaluation per variant
            # beyond the nominal one.
            sums["corner_evals"] += len(ROBUST.variant_labels) - 1
            assert sums["corner_evals"] > 0
        assert sums == _counter_totals(result)
        assert result.cache_hits > 0


# ------------------------------------------------------------ full replay


def _retry_run(monkeypatch, **kwargs):
    """Retried DC attempts: a retry policy under a voided-attempt plan."""
    with injected_faults({"spice.dc.attempt": 0.2}, seed=5):
        return synthesize_opamp(
            TECH, SPEC, TOPO, retry=RetryPolicy(max_attempts=3, seed=7),
            **kwargs,
        )


def _gated_run(monkeypatch, **kwargs):
    """Lint rejections: every candidate's bench has a floating gate."""
    monkeypatch.setattr(executor, "_BUNDLES", {})
    monkeypatch.setattr(problems, "open_loop_bench", floating_gate_bench)
    return synthesize_opamp(TECH, SPEC, TOPO, **kwargs)


def _plain_run(monkeypatch, **kwargs):
    return synthesize_opamp(TECH, SPEC, TOPO, **kwargs)


#: ``(run, extra keywords, counters the run makes nonzero)``.  Between
#: them every counter is nonzero somewhere.
REPLAY_CASES = {
    "retries": (_retry_run, {}, ("retries",)),
    "lint_rejections": (_gated_run, {}, ("lint_rejections",)),
    "warm-store-rank": (
        _plain_run,
        dict(workers=2, oversubscribe=True, surrogate="rank"),
        ("store_hits", "surrogate_skips", "cache_hits"),
    ),
    "robust-screened": (
        _plain_run,
        dict(robust=ROBUST, mode="standalone"),
        ("screened_candidates", "corner_evals", "cache_misses"),
    ),
}


class TestFullReplay:
    def test_every_counter_is_pinned_by_some_case(self):
        pinned = {name for *_, names in REPLAY_CASES.values() for name in names}
        assert pinned == set(COUNTERS)

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_a_replayed_run_reports_the_same_counters(
        self, case, monkeypatch, tmp_path
    ):
        make, extra, nonzero = REPLAY_CASES[case]
        run = functools.partial(make, monkeypatch)
        kwargs = {**RUN, "restarts": 2, "workers": 1, **extra}
        if "store_hits" in nonzero:
            kwargs["store_dir"] = str(tmp_path / "store")
            run(**kwargs)  # the cold run fills the store
        run_dir = str(tmp_path / "run")
        first = run(run_dir=run_dir, **kwargs)
        again = run(run_dir=run_dir, resume=True, **kwargs)
        assert again.resumed_chains == [0, 1]
        assert _counter_totals(again) == _counter_totals(first)
        for name in nonzero:
            assert getattr(first, name) > 0, name

    @pytest.mark.timeout(300)
    def test_a_full_replay_charges_a_fresh_budget_nothing(self, tmp_path):
        """A replayed chain was charged to the budget of the run that
        made it; the resume evaluates nothing, so it charges nothing."""
        run_dir = str(tmp_path / "run")
        kwargs = {**RUN, "restarts": 2, "workers": 1, "robust": ROBUST,
                  "run_dir": run_dir}
        budget = EvalBudget()
        with injected_faults({"synthesis.evaluate": 0.2}, seed=7):
            first = synthesize_opamp(TECH, SPEC, TOPO, budget=budget,
                                     **kwargs)
        assert budget.evaluations == first.evaluations > 0
        assert budget.failures == first.failed_evaluations > 0
        assert budget.corner_evaluations == first.corner_evals > 0
        fresh = EvalBudget()
        again = synthesize_opamp(TECH, SPEC, TOPO, budget=fresh,
                                 resume=True, **kwargs)
        assert again.resumed_chains == [0, 1]
        assert again.evaluations == first.evaluations
        assert (fresh.evaluations, fresh.failures,
                fresh.corner_evaluations) == (0, 0, 0)

    @pytest.mark.timeout(300)
    def test_a_shared_retry_policy_keeps_its_total_across_a_replay(
        self, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        kwargs = {**RUN, "restarts": 2, "workers": 1, "run_dir": run_dir}
        policy = RetryPolicy(max_attempts=3, seed=7)
        with injected_faults({"spice.dc.attempt": 0.2}, seed=5):
            first = synthesize_opamp(TECH, SPEC, TOPO, retry=policy,
                                     **kwargs)
            assert policy.total_retries == first.retries > 0
            again = synthesize_opamp(TECH, SPEC, TOPO, retry=policy,
                                     resume=True, **kwargs)
        assert again.resumed_chains == [0, 1]
        assert again.retries == first.retries
        assert policy.total_retries == first.retries


# ---------------------------------------------------------------- session


def _session_delta(before, after):
    return {
        key: after[key] - before[key]
        for key in after
        if key not in ("eval_seconds", "evals_per_second", "cache_hit_rate")
    }


def _expected_delta(result):
    """What one run adds to the session, read off its result."""
    return {
        "runs": 1,
        "evaluations": result.evaluations,
        "corner_evals": result.corner_evals,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_evictions": result.cache_evictions,
        "worker_restarts": result.worker_restarts,
        "chains_quarantined": len(result.quarantined_chains),
        "chains_resumed": len(result.resumed_chains),
        "runs_interrupted": int(result.interrupted),
        "store_hits": result.store_hits,
        "store_writes": result.store_writes,
        "surrogate_skips": result.surrogate_skips,
    }


class TestSessionStats:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize(
        "run",
        [
            dict(),
            dict(robust=ROBUST),
            dict(store="store", workers=2, oversubscribe=True,
                 surrogate="rank"),
            dict(supervisor=SupervisorConfig(
                install_signal_handlers=False, interrupt_after=1
            )),
        ],
        ids=["plain", "robust", "store-backed", "interrupted"],
    )
    def test_a_run_adds_what_its_result_reports(self, run, tmp_path):
        run = dict(run)
        if "store" in run:
            run["store_dir"] = str(tmp_path / run.pop("store"))
        stats = global_stats()
        before = stats.to_dict()
        result = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, **run, **RUN)
        after = stats.to_dict()
        assert _session_delta(before, after) == _expected_delta(result)
        assert after["eval_seconds"] == (
            before["eval_seconds"] + result.cpu_seconds
        )
        assert result.evaluations > 0

    @pytest.mark.timeout(300)
    def test_a_full_replay_adds_only_its_own_work(self, tmp_path):
        """Resuming a finished run replays both chains: the session
        counts the run, its seconds and its resumed chains, but none of
        the replayed evaluations or cache traffic, and the run reports
        no throughput, since it evaluated nothing."""
        run_dir = str(tmp_path / "run")
        kwargs = dict(RUN, max_evaluations=30, restarts=2, workers=1,
                      run_dir=run_dir)
        first = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        stats = global_stats()
        before = stats.to_dict()
        again = synthesize_opamp(TECH, SPEC, TOPO, resume=True, **kwargs)
        after = stats.to_dict()
        assert again.resumed_chains == [0, 1]
        assert again.evaluations == first.evaluations == 60
        assert first.evals_per_second > 0
        assert again.evals_per_second == 0.0
        delta = _session_delta(before, after)
        assert (delta["runs"], delta["chains_resumed"]) == (1, 2)
        assert delta["evaluations"] == 0
        assert (delta["cache_hits"], delta["cache_misses"]) == (0, 0)
        assert after["eval_seconds"] == (
            before["eval_seconds"] + again.cpu_seconds
        )

    def test_to_dict_keeps_its_keys_in_order(self):
        assert list(SessionStats().to_dict()) == [
            "runs", "evaluations", "corner_evals", "eval_seconds",
            "evals_per_second", "cache_hits", "cache_misses",
            "cache_evictions", "cache_hit_rate", "worker_restarts",
            "chains_quarantined", "chains_resumed", "runs_interrupted",
            "store_hits", "store_writes", "surrogate_skips",
        ]

    def test_render_prints_every_line(self):
        stats = SessionStats(
            runs=3, evaluations=120, corner_evals=40, eval_seconds=2.5,
            cache_hits=30, cache_misses=90, cache_evictions=4,
            worker_restarts=1, chains_quarantined=2, chains_resumed=5,
            runs_interrupted=1, store_hits=7, store_writes=11,
            surrogate_skips=13,
        )
        assert stats.render() == (
            "synthesis runs: 3\n"
            "candidate evaluations: 120 (48.0 evals/s over 2.50s)\n"
            "corner/mismatch evaluations: 40\n"
            "evaluation cache: 30 hits / 90 misses (hit rate 25.0%), "
            "4 LRU evictions\n"
            "persistent store: 7 hits / 11 new rows written\n"
            "surrogate screen: 13 proposals skipped\n"
            "supervision: 1 worker restarts, 2 chains quarantined, "
            "5 chains resumed from journal, 1 runs interrupted"
        )
        assert SessionStats().render() == (
            "synthesis runs: 0\n"
            "candidate evaluations: 0 (0.0 evals/s over 0.00s)\n"
            "evaluation cache: unused"
        )

    def test_clear_zeroes_every_field(self):
        stats = SessionStats(**{
            f.name: 1 + index
            for index, f in enumerate(dataclasses.fields(SessionStats))
        })
        assert all(getattr(stats, f.name) for f in dataclasses.fields(stats))
        stats.clear()
        assert stats == SessionStats()
