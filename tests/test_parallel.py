"""Parallel executor and evaluation-memo tests.

Locks in the determinism contract of :mod:`repro.parallel`:

* every run, ``restarts=1`` included, runs its chains through the
  executor and memoizes its evaluations; a one-chain run stays bit for
  bit the same with ``memo=False`` (hits return the stored exact
  result) and with a run directory;
* a candidate computes one memo key, and its corner and Monte Carlo
  variants derive theirs from it;
* multi-restart results depend only on ``(seed, restarts)``, never on
  the worker count or scheduling;
* the process-wide problem cache is safe: threads never share a
  problem, a strict run never reuses a tolerant template, a repeated
  run matches the first, and in-process runs pickle nothing;
* a memo shared across runs of one problem serves the repeat at any
  worker count, pooled chains send back only what they added, and a
  memo reused for another problem changes nothing;
* everything that crosses the process-pool boundary pickle round-trips
  cleanly.
"""

import contextlib
import dataclasses
import math
import pickle
import sys
import threading

import pytest

from repro.errors import EstimationError
from repro.opamp import OpAmpSpec, OpAmpTopology, coarse_design_opamp
from repro.opamp.benches import open_loop_bench
from repro.parallel import (
    ChainTask,
    DEFAULT_CAPACITY,
    EvalMemo,
    derive_chain_seed,
    effective_workers,
    memo_key,
    run_chain,
    run_supervised_chains,
    usable_cpu_count,
)
from repro.runtime import EvalBudget, RetryPolicy, faults
from repro.runtime.diagnostics import DiagnosticLog
from repro.runtime.faults import FaultSpec, injected_faults
from repro.synthesis import (
    AnnealingSchedule,
    OpAmpSizingProblem,
    RunConfig,
    ape_ranges,
    opamp_synthesis_spec,
    parameterized_opamp,
    synthesize_opamp,
)
from repro.synthesis.robust import RobustEvaluator, RobustSpec
from repro.technology import PRESET_NAMES, generic_05um, technology_by_name

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)


#: Serial-vs-journaled cases: a buffered Table-1 row, an unbuffered one
#: whose railed outputs are balanced, and Table 3's OpAmp1 sized for
#: the worst case over three corners.
SERIAL_CASES = {
    "oa1": (
        OpAmpSpec(gain=70, ugf=3.0e6, area=3000e-12, ibias=2e-6, cl=10e-12),
        OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3),
        None,
    ),
    "oa3": (
        OpAmpSpec(gain=250, ugf=8.0e6, area=1000e-12, ibias=1e-6, cl=10e-12),
        OpAmpTopology(
            current_source="mirror", output_buffer=False, z_load=math.inf
        ),
        None,
    ),
    "opamp1_worst": (
        OpAmpSpec(gain=206, ugf=1.3e6, ibias=1e-6, cl=10e-12),
        OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3),
        RobustSpec(corners=("tt", "ss", "ff"), mode="worst"),
    ),
}


#: Default-memo cases: ``(SERIAL_CASES row, mode, robust)``.  Each row
#: in both boxes, and OpAmp1's worst case over its three corners plus
#: one Monte Carlo sample.
MEMO_CASES = {
    f"{row}-{mode}": (row, mode, None)
    for row in ("oa1", "oa3", "opamp1_worst")
    for mode in ("ape", "standalone")
}
MEMO_CASES["opamp1_worst-robust"] = (
    "opamp1_worst",
    "ape",
    dataclasses.replace(SERIAL_CASES["opamp1_worst"][2], mc_samples=1),
)


#: A buffered problem and one whose railed outputs are balanced.
BALANCE_CASES = {
    "buffered": (SPEC, TOPO),
    "oa3": SERIAL_CASES["oa3"][:2],
}


#: Table 1's oa4: oa3's topology with another spec.  Standalone boxes
#: do not depend on the spec, so at one seed both rows propose the same
#: first candidates.
OA4_SPEC = OpAmpSpec(gain=150, ugf=3.0e6, area=1000e-12, ibias=100e-6, cl=10e-12)


def _hexed(value):
    """``value`` with every float spelled by ``float.hex``."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _chain_summary(result):
    """The scheduling-independent portion of a SynthesisResult."""
    return [
        (c.best_cost, c.best_params, c.best_metrics, c.evaluations,
         c.accepted, c.failed_evaluations, c.stop_reason)
        for c in result.chains
    ]


# ---------------------------------------------------------------- seeds/pool


class TestSeedsAndWorkers:
    def test_chain_zero_keeps_master_seed(self):
        assert derive_chain_seed(42, 0) == 42

    def test_chain_seeds_distinct_and_deterministic(self):
        seeds = [derive_chain_seed(7, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [derive_chain_seed(7, i) for i in range(16)]

    def test_effective_workers_clamps_to_tasks(self):
        assert effective_workers(8, 3, oversubscribe=True) == 3

    def test_effective_workers_clamps_to_cpus(self):
        cpus = usable_cpu_count()
        assert effective_workers(cpus + 64, 128) == cpus

    def test_effective_workers_oversubscribe_bypasses_cpu_clamp(self):
        assert effective_workers(2, 4, oversubscribe=True) == 2

    def test_effective_workers_default_is_cpu_count(self):
        assert effective_workers(None, 128) == usable_cpu_count()


# -------------------------------------------------------------------- memo


class TestEvalMemo:
    def test_hit_miss_counting(self):
        memo = EvalMemo()
        params = {"a": 1.0, "b": 2e-6}
        assert memo.lookup(params) is None
        memo.store(params, 0.5, {"gain": 10.0})
        assert memo.lookup(params) == (0.5, {"gain": 10.0})
        assert (memo.hits, memo.misses, memo.stores) == (1, 1, 1)
        assert memo.lookups == 2
        assert memo.hit_rate == pytest.approx(0.5)
        assert len(memo) == 1

    def test_quantization_collapses_float_dust(self):
        base = {"w": 10e-6}
        assert memo_key(base) == memo_key({"w": 10e-6 * (1 + 1e-12)})
        assert memo_key(base) != memo_key({"w": 10.1e-6})

    def test_key_is_order_independent(self):
        assert memo_key({"a": 1.0, "b": 2.0}) == memo_key({"b": 2.0, "a": 1.0})

    def test_nonpositive_values_never_collide(self):
        assert memo_key({"x": 0.0}) != memo_key({"x": -1.0})

    def test_lookup_returns_a_copy(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 5.0})
        _, metrics = memo.lookup({"a": 1.0})
        metrics["gain"] = -1.0
        assert memo.lookup({"a": 1.0})[1] == {"gain": 5.0}

    def test_wrap_skips_reevaluation(self):
        calls = []

        def evaluate(params):
            calls.append(dict(params))
            return 1.5, {"gain": 2.0}

        memo = EvalMemo()
        cached = memo.wrap(evaluate)
        assert cached({"a": 3.0}) == (1.5, {"gain": 2.0})
        assert cached({"a": 3.0}) == (1.5, {"gain": 2.0})
        assert len(calls) == 1

    def test_wrap_caches_failures_without_faults(self):
        calls = []

        def evaluate(params):
            calls.append(1)
            return 1e9, None

        cached = EvalMemo().wrap(evaluate)
        cached({"a": 1.0})
        cached({"a": 1.0})
        assert len(calls) == 1

    def test_wrap_does_not_cache_failures_under_faults(self):
        calls = []

        def evaluate(params):
            calls.append(1)
            return 1e9, None

        cached = EvalMemo().wrap(evaluate)
        with injected_faults({"spice.dc": 0.0}, seed=1):
            cached({"a": 1.0})
            cached({"a": 1.0})
        assert len(calls) == 2

    def test_take_new_holds_only_what_was_added_since_the_last_take(self):
        memo = EvalMemo()
        memo.store({"old": 1.0}, 0.1, None)
        memo.take_new()
        memo.lookup({"old": 1.0})
        memo.lookup({"new": 1.0})
        memo.store({"new": 1.0}, 0.2, None)
        snapshot = memo.take_new()
        assert list(snapshot["data"]) == [memo_key({"new": 1.0})]
        assert (snapshot["hits"], snapshot["misses"], snapshot["stores"]) == (
            1, 1, 1,
        )
        parent = EvalMemo()
        parent.merge(snapshot)
        assert len(parent) == 1 and parent.hits == 1
        empty = memo.take_new()
        assert empty["data"] == {} and empty["hits"] == 0

    def test_bind_to_another_problem_drops_entries(self):
        memo = EvalMemo()
        memo.bind("fp-a")
        memo.store({"a": 1.0}, 0.1, None)
        memo.bind("fp-a")
        assert memo.lookup({"a": 1.0}) == (0.1, None)
        memo.bind("fp-b")
        assert len(memo) == 0
        assert memo.lookup({"a": 1.0}) is None
        assert memo.bound_fingerprint == "fp-b"

    def test_export_merge_roundtrip(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 1.0})
        memo.lookup({"a": 1.0})
        other = EvalMemo()
        other.store({"b": 2.0}, 0.2, None)
        other.merge(pickle.loads(pickle.dumps(memo.export())))
        assert len(other) == 2
        assert other.hits == memo.hits
        assert other.lookup({"a": 1.0}) == (0.1, {"gain": 1.0})

    def test_merge_existing_entries_win(self):
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.1, {"gain": 1.0})
        incoming = EvalMemo()
        incoming.store({"a": 1.0}, 0.9, {"gain": 9.0})
        memo.merge(incoming)
        assert memo.lookup({"a": 1.0}) == (0.1, {"gain": 1.0})

    def test_merge_rejects_quantum_mismatch(self):
        with pytest.raises(ValueError):
            EvalMemo(1e-9).merge(EvalMemo(1e-6))

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            EvalMemo(0.0)

    def test_lru_evicts_oldest_past_capacity(self):
        memo = EvalMemo(capacity=2)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        memo.store({"c": 1.0}, 0.3, None)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.lookup({"a": 1.0}) is None  # the oldest went
        assert memo.lookup({"c": 1.0}) == (0.3, None)

    def test_lookup_refreshes_lru_recency(self):
        memo = EvalMemo(capacity=2)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        memo.lookup({"a": 1.0})  # "a" is now most recent
        memo.store({"c": 1.0}, 0.3, None)
        assert memo.lookup({"a": 1.0}) == (0.1, None)
        assert memo.lookup({"b": 1.0}) is None  # "b" was evicted instead

    def test_merge_respects_capacity(self):
        memo = EvalMemo(capacity=2)
        incoming = EvalMemo()
        for i, name in enumerate("abcd"):
            incoming.store({name: 1.0}, float(i), None)
        memo.merge(incoming)
        assert len(memo) == 2
        assert memo.evictions == 2

    def test_unbounded_when_capacity_none(self):
        memo = EvalMemo(capacity=None)
        for i in range(DEFAULT_CAPACITY // 256):  # cheap, still > any cap
            memo.store({"x": float(i + 1)}, 0.0, None)
        assert memo.evictions == 0

    def test_default_capacity_applied(self):
        assert EvalMemo().capacity == DEFAULT_CAPACITY

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvalMemo(capacity=0)

    def test_export_carries_capacity_and_evictions(self):
        memo = EvalMemo(capacity=1)
        memo.store({"a": 1.0}, 0.1, None)
        memo.store({"b": 1.0}, 0.2, None)
        snapshot = memo.export()
        assert snapshot["capacity"] == 1
        assert snapshot["evictions"] == 1


class TestMemoKeys:
    """A candidate computes one memo key; its variants derive theirs."""

    @pytest.mark.parametrize(
        "robust",
        [None, RobustSpec(corners=("tt", "ss", "ff"), mc_samples=1)],
        ids=["plain", "robust"],
    )
    def test_one_base_key_per_candidate(self, robust, monkeypatch):
        import repro.parallel.memo as memo_module

        calls = []
        memo_key_ = memo_module.memo_key

        def counted(*args, **kwargs):
            calls.append(args)
            return memo_key_(*args, **kwargs)

        monkeypatch.setattr(memo_module, "memo_key", counted)
        spec, topology, _ = SERIAL_CASES["opamp1_worst"]
        result = synthesize_opamp(
            TECH, spec, topology, mode="ape", max_evaluations=40, seed=7,
            name="OpAmp1", robust=robust,
        )
        assert result.cache_hits > 0
        assert len(calls) == result.evaluations

    @pytest.mark.parametrize(
        "label", ["corner:ss", "corner:ss@-40C,4.5V", "mc:0", "mc:12"]
    )
    def test_tagged_key_is_the_tagged_memo_key(self, label):
        params = {"m2.w": 3e-6, "m1.l": 1e-6, "cc": 2e-12, "zero": 0.0}
        assert EvalMemo.tagged(memo_key(params), label) == memo_key(
            params, tag=label
        )

    def test_variants_store_under_the_tagged_memo_keys(self):
        """A robust candidate's entries are ``memo_key(params,
        tag=label)`` per variant and the untagged key for the nominal
        (which the ``tt`` alias shares), so store rows and ``memo.json``
        snapshots written by the per-variant keys still hit.  The second
        candidate's family is stacked."""
        spec, topology, _ = SERIAL_CASES["opamp1_worst"]
        template, _ = coarse_design_opamp(TECH, spec, topology)
        variables = ape_ranges(template)
        evaluator = RobustEvaluator(
            template,
            variables,
            RobustSpec(corners=("tt", "ss", "ff"), mc_samples=1),
            opamp_synthesis_spec(spec),
        )
        memo = EvalMemo()
        evaluator.bind(diagnostics=None, retry=None, memo=memo)
        point = {
            v.name: min(max(template.initial_point()[v.name], v.lo), v.hi)
            for v in variables
        }
        moved = dict(point, **{variables[0].name: variables[0].lo})
        expected = set()
        for params in (point, moved):
            family = evaluator.variants(params)
            assert list(family) == [
                "nominal", "corner:tt", "corner:ss", "corner:ff", "mc:0",
            ]
            expected |= {memo_key(params)} | {
                memo_key(params, tag=label)
                for label in ("corner:ss", "corner:ff", "mc:0")
            }
            assert set(memo.export()["data"]) == expected


# ------------------------------------------------------- canonical evaluation


class TestCanonicalEvaluation:
    def test_fast_profile_reuse_bench_is_exact(self):
        """The in-place bench equals a fresh factory build exactly."""
        template, _ = coarse_design_opamp(TECH, SPEC, TOPO)
        variables = ape_ranges(template)
        bounds = {v.name: (v.lo, v.hi) for v in variables}
        problem = OpAmpSizingProblem(template, variables)
        point = {
            name: min(max(template.initial_point().get(name, lo), lo), hi)
            for name, (lo, hi) in bounds.items()
        }
        for scale in (1.0, 0.97, 1.03, 0.9, 1.0):
            params = {}
            for name, value in point.items():
                lo, hi = bounds[name]
                params[name] = min(max(value * scale, lo), hi)
            assert problem.evaluate(params) is not None
            fresh = open_loop_bench(
                parameterized_opamp(template, params), v_diff=0.0
            )
            assert problem._bench.elements == fresh.elements

    def test_warm_start_stays_within_solver_tolerance(self):
        """The profile agrees with from-scratch evaluation to 1e-3."""
        from tests.oracles import factory_evaluate

        template, _ = coarse_design_opamp(TECH, SPEC, TOPO)
        variables = ape_ranges(template)
        warm = OpAmpSizingProblem(template, variables)
        point = {
            v.name: min(max(template.initial_point().get(v.name, v.lo), v.lo), v.hi)
            for v in variables
        }
        m_warm = warm.evaluate(point)
        m_cold = factory_evaluate(warm, point)
        assert m_cold is not None and m_warm is not None
        assert warm._warm_x0 is not None
        assert set(m_warm) == set(m_cold)
        for key, value in m_cold.items():
            assert m_warm[key] == pytest.approx(value, rel=1e-3, abs=1e-12), key

    @pytest.mark.parametrize("case", sorted(BALANCE_CASES))
    def test_evaluation_is_history_independent(self, case):
        """The memo/scheduling contract: same params -> same metrics,
        whatever was evaluated in between."""
        template, _ = coarse_design_opamp(TECH, *BALANCE_CASES[case])
        variables = ape_ranges(template)
        bounds = {v.name: (v.lo, v.hi) for v in variables}
        problem = OpAmpSizingProblem(template, variables)
        point = {
            name: min(max(template.initial_point().get(name, lo), lo), hi)
            for name, (lo, hi) in bounds.items()
        }
        first = problem.evaluate(point)
        perturbed = {}
        for name, value in point.items():
            lo, hi = bounds[name]
            perturbed[name] = min(max(value * 1.05, lo), hi)
        problem.evaluate(perturbed)
        assert problem.evaluate(point) == first


# ------------------------------------------------------------ determinism


class TestDeterminism:
    def test_restarts_one_is_bit_for_bit_serial(self):
        kwargs = dict(mode="ape", max_evaluations=40, seed=3, name="oa")
        a = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        b = synthesize_opamp(TECH, SPEC, TOPO, restarts=1, **kwargs)
        assert a.best_cost == b.best_cost
        assert a.params == b.params
        assert a.metrics == b.metrics
        assert a.evaluations == b.evaluations
        assert (a.restarts, a.workers) == (1, 1)

    @pytest.mark.parametrize("mode", ["ape", "standalone"])
    @pytest.mark.parametrize("case", ["oa1", "oa3", "opamp1_worst"])
    def test_serial_run_matches_journaled_run(self, case, mode, tmp_path):
        """A one-chain run and the same run journaled to a ``run_dir``
        evaluate candidates identically, so they agree bit for bit."""
        spec, topology, robust = SERIAL_CASES[case]
        kwargs = dict(
            mode=mode, max_evaluations=40, seed=7, name=case, robust=robust
        )
        serial = synthesize_opamp(TECH, spec, topology, **kwargs)
        journaled = synthesize_opamp(
            TECH, spec, topology, run_dir=str(tmp_path / "run"), **kwargs
        )
        assert journaled.run_dir is not None
        assert serial.best_cost == journaled.best_cost
        assert serial.params == journaled.params
        assert serial.metrics == journaled.metrics

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_default_memo_matches_memo_false(self, case):
        """A one-chain run memoizes by default and changes nothing but
        speed: ``memo=False``, which evaluates every candidate, agrees
        with it bit for bit."""
        row, mode, robust = MEMO_CASES[case]
        spec, topology, _ = SERIAL_CASES[row]
        kwargs = dict(
            mode=mode, max_evaluations=60, seed=7, name=row, robust=robust
        )
        plain = synthesize_opamp(TECH, spec, topology, memo=False, **kwargs)
        memod = synthesize_opamp(TECH, spec, topology, **kwargs)

        def summary(result):
            return _hexed({
                "best_cost": result.best_cost,
                "params": result.params,
                "metrics": result.metrics,
                "evaluations": result.evaluations,
                "failed_evaluations": result.failed_evaluations,
                "corner_evals": result.corner_evals,
                "screened_candidates": result.screened_candidates,
                "corner_metrics": result.corner_metrics,
            })

        assert summary(memod) == summary(plain)
        assert plain.cache_hits == plain.cache_misses == 0
        assert memod.cache_hits > 0
        if robust is None:
            assert memod.cache_hits + memod.cache_misses == memod.evaluations

    def test_memo_true_is_refused(self):
        """``memo=True`` is gone: the default already memoizes."""
        with pytest.raises(TypeError, match="memo must be"):
            synthesize_opamp(TECH, SPEC, TOPO, max_evaluations=5, memo=True)

    @pytest.mark.parametrize("case", sorted(BALANCE_CASES))
    def test_results_depend_on_seed_and_restarts_not_workers(self, case):
        """Also on a problem whose railed candidates are balanced
        (oa3), wherever its drive column was computed."""
        spec, topology = BALANCE_CASES[case]
        kwargs = dict(mode="ape", max_evaluations=30, seed=9, name="oa")
        one = synthesize_opamp(
            TECH, spec, topology, restarts=3, workers=1, **kwargs
        )
        pooled = synthesize_opamp(
            TECH, spec, topology, restarts=3, workers=3, oversubscribe=True,
            **kwargs,
        )
        assert _chain_summary(one) == _chain_summary(pooled)
        assert one.best_cost == pooled.best_cost
        assert one.params == pooled.params
        assert one.metrics == pooled.metrics
        assert pooled.workers == 3

    def test_multi_restart_repeats_exactly(self):
        kwargs = dict(
            mode="ape", max_evaluations=30, seed=2, name="oa", restarts=2
        )
        first = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        second = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        assert _chain_summary(first) == _chain_summary(second)

    def test_chain_zero_uses_master_seed_annealing(self):
        """Chain 0 of a restart fan anneals with the master seed itself."""
        kwargs = dict(mode="ape", max_evaluations=30, name="oa")
        fan = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, seed=13, **kwargs)
        assert len(fan.chains) == 2
        assert fan.restarts == 2

    def test_faults_compose_with_restarts_and_scheduling(self):
        kwargs = dict(mode="ape", max_evaluations=30, seed=4, name="oa")
        with injected_faults({"synthesis.evaluate": 0.3}, seed=11):
            one = synthesize_opamp(
                TECH, SPEC, TOPO, restarts=2, workers=1, **kwargs
            )
        with injected_faults({"synthesis.evaluate": 0.3}, seed=11):
            pooled = synthesize_opamp(
                TECH, SPEC, TOPO, restarts=2, workers=2, oversubscribe=True,
                **kwargs,
            )
        assert one.failed_evaluations > 0
        assert _chain_summary(one) == _chain_summary(pooled)

    def test_fault_injector_restored_after_fan_out(self):
        with injected_faults({"spice.dc": 0.0}, seed=3) as injector:
            synthesize_opamp(
                TECH, SPEC, TOPO, mode="ape", max_evaluations=12,
                seed=1, restarts=2,
            )
            assert faults.active() is injector
        assert faults.active() is None

    def test_restarts_below_one_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            synthesize_opamp(TECH, SPEC, TOPO, restarts=0)


# ------------------------------------------------------------- result fields


class TestResultSurface:
    def test_throughput_and_cache_counters(self):
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=40,
            seed=6, restarts=2,
        )
        assert result.evals_per_second > 0
        assert result.cache_misses > 0
        assert result.cache_hits + result.cache_misses <= result.evaluations
        assert len(result.chains) == 2
        assert all(c.wall_seconds > 0 for c in result.chains)
        assert all(c.evals_per_second > 0 for c in result.chains)
        assert result.evaluations == sum(c.evaluations for c in result.chains)

    def test_shared_memo_across_runs(self):
        memo = EvalMemo()
        kwargs = dict(mode="ape", max_evaluations=30, seed=8, name="oa")
        first = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, memo=memo, **kwargs)
        again = synthesize_opamp(TECH, SPEC, TOPO, restarts=2, memo=memo, **kwargs)
        # The second run replays the exact same chains: every lookup hits.
        assert again.cache_hits == again.evaluations
        assert again.cache_misses == 0
        assert again.best_cost == first.best_cost
        assert again.params == first.params

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shared_memo_serves_a_repeat_at_any_worker_count(self, workers):
        memo = EvalMemo()
        kwargs = dict(
            mode="ape", max_evaluations=30, seed=8, name="oa", restarts=4,
            workers=workers, oversubscribe=True, memo=memo,
        )
        first = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        again = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        assert again.workers == workers
        assert again.cache_hits == again.evaluations
        assert again.cache_misses == 0
        assert again.best_cost == first.best_cost
        assert again.params == first.params

    @pytest.mark.timeout(300)
    def test_pooled_snapshots_hold_only_their_chains_entries(
        self, monkeypatch
    ):
        memo = EvalMemo()
        kwargs = dict(
            mode="ape", max_evaluations=30, name="oa", restarts=4,
            workers=2, oversubscribe=True, memo=memo,
        )
        synthesize_opamp(TECH, SPEC, TOPO, seed=8, **kwargs)  # binds memo
        for i in range(5000):
            memo.store({"unrelated": float(i + 1)}, 0.0, None)
        sizes = []
        merge = EvalMemo.merge

        def recording_merge(self, snapshot):
            sizes.append(len(snapshot["data"]))
            merge(self, snapshot)

        monkeypatch.setattr(EvalMemo, "merge", recording_merge)
        synthesize_opamp(TECH, SPEC, TOPO, seed=9, **kwargs)
        assert len(sizes) == 4
        assert max(sizes) <= 30

    def test_memo_reused_for_another_problem_changes_nothing(self):
        oa3_spec, mirror, _ = SERIAL_CASES["oa3"]
        kwargs = dict(
            mode="standalone", max_evaluations=60, seed=11, workers=1
        )
        alone = synthesize_opamp(TECH, OA4_SPEC, mirror, name="oa4", **kwargs)
        memo = EvalMemo()
        synthesize_opamp(TECH, oa3_spec, mirror, name="oa3", memo=memo, **kwargs)
        after = synthesize_opamp(
            TECH, OA4_SPEC, mirror, name="oa4", memo=memo, **kwargs
        )
        assert after.cache_hits == 0
        assert after.best_cost == alone.best_cost
        assert after.params == alone.params
        assert after.metrics == alone.metrics
        assert _chain_summary(after) == _chain_summary(alone)

    def test_session_stats_accumulate(self):
        from repro.runtime import global_stats

        stats = global_stats()
        runs_before = stats.runs
        evals_before = stats.evaluations
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=12, seed=1,
        )
        assert stats.runs == runs_before + 1
        assert stats.evaluations == evals_before + result.evaluations
        assert stats.render()

    def test_deadline_is_shared_and_degrades(self):
        budget = EvalBudget(deadline_seconds=1e-3)
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=500,
            seed=1, restarts=2, budget=budget,
        )
        assert result.degraded
        assert result.evaluations < 1000
        assert any(c.stop_reason for c in result.chains)
        assert budget.evaluations == result.evaluations

    def test_parallel_diagnostics_recorded(self):
        log = DiagnosticLog(mirror=False)
        synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=12,
            seed=1, restarts=2, diagnostics=log,
        )
        assert any(
            d.subsystem == "synthesis.parallel" for d in log.records
        )


# ----------------------------------------------------------- problem cache


class TestProblemCache:
    """The process-wide problem cache every in-process chain runs on."""

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("restarts", [1, 2])
    def test_threads_on_one_problem_match_sequential_runs(self, restarts):
        kwargs = dict(
            mode="ape", max_evaluations=30, name="threads",
            restarts=restarts, workers=1,
        )
        seeds = (1, 2)
        expected = {
            seed: synthesize_opamp(TECH, SPEC, TOPO, seed=seed, **kwargs)
            for seed in seeds
        }
        results = {}
        barrier = threading.Barrier(len(seeds))

        def run(seed):
            barrier.wait(timeout=60)
            results[seed] = synthesize_opamp(
                TECH, SPEC, TOPO, seed=seed, **kwargs
            )

        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert _chain_summary(results[seed]) == _chain_summary(
                expected[seed]
            )

    @pytest.mark.parametrize("spec, sites", [
        (SPEC, {"estimator.opamp": 1.0}),
        # Beyond the two-stage gain limit: strict APE sizing raises,
        # while a tolerant run degrades to a coarse template.
        (OpAmpSpec(gain=1e5, ugf=2e6, ibias=2e-6, cl=10e-12), None),
    ], ids=["injected", "infeasible"])
    def test_strict_run_never_reuses_a_tolerant_template(self, spec, sites):
        kwargs = dict(
            mode="ape", max_evaluations=10, seed=3, name="strict",
            restarts=2, workers=1,
        )
        synthesize_opamp(TECH, spec, TOPO, **kwargs)
        armed = (
            injected_faults(sites, seed=7) if sites is not None
            else contextlib.nullcontext()
        )
        with armed, pytest.raises(EstimationError):
            synthesize_opamp(TECH, spec, TOPO, tolerant=False, **kwargs)

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_in_process_runs_pickle_nothing(self, restarts, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an in-process run pickled an object")

        monkeypatch.setattr(pickle, "dumps", refuse)
        result = synthesize_opamp(
            TECH, SPEC, TOPO, mode="ape", max_evaluations=10, seed=1,
            restarts=restarts, workers=1,
        )
        assert len(result.chains) == restarts

    @pytest.mark.timeout(300)
    def test_repeated_robust_run_is_bit_identical(self):
        kwargs = dict(
            mode="ape", max_evaluations=20, seed=4, name="robust-again",
            robust=RobustSpec(corners=("tt", "ss", "ff"), mode="worst"),
        )
        first = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        again = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        assert _chain_summary(again) == _chain_summary(first)
        assert again.best_cost == first.best_cost
        assert again.params == first.params
        assert again.metrics == first.metrics
        assert again.corner_metrics == first.corner_metrics
        assert again.corner_evals == first.corner_evals > 0
        assert again.screened_candidates == first.screened_candidates

    def test_other_seeds_and_budgets_reuse_the_problem(self, monkeypatch):
        """The cache key holds only what the problem depends on: a table
        round that draws fresh seeds must not rebuild its problems."""
        import repro.parallel.executor as executor

        built = []
        build = executor._build_bundle

        def counting(task):
            built.append(task.config.seed)
            return build(task)

        monkeypatch.setattr(executor, "_build_bundle", counting)
        for seed, budget in ((1, 10), (2, 12), (3, 10)):
            synthesize_opamp(
                TECH, SPEC, TOPO, mode="ape", max_evaluations=budget,
                seed=seed, name="fresh-seeds",
            )
        assert built == [1]


# ---------------------------------------------------------------- pickling


class TestPoolBoundaryPickling:
    @pytest.mark.parametrize("name", sorted(PRESET_NAMES))
    def test_technology_presets_roundtrip(self, name):
        tech = technology_by_name(name)
        assert pickle.loads(pickle.dumps(tech)) == tech

    @pytest.mark.parametrize("obj", [
        SPEC,
        TOPO,
        OpAmpTopology(current_source="mirror", output_buffer=False),
        AnnealingSchedule(),
        RetryPolicy(max_attempts=3, seed=5),
        FaultSpec("spice.dc", 0.25, max_fires=3),
        EvalBudget(deadline_seconds=2.0, max_failures=5),
    ])
    def test_pool_boundary_objects_roundtrip(self, obj):
        clone = pickle.loads(pickle.dumps(obj))
        for attr in ("gain", "probability", "max_attempts", "t0",
                     "deadline_seconds", "current_source"):
            if hasattr(obj, attr):
                assert getattr(clone, attr) == getattr(obj, attr)

    def test_synthesis_spec_roundtrips(self):
        spec = opamp_synthesis_spec(SPEC)
        clone = pickle.loads(pickle.dumps(spec))
        assert pickle.dumps(clone) == pickle.dumps(spec)

    def test_chain_task_roundtrips(self):
        task = _small_task(chain_index=1)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_problem_key_shared_across_chain_indices(self):
        assert (
            _small_task(chain_index=0).problem_key()
            == _small_task(chain_index=3).problem_key()
        )

    def test_problem_key_shared_after_pool_transfer(self):
        # problem_key is built from repr, so it no longer depends on
        # object identity the way pickle bytes did (string interning
        # changed pickle back-references).  What the process-wide
        # bundle cache relies on is that tasks unpickled on the same
        # side of the pool boundary agree.
        c0 = pickle.loads(pickle.dumps(_small_task(chain_index=0)))
        c3 = pickle.loads(pickle.dumps(_small_task(chain_index=3)))
        assert c0.problem_key() == c3.problem_key()

    def test_run_chain_outcome_roundtrips(self):
        outcome = run_chain(_small_task(chain_index=0))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.anneal.best_cost == outcome.anneal.best_cost
        assert clone.anneal.best_params == outcome.anneal.best_params


def _small_task(chain_index: int) -> ChainTask:
    return ChainTask(
        tech=TECH,
        config=RunConfig(
            SPEC,
            TOPO,
            synthesis_spec=opamp_synthesis_spec(SPEC),
            name="oa",
            max_evaluations=10,
        ),
        chain_index=chain_index,
    )


# -------------------------------------------------------------- table runner


class TestBatchedRunners:
    def test_supervised_chains_key_outcomes_by_index(self):
        tasks = [_small_task(chain_index=i) for i in range(3)]
        outcomes, _report = run_supervised_chains(
            list(reversed(tasks)), workers=2, oversubscribe=True
        )
        assert sorted(outcomes) == [0, 1, 2]
        assert all(o.chain_index == i for i, o in outcomes.items())

    def test_pool_merges_worker_memos(self):
        memo = EvalMemo()
        run_supervised_chains(
            [_small_task(chain_index=i) for i in range(2)],
            workers=2, memo=memo, oversubscribe=True,
        )
        assert len(memo) > 0
        assert memo.stores > 0

    def test_empty_task_list(self):
        outcomes, report = run_supervised_chains([])
        assert outcomes == {}
        assert not report.events
