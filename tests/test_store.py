"""Persistent evaluation store, two-tier memo and the APE move screen.

Locks in the contracts of :mod:`repro.store`:

* cache hits — memory or disk — may only change speed, never results
  (canonical evaluation), so warm runs are bit-identical to cold ones;
* the store survives concurrent multi-process writers (WAL) and every
  failure path degrades to the in-memory memo with a Diagnostic;
* only the run's parent process writes the store, and a memo reused
  for another problem never writes into the earlier problem's store.

And of ``surrogate="rank"``, the move screen that ranks proposals by
the APE equations: it is a pure function of the problem, so it is
worker-count independent and bit-exact on ``--resume`` whatever the
store holds; run dirs journaled under the earlier learned screen are
refused; a topology the equations do not cover runs unscreened.
"""

import json
import math
import multiprocessing
import sqlite3

import pytest

from repro.errors import SpecificationError
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.parallel import EvalMemo, memo_key
from repro.runtime.diagnostics import DiagnosticLog
from repro.store import EvalStore, STORE_FILENAME
from repro.synthesis import synthesize_opamp
from repro.technology import generic_05um

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)

RUN_KW = dict(mode="ape", max_evaluations=25, name="st", tolerant=True)

#: Table-3 OpAmp1, two chains of 250 evaluations each, in-process.
OPAMP1 = OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12)
OPAMP1_KW = dict(mode="ape", max_evaluations=250, name="OpAmp1",
                 tolerant=True, restarts=2, workers=1)

FP = "fp-test"


def _chain_summary(result):
    """The scheduling/storage-independent portion of a SynthesisResult."""
    return [
        (c.best_cost, c.best_params, c.best_metrics, c.evaluations,
         c.accepted, c.failed_evaluations, c.stop_reason)
        for c in result.chains
    ]


def evals_to_target(history, target):
    """Evaluations until the running best cost first reaches ``target``
    (all of ``history`` when it never does)."""
    best = math.inf
    for index, cost in enumerate(history):
        best = min(best, cost)
        if best <= target:
            return index + 1
    return len(history)


def _entries(n, offset=0):
    return [
        (memo_key({"w": float(i + 1)}), (0.1 * i, {"gain": float(i)}))
        for i in range(offset, offset + n)
    ]


# --------------------------------------------------------------- EvalStore


class TestEvalStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = EvalStore(tmp_path)
        key = memo_key({"w": 1e-6, "l": 2e-6})
        assert store.get(FP, key) is None
        assert store.put_many(FP, [(key, (0.5, {"gain": 10.0}))]) == 1
        assert store.get(FP, key) == (0.5, {"gain": 10.0})
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_metrics_none_roundtrips(self, tmp_path):
        store = EvalStore(tmp_path)
        key = memo_key({"w": 1.0})
        store.put_many(FP, [(key, (100.0, None))])
        assert store.get(FP, key) == (100.0, None)

    def test_insert_or_ignore_is_idempotent(self, tmp_path):
        store = EvalStore(tmp_path)
        entries = _entries(4)
        assert store.put_many(FP, entries) == 4
        # Re-flushing the same rows (pool rebuild, overlapping memo
        # snapshots) inserts nothing and changes nothing.
        assert store.put_many(FP, entries) == 0
        assert store.count(FP) == 4

    def test_fingerprint_isolation(self, tmp_path):
        store = EvalStore(tmp_path)
        key = memo_key({"w": 1.0})
        store.put_many("fp-a", [(key, (1.0, None))])
        store.put_many("fp-b", [(key, (2.0, None))])
        assert store.get("fp-a", key) == (1.0, None)
        assert store.get("fp-b", key) == (2.0, None)
        assert store.count("fp-a") == 1
        assert store.count() == 2

    def test_generation_is_a_monotone_watermark(self, tmp_path):
        store = EvalStore(tmp_path)
        assert store.generation() == 0
        store.put_many(FP, _entries(3))
        first = store.generation()
        assert first >= 3
        store.put_many(FP, _entries(2, offset=10))
        assert store.generation() > first

    def test_corpus_in_insertion_order_with_watermark(self, tmp_path):
        store = EvalStore(tmp_path)
        store.put_many(FP, _entries(3))
        watermark = store.generation()
        store.put_many(FP, _entries(2, offset=10))
        full = store.corpus(FP)
        assert len(full) == 5
        assert [cost for _, cost in full[:3]] == [0.0, 0.1, 0.2]
        bounded = store.corpus(FP, up_to_generation=watermark)
        assert bounded == full[:3]

    def test_corrupt_file_degrades_with_diagnostic(self, tmp_path):
        (tmp_path / STORE_FILENAME).write_bytes(b"this is not sqlite\n" * 64)
        log = DiagnosticLog(mirror=False)
        store = EvalStore(tmp_path, diagnostics=log)
        assert store.get(FP, memo_key({"w": 1.0})) is None
        assert store.disabled
        assert store.put_many(FP, _entries(1)) == 0  # no-op, no raise
        assert len(log) == 1
        diagnostic = list(log)[0]
        assert diagnostic.subsystem == "store.evals"
        assert diagnostic.severity == "warning"

    def test_schema_mismatch_degrades(self, tmp_path):
        store = EvalStore(tmp_path)
        store.put_many(FP, _entries(1))
        store.close()
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        log = DiagnosticLog(mirror=False)
        reopened = EvalStore(tmp_path, diagnostics=log)
        assert reopened.get(FP, _entries(1)[0][0]) is None
        assert reopened.disabled
        assert "schema version" in reopened.disable_reason

    def test_unwritable_directory_degrades(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should be")
        log = DiagnosticLog(mirror=False)
        store = EvalStore(target / "sub", diagnostics=log)
        assert store.generation() == 0
        assert store.disabled
        assert len(log) == 1

    def test_transiently_locked_open_is_retried(self, tmp_path, monkeypatch):
        """A lock conflict at open costs a retry, not the whole run."""
        connect = sqlite3.connect
        attempts = []

        def locked_once(*args, **kwargs):
            attempts.append(args)
            if len(attempts) == 1:
                raise sqlite3.OperationalError("database is locked")
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", locked_once)
        log = DiagnosticLog(mirror=False)
        store = EvalStore(tmp_path, diagnostics=log)
        assert store.put_many(FP, _entries(7)) == 7
        assert not store.disabled
        assert len(attempts) == 2
        assert len(log) == 0
        assert store.count(FP) == 7

    def test_lock_outlasting_the_busy_timeout_degrades(
        self, tmp_path, monkeypatch
    ):
        def always_locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(sqlite3, "connect", always_locked)
        log = DiagnosticLog(mirror=False)
        store = EvalStore(tmp_path, diagnostics=log, busy_timeout_s=0.05)
        assert store.put_many(FP, _entries(1)) == 0
        assert store.disabled
        assert "locked" in store.disable_reason
        assert len(log) == 1


def _writer_job(args):
    store_dir, offset = args
    store = EvalStore(store_dir)
    written = store.put_many(FP, _entries(50, offset=offset))
    store.close()
    return written


class TestConcurrentWriters:
    @pytest.mark.timeout(60)
    def test_parallel_processes_interleave_safely(self, tmp_path):
        jobs = [(str(tmp_path), 100 * i) for i in range(4)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            written = pool.map(_writer_job, jobs)
        assert written == [50, 50, 50, 50]
        store = EvalStore(tmp_path)
        assert store.count(FP) == 200
        assert not store.disabled


# ------------------------------------------------------------ two-tier memo


class TestTwoTierMemo:
    def test_lookup_reads_through_and_promotes(self, tmp_path):
        store = EvalStore(tmp_path)
        params = {"w": 2e-6}
        store.put_many(FP, [(memo_key(params), (0.3, {"gain": 5.0}))])
        memo = EvalMemo()
        memo.bind(FP, store)
        assert memo.lookup(params) == (0.3, {"gain": 5.0})
        assert (memo.hits, memo.store_hits, memo.misses) == (0, 1, 0)
        assert memo.lookups == 1
        assert memo.hit_rate == 1.0
        # Promotion: the second lookup is a pure memory hit.
        assert memo.lookup(params) == (0.3, {"gain": 5.0})
        assert (memo.hits, memo.store_hits) == (1, 1)
        # Promotion never re-queues a write for an already-stored row.
        assert memo.pending_writes == 0

    def test_store_tier_backstops_lru_eviction(self, tmp_path):
        store = EvalStore(tmp_path)
        memo = EvalMemo(capacity=2)
        memo.bind(FP, store)
        for i in range(4):
            memo.store({"w": float(i + 1)}, 0.1 * i, None)
        assert memo.flush_store() == 4
        assert memo.evictions == 2
        # The evicted entries survive on disk and promote back in.
        assert memo.lookup({"w": 1.0}) == (0.0, None)
        assert memo.store_hits == 1

    def test_flush_drains_and_is_idempotent(self, tmp_path):
        store = EvalStore(tmp_path)
        memo = EvalMemo()
        memo.bind(FP, store)
        memo.store({"w": 1.0}, 0.5, {"gain": 1.0})
        assert memo.pending_writes == 1
        assert memo.flush_store() == 1
        assert memo.pending_writes == 0
        assert memo.flush_store() == 0
        assert memo.store_writes == 1

    def test_binding_without_a_store_detaches_it(self, tmp_path):
        store = EvalStore(tmp_path)
        memo = EvalMemo()
        memo.bind(FP, store)
        memo.bind(FP)
        assert memo.bound_store is None
        memo.store({"w": 99.0}, 1.0, None)
        assert memo.pending_writes == 0
        assert memo.flush_store() == 0
        assert store.count() == 0

    def test_merge_queues_new_entries_for_flush(self, tmp_path):
        store = EvalStore(tmp_path)
        parent = EvalMemo()
        parent.bind(FP, store)
        worker = EvalMemo()
        worker.store({"w": 1.0}, 0.1, None)
        worker.store({"w": 2.0}, 0.2, None)
        parent.merge(worker.export())
        assert parent.pending_writes == 2
        assert parent.flush_store() == 2
        assert store.count(FP) == 2

    def test_unbound_memo_behaves_classically(self):
        memo = EvalMemo()
        memo.store({"w": 1.0}, 0.1, None)
        assert memo.lookup({"w": 1.0}) == (0.1, None)
        assert memo.lookup({"w": 2.0}) is None
        assert memo.store_hits == 0
        assert memo.pending_writes == 0
        assert memo.flush_store() == 0


# ------------------------------------------------------------ counter merge


class TestMergeGenerationDedup:
    """Merged counters add up: each snapshot is one chain's growth."""

    def test_distinct_memos_both_count(self):
        a, b = EvalMemo(), EvalMemo()
        for memo in (a, b):
            memo.store({"x": 1.0}, 0.1, None)
            memo.lookup({"x": 1.0})
        parent = EvalMemo()
        parent.merge(a.export())
        parent.merge(b.export())
        assert parent.hits == 2
        assert parent.stores == 2


# ----------------------------------------------------- synthesis end-to-end


class TestStoreBackedSynthesis:
    def test_warm_run_is_bit_identical_and_hits(self, tmp_path, monkeypatch):
        from repro.synthesis.problems import OpAmpSizingProblem

        evaluations = []
        evaluate = OpAmpSizingProblem.evaluate

        def counted(problem, params):
            evaluations.append(params)
            return evaluate(problem, params)

        monkeypatch.setattr(OpAmpSizingProblem, "evaluate", counted)
        kwargs = dict(seed=1, store_dir=str(tmp_path / "store"), **OPAMP1_KW)
        cold = synthesize_opamp(TECH, OPAMP1, TOPO, **kwargs)
        cold_evaluations = len(evaluations)
        warm = synthesize_opamp(TECH, OPAMP1, TOPO, **kwargs)
        assert cold.store_writes > 0
        # Every evaluation of the warm run is served from the store.
        assert len(evaluations) == cold_evaluations
        assert warm.store_hits == cold.store_writes
        assert warm.store_writes == 0
        assert _chain_summary(warm) == _chain_summary(cold)
        assert warm.best_cost == cold.best_cost
        assert warm.params == cold.params
        assert warm.metrics == cold.metrics

    def test_rows_of_the_previous_evaluator_are_not_served(
        self, tmp_path, monkeypatch
    ):
        import repro.synthesis.engine as engine

        kwargs = dict(seed=3, restarts=2, workers=1, **RUN_KW)
        store_dir = str(tmp_path / "store")
        fingerprint = engine._run_fingerprint

        def version_1_namespace(**parts):
            # The store namespace as the bisection evaluator wrote it.
            if str(parts.get("kind", "")).startswith("eval-store/"):
                parts["kind"] = "eval-store/1"
            return fingerprint(**parts)

        monkeypatch.setattr(engine, "_run_fingerprint", version_1_namespace)
        old = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                               **kwargs)
        assert old.store_writes > 0
        monkeypatch.undo()
        new = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                               **kwargs)
        assert new.store_hits == 0
        assert new.store_writes > 0

    @pytest.mark.timeout(300)
    def test_only_the_parent_writes(self, tmp_path):
        kwargs = dict(
            seed=3, restarts=4, workers=2, oversubscribe=True, **RUN_KW
        )
        store_dir = str(tmp_path / "store")
        cold = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                                **kwargs)
        assert cold.workers == 2
        assert cold.store_writes > 0
        assert EvalStore(store_dir).count() == cold.store_writes
        warm = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                                **kwargs)
        assert warm.store_writes == 0
        assert EvalStore(store_dir).count() == cold.store_writes

    def test_memo_reused_without_a_store_leaves_the_store_alone(
        self, tmp_path
    ):
        oa3 = OpAmpSpec(gain=250, ugf=8.0e6, area=1000e-12, ibias=1e-6,
                        cl=10e-12)
        oa4 = OpAmpSpec(gain=150, ugf=3.0e6, area=1000e-12, ibias=100e-6,
                        cl=10e-12)
        mirror = OpAmpTopology(
            current_source="mirror", output_buffer=False, z_load=math.inf
        )
        kwargs = dict(mode="standalone", max_evaluations=60, workers=1)
        store_dir = str(tmp_path / "store")
        memo = EvalMemo()
        synthesize_opamp(TECH, oa3, mirror, name="oa3", seed=11, memo=memo,
                         store_dir=store_dir, **kwargs)
        synthesize_opamp(TECH, oa4, mirror, name="oa4", seed=5, memo=memo,
                         **kwargs)
        stored = synthesize_opamp(TECH, oa3, mirror, name="oa3", seed=5,
                                  store_dir=store_dir, **kwargs)
        plain = synthesize_opamp(TECH, oa3, mirror, name="oa3", seed=5,
                                 **kwargs)
        assert stored.best_cost == plain.best_cost
        assert stored.params == plain.params
        assert _chain_summary(stored) == _chain_summary(plain)

    def test_store_without_the_memo_is_refused(self, tmp_path, monkeypatch):
        """The store is the memo's back tier, which ``memo=False`` would
        never open: the pair is refused before any evaluation."""
        from repro.synthesis.problems import OpAmpSizingProblem

        def evaluate(problem, params):
            raise AssertionError("no candidate may be evaluated")

        monkeypatch.setattr(OpAmpSizingProblem, "evaluate", evaluate)
        store_dir = tmp_path / "store"
        with pytest.raises(SpecificationError, match="store_dir"):
            synthesize_opamp(
                TECH, SPEC, TOPO, seed=1, memo=False,
                store_dir=str(store_dir), **RUN_KW
            )
        assert not store_dir.exists()

    def test_store_off_matches_plain_run(self, tmp_path):
        kwargs = dict(seed=3, restarts=2, workers=1, **RUN_KW)
        plain = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        stored = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(tmp_path / "s"), **kwargs
        )
        assert _chain_summary(stored) == _chain_summary(plain)
        assert stored.best_cost == plain.best_cost
        assert plain.store_dir is None
        assert plain.store_hits == plain.store_writes == 0

    def test_results_worker_count_independent_with_store(self, tmp_path):
        kwargs = dict(seed=5, restarts=3, surrogate="rank", **RUN_KW)
        store_dir = str(tmp_path / "store")
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                         seed=50, restarts=2, workers=1, **RUN_KW)
        # One store for both sides: the rows the first measured run
        # appends may only make the second faster.
        one = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, workers=1, **kwargs
        )
        pooled = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, workers=3,
            oversubscribe=True, **kwargs
        )
        assert pooled.workers == 3
        assert pooled.store_hits > 0
        assert _chain_summary(one) == _chain_summary(pooled)
        assert one.best_cost == pooled.best_cost
        assert one.surrogate_skips == pooled.surrogate_skips > 0

    def test_surrogate_requires_known_mode(self):
        with pytest.raises(SpecificationError):
            synthesize_opamp(TECH, SPEC, TOPO, surrogate="banana", **RUN_KW)

    def test_surrogate_counters_surface(self, tmp_path):
        store_dir = str(tmp_path / "s")
        warm_kw = dict(seed=11, restarts=2, workers=1, **RUN_KW)
        warm_kw["max_evaluations"] = 60
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir, **warm_kw)
        ranked = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, surrogate="rank",
            **warm_kw
        )
        assert ranked.surrogate == "rank"
        assert ranked.surrogate_skips > 0

    def test_corrupt_store_degrades_to_memory_only(self, tmp_path):
        store_dir = tmp_path / "bad"
        store_dir.mkdir()
        (store_dir / STORE_FILENAME).write_bytes(b"garbage" * 100)
        log = DiagnosticLog(mirror=False)
        kwargs = dict(seed=3, restarts=2, workers=1, diagnostics=log,
                      **RUN_KW)
        broken = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(store_dir), **kwargs
        )
        plain = synthesize_opamp(TECH, SPEC, TOPO, **RUN_KW, seed=3,
                                 restarts=2, workers=1)
        assert broken.best_cost == plain.best_cost
        assert broken.store_hits == broken.store_writes == 0
        assert any(d.subsystem == "store.evals" for d in log)


class TestApeScreen:
    """``surrogate="rank"``: each move evaluates the proposal whose APE
    closed-form estimate costs least."""

    def test_evals_to_target(self):
        history = [10.0, 8.0, 9.0, 4.0, 5.0]
        assert evals_to_target(history, 10.0) == 1
        assert evals_to_target(history, 8.0) == 2
        assert evals_to_target(history, 4.5) == 4
        assert evals_to_target(history, 1.0) == 5  # never reached -> len

    def test_rank_reaches_the_target_in_fewer_evaluations(self):
        """Table-3 OpAmp1, seeds 1-3: summed over the seeds, the
        unscreened legs need at least 1.3x the evaluations the screened
        legs need to reach the worse of each seed's two best costs
        (810 against 574)."""
        off_evals = rank_evals = 0
        for seed in (1, 2, 3):
            off = synthesize_opamp(TECH, OPAMP1, TOPO, seed=seed,
                                   surrogate="off", **OPAMP1_KW)
            rank = synthesize_opamp(TECH, OPAMP1, TOPO, seed=seed,
                                    surrogate="rank", **OPAMP1_KW)
            target = max(off.best_cost, rank.best_cost)
            off_evals += evals_to_target(
                [c for chain in off.chains for c in chain.history], target
            )
            rank_evals += evals_to_target(
                [c for chain in rank.chains for c in chain.history], target
            )
        assert off_evals >= 1.3 * rank_evals

    @pytest.mark.timeout(300)
    def test_resume_is_bit_exact_after_the_store_grows(self, tmp_path):
        from repro.runtime import SupervisorConfig

        kwargs = dict(seed=7, restarts=4, workers=1, surrogate="rank",
                      **RUN_KW)
        reference = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(tmp_path / "ref"), **kwargs
        )
        store_dir = str(tmp_path / "store")
        run_dir = str(tmp_path / "run")
        partial = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, run_dir=run_dir,
            supervisor=SupervisorConfig(
                interrupt_after=2, install_signal_handlers=False
            ),
            **kwargs,
        )
        assert partial.interrupted
        assert len(partial.chains) == 2
        # Another run appends rows between the interrupt and the resume.
        rows = EvalStore(store_dir).count()
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                         seed=41, restarts=2, workers=1, **RUN_KW)
        assert EvalStore(store_dir).count() > rows

        resumed = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, run_dir=run_dir,
            resume=True, **kwargs,
        )
        assert resumed.resumed_chains == [0, 1]
        assert len(resumed.chains) == 4
        assert _chain_summary(resumed) == _chain_summary(reference)
        assert resumed.best_cost == reference.best_cost
        assert resumed.params == reference.params
        assert resumed.surrogate_skips == reference.surrogate_skips > 0

    def test_run_dir_of_the_learned_screen_is_refused(
        self, tmp_path, monkeypatch
    ):
        import repro.synthesis.engine as engine
        from repro.runtime import SupervisorConfig
        from repro.runtime.journal import RunJournal

        journal_parts = []
        fingerprint = engine._run_fingerprint

        def recording(**parts):
            if "schema" in parts:
                journal_parts.append(dict(parts))
            return fingerprint(**parts)

        monkeypatch.setattr(engine, "_run_fingerprint", recording)
        kwargs = dict(seed=7, restarts=2, workers=1, **RUN_KW)
        interrupt = SupervisorConfig(
            interrupt_after=1, install_signal_handlers=False
        )
        rank_dir = tmp_path / "rank"
        synthesize_opamp(TECH, SPEC, TOPO, surrogate="rank",
                         run_dir=str(rank_dir), supervisor=interrupt,
                         **kwargs)
        parts = journal_parts[-1]
        assert parts["surrogate"] == "rank/ape"
        # The fingerprint a run dir of the ridge-screened code carries.
        learned = fingerprint(**{**parts, "surrogate": "rank"})
        manifest_path = rank_dir / RunJournal.MANIFEST
        manifest = json.loads(manifest_path.read_text())
        current = manifest["fingerprint"]
        assert current != learned
        manifest["fingerprint"] = learned
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SpecificationError) as excinfo:
            synthesize_opamp(TECH, SPEC, TOPO, surrogate="rank",
                             run_dir=str(rank_dir), resume=True, **kwargs)
        assert current in str(excinfo.value)
        assert learned in str(excinfo.value)

        # Off runs add no part, so their run dirs keep resuming.
        off_dir = str(tmp_path / "off")
        synthesize_opamp(TECH, SPEC, TOPO, run_dir=off_dir,
                         supervisor=interrupt, **kwargs)
        assert "surrogate" not in journal_parts[-1]
        resumed = synthesize_opamp(TECH, SPEC, TOPO, run_dir=off_dir,
                                   resume=True, **kwargs)
        assert resumed.resumed_chains == [0]
        assert len(resumed.chains) == 2

    def test_unsupported_topology_runs_unscreened(self):
        folded = OpAmpTopology(diff_pair="folded")
        spec = OpAmpSpec(gain=3000.0, ugf=5e6, ibias=5e-6, cl=5e-12)
        kwargs = dict(mode="ape", max_evaluations=25, name="fc", seed=3)
        off = synthesize_opamp(TECH, spec, folded, **kwargs)
        rank = synthesize_opamp(TECH, spec, folded, surrogate="rank",
                                **kwargs)
        assert _chain_summary(rank) == _chain_summary(off)
        assert rank.best_cost == off.best_cost
        assert rank.params == off.params
        assert rank.surrogate_skips == 0
        notes = [
            d for d in rank.diagnostics
            if d.subsystem == "synthesis.surrogate"
        ]
        assert len(notes) == 1
        assert notes[0].severity == "info"
        assert "unscreened" in notes[0].message


# ----------------------------------------------------------------- CLI/JSON


class TestCliSurface:
    def test_synthesize_store_flags(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = [
            "synthesize", "--gain", "100", "--ugf", "2Meg",
            "--ibias", "2u", "--budget", "25", "--restarts", "2",
            "--workers", "1", "--store-dir", store_dir,
            "--surrogate", "rank",
        ]
        main(argv)
        cold = capsys.readouterr().out
        assert "store:" in cold and "new rows" in cold
        assert "surrogate:   rank" in cold
        main(argv)
        warm = capsys.readouterr().out
        hits = int(warm.split("store:")[1].split("(")[1].split()[0])
        assert hits > 0

    def test_diagnostics_json_carries_store_counters(self, capsys):
        from repro.cli import main

        code = main(["diagnostics", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "diagnostics" in payload
        for field in ("store_hits", "store_writes", "surrogate_skips",
                      "cache_hits", "evaluations"):
            assert field in payload["stats"]
