"""Persistent evaluation store, two-tier memo and surrogate screen.

Locks in the contracts of :mod:`repro.store`:

* cache hits — memory or disk — may only change speed, never results
  (canonical evaluation), so warm runs are bit-identical to cold ones;
* the store survives concurrent multi-process writers (WAL) and every
  failure path degrades to the in-memory memo with a Diagnostic;
* surrogate screening is a pure function of (journaled store corpus,
  chain-local observations) — worker-count independent, bit-exact on
  ``--resume``, and bit-identical to ``surrogate="off"`` until the
  model activates;
* counter merging across the pool boundary dedupes by memo generation
  (the double-count regression behind pool rebuilds).
"""

import json
import multiprocessing
import shutil
import sqlite3

import pytest

from repro.errors import SpecificationError
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.parallel import EvalMemo, memo_key
from repro.parallel.memo import DEFAULT_QUANTUM
from repro.runtime.diagnostics import DiagnosticLog
from repro.store import (
    DEFAULT_MIN_SAMPLES,
    EvalStore,
    RidgeSurrogate,
    STORE_FILENAME,
    SurrogateScreen,
)
from repro.synthesis import synthesize_opamp
from repro.technology import generic_05um

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)

RUN_KW = dict(mode="ape", max_evaluations=25, name="st", tolerant=True)

FP = "fp-test"


def _chain_summary(result):
    """The scheduling/storage-independent portion of a SynthesisResult."""
    return [
        (c.best_cost, c.best_params, c.best_metrics, c.evaluations,
         c.accepted, c.failed_evaluations, c.stop_reason)
        for c in result.chains
    ]


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

    def test_read_only_rejects_writes(self, tmp_path):
        EvalStore(tmp_path).put_many(FP, _entries(1))
        reader = EvalStore(tmp_path, read_only=True)
        assert reader.get(FP, _entries(1)[0][0]) is not None
        with pytest.raises(RuntimeError):
            reader.put_many(FP, _entries(1, offset=5))

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
        memo.bind_store(store, FP)
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
        memo.bind_store(store, FP)
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
        memo.bind_store(store, FP)
        memo.store({"w": 1.0}, 0.5, {"gain": 1.0})
        assert memo.pending_writes == 1
        assert memo.flush_store() == 1
        assert memo.pending_writes == 0
        assert memo.flush_store() == 0
        assert memo.store_writes == 1

    def test_readonly_binding_never_queues(self, tmp_path):
        EvalStore(tmp_path).put_many(FP, _entries(1))
        memo = EvalMemo()
        memo.bind_store(EvalStore(tmp_path, read_only=True), FP)
        memo.store({"w": 99.0}, 1.0, None)
        assert memo.pending_writes == 0
        assert memo.flush_store() == 0

    def test_merge_queues_new_entries_for_flush(self, tmp_path):
        store = EvalStore(tmp_path)
        parent = EvalMemo()
        parent.bind_store(store, FP)
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


# ----------------------------------------------- counter-merge dedup (gen)


class TestMergeGenerationDedup:
    def test_same_snapshot_merged_twice_counts_once(self):
        """Regression: a pool rebuild re-delivers a worker snapshot."""
        worker = EvalMemo()
        worker.store({"a": 1.0}, 0.1, None)
        worker.lookup({"a": 1.0})
        worker.lookup({"b": 1.0})
        snapshot = worker.export()
        parent = EvalMemo()
        parent.merge(snapshot)
        parent.merge(snapshot)  # the rebuild's duplicate delivery
        assert parent.hits == worker.hits
        assert parent.misses == worker.misses
        assert parent.stores == worker.stores

    def test_cumulative_snapshots_add_only_the_delta(self):
        """Worker memos outlive chains: each chain snapshot carries the
        worker's cumulative totals, not per-chain counts."""
        worker = EvalMemo()
        worker.store({"a": 1.0}, 0.1, None)
        worker.lookup({"a": 1.0})
        parent = EvalMemo()
        parent.merge(worker.export())  # after chain 1
        worker.lookup({"a": 1.0})
        worker.lookup({"c": 1.0})
        parent.merge(worker.export())  # after chain 2
        assert parent.hits == worker.hits == 2
        assert parent.misses == worker.misses == 1

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

    def test_legacy_snapshot_without_generation_adds_plainly(self):
        worker = EvalMemo()
        worker.store({"a": 1.0}, 0.1, None)
        worker.lookup({"a": 1.0})
        snapshot = worker.export()
        del snapshot["generation"]  # pre-generation journal payload
        parent = EvalMemo()
        parent.merge(snapshot)
        parent.merge(snapshot)
        assert parent.hits == 2  # no dedup possible — documents the gap


# ---------------------------------------------------------------- surrogate


class TestRidgeSurrogate:
    def test_learns_a_quadratic_bowl(self):
        model = RidgeSurrogate(1, l2=1e-9)
        xs = [[0.1 * i] for i in range(-10, 11)]
        ys = [3.0 + (x[0] - 0.4) ** 2 for x in xs]
        assert model.fit(xs, ys)
        best = min(xs, key=lambda x: float(model.predict([x])[0]))
        assert best[0] == pytest.approx(0.4, abs=0.11)

    def test_singular_fit_keeps_previous_weights(self):
        model = RidgeSurrogate(1, l2=1e-6)
        assert model.fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        weights_before = model.predict([[1.5]])
        # Degenerate refit data (all-identical rows, non-finite target)
        # must not poison the model.
        assert not model.fit([[1.0], [1.0]], [float("nan"), float("nan")])
        assert model.fitted
        assert model.predict([[1.5]]) == pytest.approx(weights_before)


class TestSurrogateScreen:
    def _screen(self, **kw):
        kw.setdefault("min_samples", 6)
        return SurrogateScreen(("l", "w"), DEFAULT_QUANTUM, **kw)

    def test_inactive_below_min_samples(self):
        screen = self._screen()
        assert not screen.active
        for i in range(5):
            screen.observe({"w": 1.0 + i, "l": 2.0 + i}, float(i))
        assert not screen.active
        screen.observe({"w": 9.0, "l": 9.0}, 9.0)
        assert screen.active

    def test_min_samples_floor_scales_with_dims(self):
        screen = SurrogateScreen(
            ("a", "b", "c", "d"), DEFAULT_QUANTUM, min_samples=2
        )
        assert screen.min_samples == 2 * 4 + 2

    def test_select_is_deterministic_and_counts_skips(self):
        screen = self._screen()
        for i in range(12):
            w = 1.0 + 0.3 * i
            screen.observe({"w": w, "l": 1.0}, (w - 2.5) ** 2)
        proposals = [{"w": 1.2, "l": 1.0}, {"w": 2.4, "l": 1.0},
                     {"w": 4.0, "l": 1.0}]
        first = screen.select(proposals)
        assert first == {"w": 2.4, "l": 1.0}
        assert screen.skips == 2
        assert screen.select(proposals) == first  # pure re-rank

    def test_seed_corpus_decodes_quantized_keys(self):
        screen = self._screen()
        rows = [
            (memo_key({"w": 1.0 + 0.3 * i, "l": 1.0}), float(i))
            for i in range(8)
        ]
        assert screen.seed_corpus(rows) == 8
        assert screen.active

    def test_seed_corpus_skips_foreign_rows(self):
        screen = self._screen()
        rows = [
            (memo_key({"w": 1.0, "l": 1.0}, tag="corner:ss"), 1.0),
            (memo_key({"w": 1.0}), 2.0),  # wrong parameter set
            (memo_key({"w": -1.0, "l": 1.0}), 3.0),  # non-int quant
        ]
        assert screen.seed_corpus(rows) == 0

    def test_unfitted_select_returns_first(self):
        screen = self._screen()
        proposals = [{"w": 5.0, "l": 1.0}, {"w": 1.0, "l": 1.0}]
        assert screen.select(proposals) is proposals[0]
        assert screen.skips == 0


# ----------------------------------------------------- synthesis end-to-end


class TestStoreBackedSynthesis:
    def test_warm_run_is_bit_identical_and_hits(self, tmp_path):
        kwargs = dict(seed=3, restarts=2, workers=1, **RUN_KW)
        store_dir = str(tmp_path / "store")
        cold = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                                **kwargs)
        warm = synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                                **kwargs)
        assert cold.store_writes > 0
        assert warm.store_hits > 0
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
        warm_dir = tmp_path / "warm"
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=str(warm_dir),
                         seed=50, restarts=2, workers=1, **RUN_KW)
        # Identical store content for both sides: the first measured
        # run appends rows, which would advance the second run's
        # corpus watermark.
        copy_dir = tmp_path / "copy"
        shutil.copytree(warm_dir, copy_dir)
        one = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(warm_dir), workers=1, **kwargs
        )
        pooled = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(copy_dir), workers=3,
            oversubscribe=True, **kwargs
        )
        assert _chain_summary(one) == _chain_summary(pooled)
        assert one.best_cost == pooled.best_cost
        assert one.surrogate_skips == pooled.surrogate_skips

    def test_inactive_surrogate_is_bit_identical_to_off(self, tmp_path):
        # 25 evaluations per chain < DEFAULT_MIN_SAMPLES + refit data on
        # a fresh store: the screen never activates, so the trajectory
        # (including RNG stream) must equal surrogate="off" exactly.
        assert RUN_KW["max_evaluations"] < DEFAULT_MIN_SAMPLES + 2
        kwargs = dict(seed=7, restarts=2, workers=1, **RUN_KW)
        off = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(tmp_path / "a"),
            surrogate="off", **kwargs
        )
        rank = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(tmp_path / "b"),
            surrogate="rank", **kwargs
        )
        assert _chain_summary(rank) == _chain_summary(off)
        assert rank.surrogate_skips == 0

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
        assert ranked.surrogate_refits > 0

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

    @pytest.mark.timeout(300)
    def test_resume_trains_on_the_journaled_generation(self, tmp_path):
        """A resumed surrogate run must replay bit-exactly even after
        other runs appended rows to the shared store."""
        from repro.runtime import SupervisorConfig

        store_dir = str(tmp_path / "store")
        # Prime a corpus so the measured runs seed their surrogate
        # from a nonzero generation.
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                         seed=40, restarts=2, workers=1, **RUN_KW)
        kwargs = dict(seed=7, restarts=4, workers=1, surrogate="rank",
                      **RUN_KW)
        reference_dir = tmp_path / "refcopy"
        shutil.copytree(tmp_path / "store", reference_dir)
        reference = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=str(reference_dir), **kwargs
        )

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
        # Another run appends rows between the interrupt and the
        # resume — the journaled generation must shield the replay.
        synthesize_opamp(TECH, SPEC, TOPO, store_dir=store_dir,
                         seed=41, restarts=2, workers=1, **RUN_KW)

        resumed = synthesize_opamp(
            TECH, SPEC, TOPO, store_dir=store_dir, run_dir=run_dir,
            resume=True, **kwargs,
        )
        assert resumed.resumed_chains == [0, 1]
        assert len(resumed.chains) == 4
        assert _chain_summary(resumed) == _chain_summary(reference)
        assert resumed.best_cost == reference.best_cost
        assert resumed.params == reference.params


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
                      "surrogate_refits", "cache_hits", "evaluations"):
            assert field in payload["stats"]
