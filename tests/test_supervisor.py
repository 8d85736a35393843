"""Supervised parallel runtime: crash/hang recovery, journal, resume.

Locks in the tentpole guarantees of :mod:`repro.runtime.supervisor`,
:mod:`repro.runtime.journal` and the supervised executor loop:

* a worker killed mid-run (injected ``worker.kill``) is detected as a
  broken pool, the pool is rebuilt exactly once, and the lost chains
  re-run to results bit-for-bit identical to a fault-free run;
* a hung worker (injected ``worker.hang``) is detected by heartbeat
  staleness, killed, and recovered the same way;
* poison tasks (worker faults kept on retry) are quarantined after a
  bounded number of retries and the run still returns the chains that
  did complete, flagged ``degraded``;
* an interrupted run journals its finished chains and ``resume``
  replays them, reproducing the uninterrupted run's best result
  bit-for-bit;
* SIGINT drains to a best-so-far partial result instead of raising,
  also when it arrives during the last chain; a second SIGINT abandons
  an in-process chain at its next candidate.

Everything here leans on the executor's determinism contract: chain
results are pure functions of their tasks, so recovery and resume are
invisible in the numbers.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ApeError, SpecificationError
from repro.opamp import OpAmpSpec, OpAmpTopology
from repro.parallel import EvalMemo
from repro.runtime import (
    PoolManager,
    RunJournal,
    SupervisionReport,
    SupervisorConfig,
    faults,
)
from repro.runtime.faults import FaultSpec, arm_from_env, injected_faults
from repro.runtime.journal import outcome_from_jsonable, outcome_to_jsonable
from repro.synthesis import synthesize_opamp
from repro.synthesis.annealing import AnnealResult
from repro.technology import generic_05um

TECH = generic_05um()
SPEC = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=10e-12)
TOPO = OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)

#: Small-but-real synthesis workload shared by the recovery tests.
RUN_KW = dict(mode="ape", max_evaluations=20, name="sup", tolerant=True)

#: A ``chain-finished`` line as the journal wrote it before its codec
#: read ``AnnealResult``'s declaration (``repro synthesize --gain 100
#: --ugf 2Meg --budget 3 --restarts 2 --workers 1 --seed 3 --run-dir D``).
EARLIER_RECORD = (
    '{"event": "chain-finished", "outcome": {"chain_index": 0, '
    '"seed": 3, '
    '"anneal": {"best_params": {"tail_source.input.w": 9e-07, '
    '"tail_source.input.l": 3.5691466833682847e-06, '
    '"tail_source.output.w": 8.45e-06, '
    '"tail_source.output.l": 1.2e-06, "diff.pair.w": 5.35e-06, '
    '"diff.pair.l": 1.2e-06, "diff.load.w": 9.149999999999999e-06, '
    '"diff.load.l": 1.2e-06, "r.ref": 4052239.678129221}, '
    '"best_cost": 0.03212217403158384, '
    '"best_metrics": {"gate_area": 4.815223201503145e-11, '
    '"dc_power": 0.00016061087015791924, "offset": 0.0, '
    '"i_ref": 9.976586240408842e-07, "gain": 105.34306008644865, '
    '"ugf": 2242351.399957827, "phase_margin": 90.35229110774682}, '
    '"evaluations": 3, "accepted": 1, '
    '"history": [0.03212217403158384, 0.03212217403158384, '
    '0.03212223814435639], "failed_evaluations": 0, '
    '"degraded": false, "stop_reason": "", '
    '"wall_seconds": 0.004811061000509653, '
    '"evals_per_second": 623.5630767687625, "surrogate_skips": 0}, '
    '"degraded_design": false, "ape_seconds": 0.0005508879985427484, '
    '"lint_rejections": 0, "retries": 0, "cache_hits": 0, '
    '"cache_misses": 3, "corner_evals": 0, "screened_candidates": 0, '
    '"store_hits": 0, "surrogate_skips": 0, "diagnostics": []}}'
)


def _chain_summary(result):
    """The scheduling/recovery-independent portion of a result."""
    return [
        (c.best_cost, c.best_params, c.best_metrics, c.evaluations,
         c.accepted, c.failed_evaluations, c.stop_reason)
        for c in result.chains
    ]


def _quiet_config(**overrides):
    overrides.setdefault("install_signal_handlers", False)
    return SupervisorConfig(**overrides)


# ----------------------------------------------------------- fault plumbing


class TestWorkerFaultSpecs:
    def test_env_parses_chain_target(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=5,worker.kill=1.0:1@2")
        injector = arm_from_env()
        try:
            spec = injector.specs["worker.kill"]
            assert spec.probability == 1.0
            assert spec.max_fires == 1
            assert spec.chain == 2
            assert injector.seed == 5
        finally:
            faults.disarm()

    def test_env_chain_without_max_fires(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang=1.0@0")
        injector = arm_from_env()
        try:
            spec = injector.specs["worker.hang"]
            assert spec.max_fires is None
            assert spec.chain == 0
        finally:
            faults.disarm()

    def test_env_rejects_bad_chain(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.kill=1.0@nope")
        with pytest.raises(ApeError):
            arm_from_env()

    def test_negative_chain_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("worker.kill", chain=-1)

    def test_worker_faults_never_fire_in_process(self):
        # A worker fault armed outside a pool worker must be inert:
        # restarts=1 runs in this very process, and an os._exit here
        # would take the test runner down.
        with injected_faults(
            {"worker.kill": FaultSpec("worker.kill", 1.0)}, seed=1
        ):
            result = synthesize_opamp(TECH, SPEC, TOPO, seed=3, **RUN_KW)
        assert result.metrics is not None


class TestSupervisorConfig:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_chain_retries=-1)

    @pytest.mark.parametrize(
        "field", ["chain_timeout_seconds", "heartbeat_timeout_seconds"]
    )
    def test_rejects_nonpositive_timeouts(self, field):
        with pytest.raises(ValueError):
            SupervisorConfig(**{field: 0.0})

    def test_report_counts_and_merge(self):
        a = SupervisionReport()
        a.record("worker-restart")
        a.record("chain-retried", 1)
        a.worker_restarts = 1
        b = SupervisionReport()
        b.record("chain-retried", 2)
        b.interrupted = True
        a.merge(b)
        assert a.counts() == {"worker-restart": 1, "chain-retried": 2}
        assert a.interrupted


# --------------------------------------------------------- crash recovery


class TestWorkerKillRecovery:
    @pytest.mark.timeout(300)
    def test_killed_worker_recovers_bit_for_bit(self):
        """Fault plan kills exactly one worker mid-run; the 4-restart
        synthesis completes with every chain identical to a fault-free
        run."""
        kwargs = dict(
            seed=5, restarts=4, workers=2, oversubscribe=True, **RUN_KW
        )
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)

        kill_one = FaultSpec("worker.kill", 1.0, max_fires=1, chain=1)
        with injected_faults({"worker.kill": kill_one}, seed=9):
            recovered = synthesize_opamp(
                TECH, SPEC, TOPO, supervisor=_quiet_config(), **kwargs
            )

        # Exact counts: one worker died, one pool rebuild, nothing
        # quarantined, nothing lost.
        assert recovered.worker_restarts == 1
        assert recovered.quarantined_chains == []
        assert not recovered.interrupted
        assert len(recovered.chains) == 4
        retried = [
            d for d in recovered.diagnostics
            if d.subsystem == "synthesis.supervisor"
            and "chain-retried" in d.message
        ]
        assert retried  # chain 1 (at least) was resubmitted
        assert _chain_summary(recovered) == _chain_summary(reference)
        assert recovered.best_cost == reference.best_cost
        assert recovered.params == reference.params


class TestWorkerHangRecovery:
    @pytest.mark.timeout(300)
    def test_hung_worker_detected_and_recovered(self):
        kwargs = dict(
            seed=5, restarts=4, workers=2, oversubscribe=True, **RUN_KW
        )
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)

        hang_one = FaultSpec("worker.hang", 1.0, max_fires=1, chain=2)
        config = _quiet_config(heartbeat_timeout_seconds=1.0)
        start = time.monotonic()
        with injected_faults({"worker.hang": hang_one}, seed=9):
            recovered = synthesize_opamp(
                TECH, SPEC, TOPO, supervisor=config, **kwargs
            )
        wall = time.monotonic() - start

        assert recovered.worker_restarts == 1
        assert recovered.quarantined_chains == []
        hung = [
            d for d in recovered.diagnostics
            if d.subsystem == "synthesis.supervisor"
            and "chain-hung" in d.message
        ]
        assert len(hung) == 1  # detected exactly once
        assert _chain_summary(recovered) == _chain_summary(reference)
        # The watchdog killed the hang, not a test timeout: the whole
        # run (including the ~1 s detection window) stays well under
        # the per-test deadline.
        assert wall < 120


class TestQuarantine:
    @pytest.mark.timeout(300)
    def test_poison_chain_quarantined_with_partial_result(self):
        # Keeping worker faults on retry makes chain 0 die on every
        # attempt: a poison task.  The run must bound its retries,
        # quarantine it, and still return the surviving chains.
        config = _quiet_config(
            max_chain_retries=1, strip_worker_faults_on_retry=False
        )
        with injected_faults(
            {"worker.kill": FaultSpec("worker.kill", 1.0, chain=0)}, seed=9
        ):
            result = synthesize_opamp(
                TECH, SPEC, TOPO, seed=5, restarts=3, workers=2,
                oversubscribe=True, supervisor=config, **RUN_KW
            )
        assert result.quarantined_chains == [0]
        assert result.degraded
        assert len(result.chains) == 2  # chains 1 and 2 completed
        assert result.metrics is not None  # best-so-far, not nothing


# ------------------------------------------------------- journal and resume


class TestRunJournal:
    def test_outcome_roundtrip_is_exact(self):
        outcome_fields = dict(
            chain_index=3,
            seed=123456789,
            degraded_design=True,
            ape_seconds=0.25,
            counts=dict(
                lint_rejections=2, retries=1, cache_hits=7, cache_misses=13,
                corner_evals=0, screened_candidates=0, store_hits=0,
                surrogate_skips=0,
            ),
        )
        anneal = AnnealResult(
            best_params={"w1": 1.2345678901234567e-06, "l1": 1e-300},
            best_cost=0.1,
            best_metrics={"gain": 101.50000000000001},
            evaluations=20,
            accepted=9,
            history=[1.0, 0.5, 0.1],
            failed_evaluations=3,
            degraded=False,
            stop_reason="budget",
            wall_seconds=0.75,
            evals_per_second=26.666666666666668,
        )
        from repro.parallel import ChainOutcome

        outcome = ChainOutcome(anneal=anneal, **outcome_fields)
        payload = json.loads(json.dumps(outcome_to_jsonable(outcome)))
        rebuilt = outcome_from_jsonable(payload)
        # JSON floats round-trip exactly (repr-based shortest encoding).
        assert rebuilt.anneal == anneal
        for key, value in outcome_fields.items():
            assert getattr(rebuilt, key) == value

    def test_outcome_journaled_with_refit_counters_still_loads(self):
        from repro.parallel import ChainOutcome

        anneal = AnnealResult(
            best_params={"w1": 1e-6}, best_cost=0.1, best_metrics=None,
            evaluations=5, accepted=2, surrogate_skips=12,
        )
        payload = outcome_to_jsonable(
            ChainOutcome(chain_index=1, seed=9, anneal=anneal,
                         counts={"surrogate_skips": 12})
        )
        # Journals of the ridge-screened code carried a refit counter.
        payload["surrogate_refits"] = 3
        payload["anneal"]["surrogate_refits"] = 3
        rebuilt = outcome_from_jsonable(payload)
        assert rebuilt.anneal == anneal
        assert rebuilt.counts["surrogate_skips"] == 12
        assert "surrogate_refits" not in rebuilt.counts

    def test_an_earlier_record_round_trips_byte_for_byte(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "journal.jsonl").write_text(EARLIER_RECORD + "\n")
        (outcome,) = RunJournal(tmp_path / "old").load_outcomes().values()
        (tmp_path / "new").mkdir()
        RunJournal(tmp_path / "new").record_outcome(outcome)
        rewritten = (tmp_path / "new" / "journal.jsonl").read_text()
        assert rewritten == EARLIER_RECORD + "\n"

    def test_a_pre_robust_record_replays_the_newer_counters_as_zero(self):
        """A record journaled before robust synthesis, the store and the
        APE screen carries only the first four counters."""
        from repro.parallel import CHAIN_COUNTERS

        old = {
            "chain_index": 0,
            "seed": 9,
            "anneal": {
                "best_params": {"w1": 1e-6}, "best_cost": 0.1,
                "best_metrics": None, "evaluations": 5, "accepted": 2,
                "history": [0.2, 0.1], "failed_evaluations": 1,
                "degraded": False, "stop_reason": "", "wall_seconds": 0.5,
                "evals_per_second": 10.0,
            },
            "degraded_design": False,
            "ape_seconds": 0.25,
            "lint_rejections": 1,
            "retries": 2,
            "cache_hits": 3,
            "cache_misses": 4,
            "diagnostics": [],
        }
        rebuilt = outcome_from_jsonable(old)
        assert rebuilt.anneal == AnnealResult(
            best_params={"w1": 1e-6}, best_cost=0.1, best_metrics=None,
            evaluations=5, accepted=2, history=[0.2, 0.1],
            failed_evaluations=1, wall_seconds=0.5, evals_per_second=10.0,
        )
        assert list(rebuilt.counts) == list(CHAIN_COUNTERS)
        assert rebuilt.counts == {
            "lint_rejections": 1, "retries": 2, "cache_hits": 3,
            "cache_misses": 4, "corner_evals": 0, "screened_candidates": 0,
            "store_hits": 0, "surrogate_skips": 0,
        }

    def test_journal_tolerates_torn_tail_line(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.initialize({"fingerprint": "f"})
        journal.append("chain-retried", chain_index=0)
        journal.append("worker-restart", chains=[0])
        with open(
            os.path.join(str(tmp_path), RunJournal.JOURNAL),
            "a", encoding="utf-8",
        ) as handle:
            handle.write('{"event": "chain-finished", "outc')  # crash here
        events = list(journal.events())
        assert [e["event"] for e in events] == [
            "chain-retried", "worker-restart",
        ]
        assert journal.load_outcomes() == {}

    def test_initialize_truncates_stale_state(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.initialize({"fingerprint": "old"})
        journal.append("interrupted", pending=[1])
        memo = EvalMemo()
        memo.store({"a": 1.0}, 0.5, {"gain": 1.0})
        journal.snapshot_memo(memo)
        journal.initialize({"fingerprint": "new"})
        assert list(journal.events()) == []
        assert journal.load_memo() is None
        assert journal.load_manifest()["fingerprint"] == "new"

    def test_memo_snapshot_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.initialize({"fingerprint": "f"})
        memo = EvalMemo(capacity=100)
        memo.store({"w": 2e-6, "l": 1e-6}, 0.25, {"gain": 99.9})
        memo.store({"w": 3e-6, "l": 1e-6}, 0.5, None)
        journal.snapshot_memo(memo)
        loaded = journal.load_memo()
        assert loaded.capacity == 100
        assert loaded.lookup({"w": 2e-6, "l": 1e-6}) == (0.25, {"gain": 99.9})
        assert loaded.lookup({"w": 3e-6, "l": 1e-6}) == (0.5, None)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ApeError):
            RunJournal(tmp_path / "nope").load_manifest()


class TestResume:
    @pytest.mark.timeout(300)
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        """The acceptance criterion: interrupt after 2 of 4 chains,
        resume, and the final result is bit-for-bit the uninterrupted
        run's."""
        kwargs = dict(seed=7, restarts=4, workers=1, **RUN_KW)
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)

        run_dir = str(tmp_path / "run")
        partial = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir,
            supervisor=_quiet_config(interrupt_after=2), **kwargs
        )
        assert partial.interrupted
        assert partial.degraded
        assert len(partial.chains) == 2

        resumed = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir, resume=True, **kwargs
        )
        assert resumed.resumed_chains == [0, 1]
        assert not resumed.interrupted
        assert len(resumed.chains) == 4
        assert _chain_summary(resumed) == _chain_summary(reference)
        assert resumed.best_cost == reference.best_cost
        assert resumed.params == reference.params
        assert resumed.metrics == reference.metrics

    @pytest.mark.timeout(300)
    def test_resume_of_finished_run_is_a_no_op(self, tmp_path):
        kwargs = dict(seed=7, restarts=3, workers=1, **RUN_KW)
        run_dir = str(tmp_path / "run")
        first = synthesize_opamp(TECH, SPEC, TOPO, run_dir=run_dir, **kwargs)
        again = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir, resume=True, **kwargs
        )
        assert again.resumed_chains == [0, 1, 2]
        assert _chain_summary(again) == _chain_summary(first)
        assert again.best_cost == first.best_cost

    def test_resume_refuses_foreign_run_directory(self, tmp_path):
        kwargs = dict(restarts=2, workers=1, **RUN_KW)
        run_dir = str(tmp_path / "run")
        synthesize_opamp(TECH, SPEC, TOPO, seed=7, run_dir=run_dir, **kwargs)
        with pytest.raises(SpecificationError):
            synthesize_opamp(
                TECH, SPEC, TOPO, seed=8, run_dir=run_dir, resume=True,
                **kwargs
            )

    def test_resume_refuses_run_of_the_previous_evaluator(
        self, tmp_path, monkeypatch
    ):
        import repro.synthesis.engine as engine

        kwargs = dict(seed=7, restarts=2, workers=1, **RUN_KW)
        run_dir = str(tmp_path / "run")
        fingerprint = engine._run_fingerprint

        def version_1_fingerprint(**parts):
            # The journal fingerprint as the bisection evaluator wrote it.
            parts.pop("evaluator", None)
            return fingerprint(**parts)

        monkeypatch.setattr(engine, "_run_fingerprint", version_1_fingerprint)
        synthesize_opamp(TECH, SPEC, TOPO, run_dir=run_dir, **kwargs)
        monkeypatch.undo()
        with pytest.raises(SpecificationError, match="refusing to resume"):
            synthesize_opamp(
                TECH, SPEC, TOPO, run_dir=run_dir, resume=True, **kwargs
            )

    def test_fingerprints_are_pinned(self, tmp_path):
        """The journal's and the store's problem fingerprints, byte for
        byte: a dropped or renamed part would refuse every existing run
        directory and leave every existing store cold."""
        memo = EvalMemo()
        run_dir = str(tmp_path / "run")
        synthesize_opamp(
            TECH,
            OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12),
            TOPO,
            mode="ape",
            max_evaluations=20,
            seed=1,
            name="OpAmp1",
            memo=memo,
            run_dir=run_dir,
        )
        assert RunJournal(run_dir).load_manifest()["fingerprint"] == (
            "0206e3d460a20c5cfa9dbbca22d1241f12b964c1a86f65a0cde1abc4e4928a86"
        )
        assert memo.bound_fingerprint == (
            "2a34174c77af2e84a51bc8ae7e3f7cda0983a281fa1ec6ff040cc91d211882da"
        )

    def test_optional_fingerprint_parts_are_pinned(self, tmp_path):
        """The same two fingerprints with every optional journal part
        (robust, feasibility, surrogate) and a contracted store box."""
        from repro.synthesis.robust import RobustSpec

        memo = EvalMemo()
        run_dir = str(tmp_path / "run")
        result = synthesize_opamp(
            TECH,
            OpAmpSpec(gain=206.0, ugf=1.3e6, ibias=1e-6, cl=10e-12, area=3e-11),
            mode="standalone",
            max_evaluations=8,
            seed=1,
            name="OpAmp1",
            memo=memo,
            run_dir=run_dir,
            robust=RobustSpec(corners=("tt", "ss", "ff")),
            feasibility="contract",
            surrogate="rank",
        )
        report = result.feasibility
        assert dict(report.contracted) != dict(report.box)  # a real cut
        assert RunJournal(run_dir).load_manifest()["fingerprint"] == (
            "c8cbd402b05d1a2134acfdb3d3fee064e91193055fbbf5299a216e6abf36dbec"
        )
        assert memo.bound_fingerprint == (
            "6972912ddedef0c9224fee537a4c2ecbf73f43be28010b8ca8d176cf3d2c573c"
        )


# ------------------------------------------------------------- interrupts


class TestInterrupts:
    @pytest.mark.timeout(300)
    def test_sigint_returns_partial_result(self):
        """A real SIGINT mid-run drains to a best-so-far partial
        result instead of raising KeyboardInterrupt."""
        restarts = 10
        timer = threading.Timer(
            0.5, os.kill, args=(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            result = synthesize_opamp(
                TECH, SPEC, TOPO, seed=5, restarts=restarts, workers=1,
                max_evaluations=250, mode="ape", name="sigint",
            )
        finally:
            timer.cancel()
        if not result.interrupted:
            pytest.skip("run finished before the signal fired")
        assert result.degraded
        assert 0 < len(result.chains) < restarts
        assert result.metrics is not None  # best-so-far, not nothing
        # The handler was restored afterwards.
        assert signal.getsignal(signal.SIGINT) is not None

    def test_sigint_during_the_last_chain_reports_interrupted(
        self, monkeypatch
    ):
        """The first signal drains: the chain in flight finishes, and
        the run still reports the interrupt."""
        import repro.parallel.executor as executor

        run_chain = executor.run_chain

        def signal_in_last_chain(task, *args, **kwargs):
            if task.chain_index == 1:
                os.kill(os.getpid(), signal.SIGINT)
            return run_chain(task, *args, **kwargs)

        monkeypatch.setattr(executor, "run_chain", signal_in_last_chain)
        result = synthesize_opamp(
            TECH, SPEC, TOPO, seed=5, restarts=2, workers=1, **RUN_KW
        )
        assert result.interrupted
        assert result.degraded
        assert len(result.chains) == 2

    @pytest.mark.timeout(300)
    def test_second_sigint_abandons_an_in_process_chain(
        self, monkeypatch, tmp_path
    ):
        """Two signals stop a one-chain run at its next candidate,
        journal no chain, and the run resumes bit for bit."""
        from repro.synthesis.problems import OpAmpSizingProblem

        evaluate = OpAmpSizingProblem.evaluate
        calls = []

        def interrupting(problem, params):
            calls.append(params)
            if len(calls) == 10:
                os.kill(os.getpid(), signal.SIGINT)
                os.kill(os.getpid(), signal.SIGINT)
            return evaluate(problem, params)

        monkeypatch.setattr(OpAmpSizingProblem, "evaluate", interrupting)
        kwargs = dict(seed=5, mode="ape", max_evaluations=400, name="abandon")
        run_dir = str(tmp_path / "run")
        partial = synthesize_opamp(TECH, SPEC, TOPO, run_dir=run_dir, **kwargs)
        monkeypatch.undo()
        assert len(calls) <= 11
        assert partial.interrupted
        assert partial.chains == []
        assert RunJournal(run_dir).load_outcomes() == {}

        resumed = synthesize_opamp(
            TECH, SPEC, TOPO, run_dir=run_dir, resume=True, **kwargs
        )
        reference = synthesize_opamp(TECH, SPEC, TOPO, **kwargs)
        assert not resumed.interrupted
        assert resumed.resumed_chains == []
        assert _chain_summary(resumed) == _chain_summary(reference)
        assert resumed.best_cost == reference.best_cost
        assert resumed.params == reference.params
        assert resumed.metrics == reference.metrics

    def test_interrupt_before_any_chain_returns_empty_shell(self):
        result = synthesize_opamp(
            TECH, SPEC, TOPO, seed=5, restarts=2, workers=1,
            supervisor=_quiet_config(interrupt_after=0), **RUN_KW
        )
        assert result.interrupted
        assert result.degraded
        assert not result.meets_spec
        assert result.metrics is None
        assert result.chains == []


# ------------------------------------------------------------ pool manager


class TestPoolManager:
    def test_rebuild_replaces_pool(self):
        import concurrent.futures

        def factory():
            return concurrent.futures.ProcessPoolExecutor(max_workers=1)

        with PoolManager(factory) as pm:
            first = pm.pool
            assert first is not None
            second = pm.rebuild()
            assert second is not first
            assert pm.rebuilds == 1
        assert pm.pool is None  # torn down on exit

    def test_teardown_is_idempotent(self):
        import concurrent.futures

        pm = PoolManager(
            lambda: concurrent.futures.ProcessPoolExecutor(max_workers=1)
        )
        with pm:
            pm.teardown()
            pm.teardown()
        assert pm.pool is None

    def test_pool_cleans_up_on_worker_exception(self):
        import concurrent.futures

        def factory():
            return concurrent.futures.ProcessPoolExecutor(max_workers=2)

        with pytest.raises(ValueError):
            with PoolManager(factory) as pm:
                list(pm.pool.map(_explode, range(6)))
        assert pm.pool is None  # torn down on the exception path
        # A second pool works: no leaked broken pool state.
        with PoolManager(factory) as pm:
            assert list(pm.pool.map(_identity, [1, 2, 3])) == [1, 2, 3]


def _explode(x):
    raise ValueError(f"boom {x}")


def _identity(x):
    return x
