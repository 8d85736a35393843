"""Supervised execution of independent annealing chains.

Every :func:`~repro.synthesis.synthesize_opamp` run, one chain or
many, runs its chains here.  The unit of work is a :class:`ChainTask` —
a frozen, pickle-clean description of one annealing restart
(technology, spec, topology, schedule, derived seed, budget share,
fault configuration).  A task is executed by :func:`run_chain`, either
in-process or inside a worker of a ``fork``-based
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract (locked in by ``tests/test_parallel.py`` and
``tests/test_supervisor.py``):

* Chain ``i`` anneals with seed ``derive_chain_seed(master_seed, i)``
  and, when fault injection is configured, a fault injector seeded
  ``derive_chain_seed(fault_seed, i)`` armed for the duration of the
  chain.  Both depend only on ``(seed, i)``.
* Candidate evaluation is *canonical* (history-independent), so a
  chain's result is a pure function of its task — never of which
  worker ran it, in what order, or what the shared memo cache already
  contained.  Results therefore depend only on ``(seed, restarts)``,
  not on the worker count, scheduling, or how many times a chain was
  re-run after its worker was lost.
* While a fault injector is armed the chain bypasses the memo
  entirely: fault decisions are drawn per evaluation *call*, and a
  cache hit would skip that call, entangling the injector's stream
  with cache warmth (which does depend on scheduling).

Supervision (:func:`run_supervised_chains`, built on
:mod:`repro.runtime.supervisor`): chains are submitted one-per-worker
and watched by the parent.  A killed worker (``BrokenProcessPool``)
or a hung one (stale heartbeat / chain deadline, the worker is then
killed) collapses the pool; the parent rebuilds it and resubmits only
the lost chains, with bounded retries and a quarantine list for poison
tasks.  The first SIGINT/SIGTERM drains in-flight chains and returns
the completed outcomes; a second abandons in-flight work, in-process
chains included.  Every completed chain can be journaled write-ahead
(:class:`~repro.runtime.journal.RunJournal`) so an interrupted run
resumes without repeating finished chains.

Each process builds the sizing problem from the task description and
keeps it cached per task signature — ``System.rebind`` then reuses the
compiled MNA engine across every candidate of every chain of that
problem, instead of re-pickling solver state across the pool boundary.
A chain checks its problem out of the cache for as long as it runs, so
threads never share one.  Pool workers' caches die with their
processes; the parent's pool teardown is guaranteed on every exit path
by :class:`~repro.runtime.supervisor.PoolManager`.

The run's :class:`~repro.parallel.memo.EvalMemo` is the only memo:
in-process chains use it directly, and pool workers get it through the
pool initializer (a ``fork`` hands it over unpickled), evaluate through
their copy and return what each chain added for the parent to merge.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as dc_replace

from ..runtime import faults
from ..runtime.budget import EvalBudget
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..runtime.supervisor import (
    PoolManager,
    SupervisionReport,
    SupervisorConfig,
    interrupt_guard,
)
from ..synthesis.annealing import Annealer, AnnealingSchedule, AnnealResult
from ..synthesis.cost import CostFunction, FAILURE_COST
from .memo import EvalMemo

__all__ = [
    "ChainTask",
    "ChainOutcome",
    "derive_chain_seed",
    "effective_workers",
    "usable_cpu_count",
    "run_chain",
    "run_annealing_chains",
    "run_supervised_chains",
    "parallel_map",
    "robust_variant_eval",
]

#: Weyl increment (golden-ratio based) for per-chain seed derivation:
#: consecutive chain indices land far apart in seed space, and chain 0
#: keeps the master seed itself.
_SEED_STRIDE = 0x9E3779B97F4A7C15


def derive_chain_seed(master_seed: int, chain_index: int) -> int:
    """Deterministic per-chain seed; chain 0 is the master seed."""
    if chain_index == 0:
        return master_seed
    return (master_seed + _SEED_STRIDE * chain_index) % 2**63


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_workers(
    requested: int | None, n_tasks: int, *, oversubscribe: bool = False
) -> int:
    """Clamp a worker request to the work and (by default) the CPUs.

    ``None`` asks for one worker per usable CPU.  Oversubscribing a
    CPU-bound annealing run only adds scheduling overhead, so requests
    beyond the affinity mask are clamped unless ``oversubscribe=True``
    (useful in tests, or when evaluations block on something other
    than the CPU).
    """
    limit = requested if requested is not None else usable_cpu_count()
    workers = max(1, min(limit, n_tasks))
    if not oversubscribe:
        workers = min(workers, usable_cpu_count())
    return workers


@dataclass(frozen=True)
class ChainTask:
    """Everything one annealing restart needs, pickle-clean.

    No evaluation options: every chain evaluates with the one profile
    of :class:`~repro.synthesis.problems.OpAmpSizingProblem`.
    """

    tech: object
    spec: object
    topology: object | None
    mode: str
    synthesis_spec: object
    name: str
    range_factor: float
    max_evaluations: int
    schedule: AnnealingSchedule | None
    #: Master seed; the chain anneals with the derived per-chain seed.
    seed: int
    chain_index: int
    tolerant: bool = True
    retry: RetryPolicy | None = None
    #: This chain's share of the caller's budget (see
    #: :meth:`EvalBudget.share`): the caller's limits and deadline
    #: instant, so every chain stops at the same moment wherever it
    #: runs.  Each attempt of the chain consumes a fresh copy.
    budget: EvalBudget | None = None
    #: Fault configuration re-armed inside the chain (None = leave the
    #: worker's fault state alone).
    fault_specs: tuple[faults.FaultSpec, ...] | None = None
    fault_seed: int = 0
    #: Optional :class:`~repro.synthesis.robust.RobustSpec` — when set,
    #: every candidate is evaluated across its corners/Monte Carlo
    #: samples and the chain anneals on the aggregated robust cost.
    robust: object | None = None
    #: Contracted search box from the feasibility gate, as a sorted
    #: ``((name, (lo, hi)), ...)`` tuple (``None`` = the mode's default
    #: ranges).  Part of the problem identity: chains with different
    #: boxes anneal different problems.
    box_override: tuple | None = None
    #: Move screening mode: ``"off"`` (one proposal per move) or
    #: ``"rank"`` (each move evaluates the best of a proposal batch by
    #: the APE equations' estimated cost).
    surrogate: str = "off"

    def problem_key(self) -> str:
        """Signature of the sizing problem this task needs.

        Chains of one synthesis run (and repeated runs of the same
        table row) share the signature, so a process builds the
        template, variables and compiled MNA system once and reuses
        them via ``System.rebind`` for every such chain.  Built from
        ``repr`` (exact for these dataclasses, as in the journal and
        store fingerprints), not pickle: pickling reads the
        technology's model ``__dict__``s, which slows every later
        attribute read on them.
        """
        return repr(
            (
                self.tech,
                self.spec,
                self.topology,
                self.mode,
                self.synthesis_spec,
                self.name,
                self.range_factor,
                self.tolerant,
                self.robust,
                self.box_override,
            )
        )


@dataclass
class ChainOutcome:
    """One chain's result plus the counters the parent merges back."""

    chain_index: int
    seed: int
    anneal: AnnealResult
    degraded_design: bool = False
    ape_seconds: float = 0.0
    lint_rejections: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Robust-synthesis counters: logical per-corner/per-sample
    #: evaluations beyond the nominal ones, and candidates the nominal
    #: screen kept away from the corner fan-out.
    corner_evals: int = 0
    screened_candidates: int = 0
    #: Persistent-store lookups served from disk during this chain.
    store_hits: int = 0
    #: Proposals the APE screen left unevaluated (0 with
    #: ``surrogate="off"``).
    surrogate_skips: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: What a pooled chain added to its worker's copy of the run's memo
    #: (:meth:`EvalMemo.take_new`), for the parent to merge; ``None``
    #: when the chain wrote into the caller's memo directly.
    memo_snapshot: dict | None = None


# Process-wide problem cache, keyed by ChainTask.problem_key(): the
# sizing problem (with its compiled MNA system and robust evaluator)
# survives across the chains this process runs.  In pool workers it
# dies with the process (PoolManager guarantees teardown); in the
# caller's process it is bounded by the distinct problem signatures it
# runs.  A bundle is checked out by one chain at a time (see
# _checked_out), guarded by the lock.
_BUNDLES: dict[str, tuple] = {}
_BUNDLES_LOCK = threading.Lock()

# Set only inside a pool worker, by _init_worker: its copy of the run's
# memo and the fork-shared heartbeat slots (one double per chain index).
# Worker-level faults fire only where the slots are set: an injected
# ``os._exit`` in the parent would take the whole run down instead of
# simulating a lost worker.
_WORKER_MEMO: EvalMemo | None = None
_HEARTBEATS = None


def _init_worker(memo: EvalMemo | None, heartbeats) -> None:
    """Pool initializer: adopt the run's memo and heartbeat slots.

    Under ``fork`` both arrive unpickled, as the parent held them when
    the pool started, so runs pooling at once on several threads never
    see each other's memo.
    """
    global _WORKER_MEMO, _HEARTBEATS
    _WORKER_MEMO = memo
    _HEARTBEATS = heartbeats


def _heartbeat(chain_index: int) -> None:
    """Stamp this chain's liveness slot (no-op outside supervision)."""
    beats = _HEARTBEATS
    if beats is not None and 0 <= chain_index < len(beats):
        beats[chain_index] = time.monotonic()  # deterministic-ok: supervisor heartbeat


def _check_worker_faults(chain_index: int) -> None:
    """Fire an armed ``worker.kill`` / ``worker.hang`` fault, if any.

    Checked once per candidate evaluation, only inside pool workers.
    ``worker.kill`` hard-exits the process (the parent sees a broken
    pool, exactly like an OOM kill); ``worker.hang`` stops
    heartbeating and sleeps until the supervisor kills the worker.
    """
    injector = faults.active()
    if injector is None or _HEARTBEATS is None:
        return
    for site in (faults.WORKER_KILL, faults.WORKER_HANG):
        spec = injector.specs.get(site)
        if spec is None:
            continue
        if spec.chain is not None and spec.chain != chain_index:
            continue
        if not injector.fires_at(site):
            continue
        if site == faults.WORKER_KILL:
            os._exit(86)
        while True:  # pragma: no cover - killed from outside
            time.sleep(0.05)


def _strip_worker_faults(task: ChainTask) -> ChainTask:
    """Retry profile: worker loss was transient, drop ``worker.*`` specs.

    The stripped tuple stays a tuple (possibly empty) rather than
    ``None``: the retried chain must still arm its *own* injector so a
    fault configuration inherited from the forked parent cannot leak
    back in and re-kill the retry.
    """
    if task.fault_specs is None:
        return task
    kept = tuple(
        spec for spec in task.fault_specs
        if spec.site not in faults.WORKER_SITES
    )
    if kept == task.fault_specs:
        return task
    return dc_replace(task, fault_specs=kept)


def _build_bundle(task: ChainTask):
    """``(x0, cost_fn, problem, design_notes, ape_seconds, evaluator)``
    for a task; ``evaluator`` is its robust evaluator or ``None``."""
    from ..opamp import coarse_design_opamp, design_opamp
    from ..synthesis.problems import (
        OpAmpSizingProblem,
        Variable,
        ape_ranges,
        standalone_ranges,
    )
    from ..synthesis.robust import RobustEvaluator
    from ..synthesis.specs import opamp_synthesis_spec

    t0 = time.perf_counter()
    design_notes: list = []
    if task.tolerant:
        template, design_notes = coarse_design_opamp(
            task.tech, task.spec, task.topology, name=task.name
        )
    else:
        template = design_opamp(
            task.tech, task.spec, task.topology, name=task.name
        )
    ape_seconds = time.perf_counter() - t0
    if task.mode == "ape":
        variables = ape_ranges(template, factor=task.range_factor)
    else:
        variables = standalone_ranges(template)
    if task.box_override is not None:
        override = dict(task.box_override)
        variables = [
            Variable(v.name, *override.get(v.name, (v.lo, v.hi)))
            for v in variables
        ]
    if task.mode == "ape":
        x0 = {
            v.name: min(
                max(template.initial_point().get(v.name, v.lo), v.lo),
                v.hi,
            )
            for v in variables
        }
    else:
        x0 = None
    synthesis_spec = task.synthesis_spec
    if synthesis_spec is None:
        synthesis_spec = opamp_synthesis_spec(task.spec)
    cost_fn = CostFunction(synthesis_spec)
    problem = OpAmpSizingProblem(template, variables)
    evaluator = None
    if task.robust is not None:
        # Shares the nominal problem (and its compiled MNA system); the
        # corner/Monte Carlo problems travel with it in the bundle.
        evaluator = RobustEvaluator(
            template,
            variables,
            task.robust,
            synthesis_spec,
            nominal_problem=problem,
        )
    return x0, cost_fn, problem, design_notes, ape_seconds, evaluator


@contextmanager
def _checked_out(task: ChainTask):
    """The task's problem bundle, held by the caller alone.

    Taken from the process-wide cache (or built) on entry and put back
    only when the block exits normally: a bundle an exception ran
    through may hold a half-updated bench.  While a fault injector is
    armed the cache is neither read nor written — building under the
    injector keeps its call sequence a pure function of the task.
    """
    key = task.problem_key() if faults.active() is None else None
    bundle = None
    if key is not None:
        with _BUNDLES_LOCK:
            bundle = _BUNDLES.pop(key, None)
    if bundle is None:
        bundle = _build_bundle(task)
    yield bundle
    if key is not None:
        with _BUNDLES_LOCK:
            _BUNDLES.setdefault(key, bundle)


def robust_variant_eval(item):
    """Evaluate one ``(task, label, params)`` robust variant.

    Module-level so :func:`parallel_map` can fan the final corner
    verification of a winning design across the pool — corners become
    a second axis of parallelism next to chains.  Fault injection is
    suspended for the duration: verification is a reporting stage, and
    an inherited injector's stream position would differ between
    in-process and pooled execution.
    """
    task, label, params = item
    previous = faults.active()
    faults.disarm()
    try:
        with _checked_out(task) as bundle:
            evaluator = bundle[-1]
            evaluator.bind(
                diagnostics=None, retry=_fresh_retry(task), memo=None
            )
            return label, evaluator.evaluate_variant(label, params)
    finally:
        if previous is not None:
            faults.arm(previous)


def _fresh_retry(task: ChainTask) -> RetryPolicy | None:
    """The task's retry policy with its own zeroed retry counter."""
    if task.retry is None:
        return None
    return dc_replace(task.retry, total_retries=0)


def run_chain(
    task: ChainTask, shared_memo: EvalMemo | None = None, stop=None
) -> ChainOutcome:
    """Execute one annealing chain described by ``task``.

    Runs in a pool worker or in-process; behaviour is identical either
    way because everything the chain consumes is derived from the task
    (and because evaluation is canonical, the contents of
    ``shared_memo``, the memo the chain evaluates through, cannot
    change results — only how fast they arrive).  ``stop`` is an
    in-process run's interrupt flag: once it turns *hard* (a second
    signal) the chain raises :class:`KeyboardInterrupt` before its next
    candidate.  The injector the chain's own one replaced absorbs its
    check and fire counts.
    """
    previous_injector = faults.active()
    chain_injector = None
    if task.fault_specs is not None:
        chain_injector = faults.arm(
            faults.FaultInjector(
                {spec.site: spec for spec in task.fault_specs},
                seed=derive_chain_seed(task.fault_seed, task.chain_index),
            )
        )
    try:
        _heartbeat(task.chain_index)
        with _checked_out(task) as bundle:
            return _anneal_chain(task, bundle, shared_memo, stop)
    finally:
        if chain_injector is not None:
            if previous_injector is None:
                faults.disarm()
            else:
                faults.arm(previous_injector)
                previous_injector.absorb(chain_injector)


def _run_pooled_chain(task: ChainTask) -> ChainOutcome:
    """Pool entry point: one chain on the worker's copy of the run's memo,
    returning only what the chain added to it."""
    memo = _WORKER_MEMO
    if memo is None:
        return run_chain(task)
    memo.take_new()
    outcome = run_chain(task, shared_memo=memo)
    outcome.memo_snapshot = memo.take_new()
    return outcome


def _anneal_chain(task, bundle, memo, stop) -> ChainOutcome:
    """The body of :func:`run_chain`, on a checked-out bundle."""
    x0, cost_fn, problem, design_notes, ape_seconds, evaluator = bundle
    if faults.active() is not None:
        # Injected faults are decided per *call* from a seeded RNG
        # stream; a memo hit would skip those calls, making the
        # stream depend on cache warmth — which differs between
        # in-process and pooled scheduling.  Evaluate everything so
        # each chain's fault sequence is a pure function of its task.
        memo = None
    chain_log = DiagnosticLog(mirror=False)
    for note in design_notes:
        chain_log.record(note)
    problem.diagnostics = chain_log if task.tolerant else None
    retry = _fresh_retry(task)
    problem.retry = retry
    if evaluator is not None:
        # The evaluator (and its variant problems) is cached across
        # chains; rebind this chain's log/retry/memo.  Memo
        # tagging happens inside the evaluator, so the outer
        # memo.wrap below stays nominal-only.
        evaluator.bind(
            diagnostics=chain_log if task.tolerant else None,
            retry=retry,
            memo=memo,
        )
    corner_before = (
        evaluator.corner_evaluations if evaluator is not None else 0
    )
    screened_before = (
        evaluator.screened_candidates if evaluator is not None else 0
    )
    lint_before = problem.lint_rejections
    hits_before = memo.hits if memo is not None else 0
    misses_before = memo.misses if memo is not None else 0
    store_hits_before = memo.store_hits if memo is not None else 0

    screen = (
        _ape_screen(task, problem.template, cost_fn, chain_log)
        if task.surrogate == "rank" else None
    )

    def evaluate(params):
        if evaluator is not None:
            return evaluator.evaluate(params)
        metrics = problem.evaluate(params)
        return cost_fn(metrics), metrics

    def evaluate_tolerant(params):
        from ..errors import ApeError

        try:
            return evaluate(params)
        except ApeError as exc:
            chain_log.record_exception(
                "synthesis.evaluate",
                exc,
                severity="warning",
                suggested_fix=(
                    "candidate penalized; see the exception chain"
                ),
            )
            return FAILURE_COST, None

    chain_eval = evaluate_tolerant if task.tolerant else evaluate
    if memo is not None and evaluator is None:
        chain_eval = memo.wrap(chain_eval)

    def supervised_eval(params, _inner=chain_eval, _idx=task.chain_index):
        # Outermost wrapper: the fault decision and the heartbeat
        # are per *candidate*, cache hit or not, so the worker's
        # fault stream never depends on memo warmth.
        if stop is not None and stop.hard:
            raise KeyboardInterrupt
        _check_worker_faults(_idx)
        _heartbeat(_idx)
        return _inner(params)

    annealer = Annealer(
        supervised_eval,
        problem.bounds(),
        schedule=task.schedule,
        seed=derive_chain_seed(task.seed, task.chain_index),
        screen=screen,
    )
    result = annealer.run(
        x0=x0,
        max_evaluations=task.max_evaluations,
        budget=task.budget.share() if task.budget is not None else None,
    )
    return ChainOutcome(
        chain_index=task.chain_index,
        seed=derive_chain_seed(task.seed, task.chain_index),
        anneal=result,
        degraded_design=bool(design_notes),
        ape_seconds=ape_seconds,
        lint_rejections=problem.lint_rejections - lint_before,
        retries=retry.total_retries if retry is not None else 0,
        cache_hits=(memo.hits - hits_before) if memo is not None else 0,
        cache_misses=(
            (memo.misses - misses_before) if memo is not None else 0
        ),
        corner_evals=(
            evaluator.corner_evaluations - corner_before
            if evaluator is not None else 0
        ),
        screened_candidates=(
            evaluator.screened_candidates - screened_before
            if evaluator is not None else 0
        ),
        store_hits=(
            (memo.store_hits - store_hits_before)
            if memo is not None else 0
        ),
        surrogate_skips=result.surrogate_skips,
        diagnostics=list(chain_log.records),
    )


def _ape_screen(task, template, cost_fn, chain_log):
    """The chain's move screen: ``cost_fn`` of the APE closed-form
    metrics (:class:`~repro.analysis.MetricModel`) of the nominal
    template, or ``None`` when the model does not cover the topology.

    A pure function of the template, so the ranking is the same in
    every process and on resume.  Robust chains rank by this nominal
    estimate too; their robust cost still decides acceptance.
    """
    from ..analysis import MetricModel, UnsupportedTopologyError

    try:
        model = MetricModel(template)
    except UnsupportedTopologyError as exc:
        chain_log.record(
            Diagnostic(
                subsystem="synthesis.surrogate",
                severity="info",
                message=(
                    f"{task.name}: chain {task.chain_index} runs "
                    f"unscreened: {exc}"
                ),
                context={"name": task.name, "chain_index": task.chain_index},
            )
        )
        return None

    def screen(params):
        return cost_fn(model.evaluate(params))

    return screen


def run_annealing_chains(
    tasks: list[ChainTask],
    *,
    workers: int | None = None,
    memo: EvalMemo | None = None,
    oversubscribe: bool = False,
    config: SupervisorConfig | None = None,
    journal=None,
) -> list[ChainOutcome]:
    """Run every task and return outcomes ordered by chain index.

    Thin wrapper over :func:`run_supervised_chains` for callers that
    only want the outcomes; note that with supervision an interrupted
    or quarantined run returns the chains that *did* complete.
    """
    outcomes, _report = run_supervised_chains(
        tasks,
        workers=workers,
        memo=memo,
        oversubscribe=oversubscribe,
        config=config,
        journal=journal,
    )
    return [outcomes[index] for index in sorted(outcomes)]


def run_supervised_chains(
    tasks: list[ChainTask],
    *,
    workers: int | None = None,
    memo: EvalMemo | None = None,
    oversubscribe: bool = False,
    config: SupervisorConfig | None = None,
    journal=None,
) -> tuple[dict[int, ChainOutcome], SupervisionReport]:
    """Run chains under supervision; return outcomes + what happened.

    With one effective worker the chains run in-process, sharing
    ``memo`` directly (plus the problem/MNA state across chains) — no
    pool, no pickling; supervision is reduced to interrupt handling: a
    first signal lets the chain in flight finish and reports the run
    ``interrupted``, a second abandons that chain at its next
    candidate.  With more, a ``fork``-context process
    pool, whose workers inherit ``memo``, executes the tasks
    one-per-worker while the parent watches
    for dead workers (``BrokenProcessPool``), hung ones (stale
    heartbeats, chain deadlines) and interrupts, rebuilding the pool
    and resubmitting only the lost chains within
    ``config.max_chain_retries``; chains that keep losing their worker
    are quarantined.  Completed chains are journaled write-ahead when
    ``journal`` is given, and what each pooled chain added to its
    worker's copy of ``memo`` is merged into ``memo`` as it finishes.

    The returned mapping holds one outcome per *completed* chain —
    interrupts and quarantines leave gaps instead of raising, so the
    caller can always assemble a best-so-far partial result.
    """
    config = config or SupervisorConfig()
    report = SupervisionReport()
    outcomes: dict[int, ChainOutcome] = {}
    if not tasks:
        return outcomes, report
    tasks = sorted(tasks, key=lambda task: task.chain_index)
    n_workers = effective_workers(
        workers, len(tasks), oversubscribe=oversubscribe
    )

    def finish(outcome: ChainOutcome) -> None:
        outcomes[outcome.chain_index] = outcome
        if memo is not None and outcome.memo_snapshot is not None:
            memo.merge(outcome.memo_snapshot)
            outcome.memo_snapshot = None
        if memo is not None:
            # Write-behind flush of this chain's new evaluations into
            # the persistent store (no-op when no store is bound).
            # Centralizing writes here keeps chain workers pure and
            # the on-disk result worker-count independent.
            memo.flush_store()
        if journal is not None:
            journal.record_outcome(outcome)
            if memo is not None:
                journal.snapshot_memo(memo)

    def synthetic_stop() -> bool:
        return (
            config.interrupt_after is not None
            and len(outcomes) >= config.interrupt_after
        )

    def note_interrupt(pending_indices: list[int], detail: str) -> None:
        if report.interrupted:
            return
        report.interrupted = True
        report.record(
            "interrupted",
            detail=f"{detail}; unfinished chains: {pending_indices}",
        )
        if memo is not None:
            # Drain the write-behind store buffer at the moment of
            # interrupt: rows already paid for stay warm even if the
            # interrupted caller never reaches its own final flush
            # (second SIGINT, SIGTERM drain window elapsing).  The
            # in-process path can hold unflushed mid-chain entries
            # here; the pooled path is usually empty — either way the
            # flush is idempotent.
            memo.flush_store()
        if journal is not None:
            journal.append("interrupted", pending=pending_indices)
            if memo is not None:
                journal.snapshot_memo(memo)

    if n_workers <= 1:
        _run_in_process(
            tasks, memo, config, report,
            finish=finish,
            synthetic_stop=synthetic_stop,
            note_interrupt=note_interrupt,
            outcomes=outcomes,
        )
        return outcomes, report

    _run_pooled(
        tasks, n_workers, memo, config, report,
        finish=finish,
        synthetic_stop=synthetic_stop,
        note_interrupt=note_interrupt,
        outcomes=outcomes,
        journal=journal,
    )
    return outcomes, report


def _run_in_process(
    tasks, memo, config, report, *, finish, synthetic_stop, note_interrupt,
    outcomes,
) -> None:
    def unfinished():
        return [
            task.chain_index for task in tasks
            if task.chain_index not in outcomes
        ]

    with interrupt_guard(config.install_signal_handlers) as stop:
        for task in tasks:
            if stop() or synthetic_stop():
                note_interrupt(unfinished(), "stop requested between chains")
                break
            try:
                outcome = run_chain(task, shared_memo=memo, stop=stop)
            except KeyboardInterrupt:
                note_interrupt(unfinished(), "interrupted mid-chain")
                break
            finish(outcome)
        if stop():
            # A signal during the last chain: it drained, but the run
            # was still interrupted.
            note_interrupt(unfinished(), "stop requested during the last chain")


def _run_pooled(
    tasks, n_workers, memo, config, report, *, finish, synthetic_stop,
    note_interrupt, outcomes, journal,
) -> None:
    import concurrent.futures
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()

    heartbeats = context.Array(
        "d", max(task.chain_index for task in tasks) + 1, lock=False
    )
    clock = time.monotonic  # deterministic-ok: supervisor hang detection

    def factory():
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(memo, heartbeats),
        )

    pending: deque[ChainTask] = deque(tasks)
    in_flight: dict[object, ChainTask] = {}
    submitted_at: dict[int, float] = {}
    retries: dict[int, int] = {}
    kill_pending = False

    def journal_event(event: str, **payload) -> None:
        if journal is not None:
            journal.append(event, **payload)

    def unfinished() -> list[int]:
        return sorted(
            {task.chain_index for task in pending}
            | {task.chain_index for task in in_flight.values()}
        )

    def handle_collapse(lost: list[ChainTask], pm: PoolManager) -> None:
        """Rebuild the pool; resubmit, retry-bound or quarantine ``lost``."""
        nonlocal kill_pending
        kill_pending = False
        lost_indices = sorted(task.chain_index for task in lost)
        if report.interrupted:
            # Interrupt + collapse (e.g. terminal Ctrl-C reached the
            # workers too): the run is over, resume will redo the rest.
            journal_event("worker-lost", chains=lost_indices, interrupted=True)
            pending.clear()
            return
        for task in sorted(lost, key=lambda t: t.chain_index):
            index = task.chain_index
            retries[index] = retries.get(index, 0) + 1
            if retries[index] > config.max_chain_retries:
                report.quarantined.append(index)
                report.record(
                    "chain-quarantined", index,
                    f"lost its worker {retries[index]} times "
                    f"(max_chain_retries={config.max_chain_retries})",
                )
                journal_event("chain-quarantined", chain_index=index)
                continue
            report.chain_retries += 1
            report.record(
                "chain-retried", index,
                f"attempt {retries[index] + 1}",
            )
            journal_event("chain-retried", chain_index=index,
                          attempt=retries[index] + 1)
            retry_task = (
                _strip_worker_faults(task)
                if config.strip_worker_faults_on_retry else task
            )
            pending.append(retry_task)
        if pending:
            pm.rebuild()
            report.worker_restarts += 1
            report.record(
                "worker-restart", None,
                f"pool rebuilt after losing chains {lost_indices}",
            )
            journal_event("worker-restart", chains=lost_indices)

    def find_stuck() -> tuple[ChainTask, str] | None:
        now = clock()
        for task in in_flight.values():
            index = task.chain_index
            started = submitted_at.get(index, now)
            if (
                config.chain_timeout_seconds is not None
                and now - started > config.chain_timeout_seconds
            ):
                return task, "chain-timeout"
            if config.heartbeat_timeout_seconds is not None:
                beat = heartbeats[index]
                last_signal = beat if beat > started else started
                if now - last_signal > config.heartbeat_timeout_seconds:
                    return task, "chain-hung"
        return None

    with PoolManager(factory) as pm, \
            interrupt_guard(config.install_signal_handlers) as stop:
        while pending or in_flight:
            stopping = stop() or synthetic_stop()
            if stopping:
                note_interrupt(unfinished(), "stop requested")
                if stop.hard:
                    # Second signal: abandon in-flight work too.
                    pm.kill_workers()
                    break
                if not in_flight:
                    break
            # Top up: one in-flight chain per worker, so every
            # submitted future is actually running (which makes
            # hang detection and loss accounting exact).
            broken_on_submit = False
            while (
                pending and len(in_flight) < n_workers and not stopping
            ):
                task = pending.popleft()
                heartbeats[task.chain_index] = 0.0
                submitted_at[task.chain_index] = clock()
                try:
                    future = pm.pool.submit(_run_pooled_chain, task)
                except BrokenProcessPool:
                    pending.appendleft(task)
                    broken_on_submit = True
                    break
                in_flight[future] = task
            if broken_on_submit:
                lost = list(in_flight.values())
                in_flight.clear()
                handle_collapse(lost, pm)
                continue
            if not in_flight:
                continue
            done, _ = concurrent.futures.wait(
                list(in_flight),
                timeout=config.poll_interval_seconds,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            lost: list[ChainTask] = []
            for future in done:
                task = in_flight.pop(future)
                try:
                    finish(future.result())
                except (BrokenProcessPool,
                        concurrent.futures.CancelledError):
                    lost.append(task)
            if lost or getattr(pm.pool, "_broken", False):
                # A broken pool takes every in-flight chain with it.
                lost.extend(in_flight.values())
                in_flight.clear()
                handle_collapse(lost, pm)
                continue
            if kill_pending:
                continue  # workers already killed; wait for collapse
            stuck = find_stuck()
            if stuck is not None:
                task, kind = stuck
                report.record(
                    kind, task.chain_index,
                    "no heartbeat within "
                    f"{config.heartbeat_timeout_seconds}s"
                    if kind == "chain-hung" else
                    f"exceeded {config.chain_timeout_seconds}s deadline",
                )
                journal_event(kind, chain_index=task.chain_index)
                kill_pending = True
                pm.kill_workers()


def parallel_map(
    fn,
    items,
    *,
    workers: int | None = None,
    oversubscribe: bool = False,
) -> list:
    """Order-preserving map over a process pool (in-process when 1).

    ``fn`` must be a module-level picklable callable and ``items``
    picklable values — the batched table runners fan benchmark rows
    through this with one row per task.  Pool teardown is guaranteed
    on every exit path (PoolManager kills workers instead of waiting
    on them when an exception unwinds past a running task).
    """
    items = list(items)
    if not items:
        return []
    n_workers = effective_workers(
        workers, len(items), oversubscribe=oversubscribe
    )
    if n_workers <= 1:
        return [fn(item) for item in items]

    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()

    def factory():
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers, mp_context=context
        )

    with PoolManager(factory) as pm:
        return list(pm.pool.map(fn, items))
