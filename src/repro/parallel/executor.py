"""Supervised execution of independent annealing chains.

Every :func:`~repro.synthesis.synthesize_opamp` run, one chain or
many, runs its chains here.  The unit of work is a :class:`ChainTask` —
a frozen, pickle-clean description of one annealing restart
(technology, the run's :class:`~repro.synthesis.config.RunConfig`,
chain index, budget share, fault configuration).  A task is executed
by :func:`run_chain`, either in-process or inside a worker of a
``fork``-based :class:`~concurrent.futures.ProcessPoolExecutor`.

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

A process keeps each sizing problem it built from a task description
cached per task signature — ``System.rebind`` then reuses the compiled
MNA engine across every candidate of every chain of that problem,
instead of re-pickling solver state across the pool boundary.  A chain
checks its problem out of the cache for as long as it runs, so threads
never share one.  Before a pool forks, the parent builds the problem
(or takes it from its cache) and runs its one-time set-up
(:meth:`~repro.synthesis.problems.OpAmpSizingProblem.prepare`), so
every worker inherits it ready; chains that arm a fault injector build
their own.  Pool workers' caches die with their processes; the
parent's pool teardown is guaranteed on every exit path by
:class:`~repro.runtime.supervisor.PoolManager`.

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

from ..errors import ApeError
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
from ..synthesis.annealing import Annealer, AnnealResult
from ..synthesis.config import RunConfig
from ..synthesis.cost import CostFunction, FAILURE_COST
from .memo import EvalMemo

__all__ = [
    "CHAIN_COUNTERS",
    "ChainTask",
    "ChainOutcome",
    "derive_chain_seed",
    "effective_workers",
    "usable_cpu_count",
    "run_chain",
    "run_supervised_chains",
    "robust_detail",
]

#: Weyl increment (golden-ratio based) for per-chain seed derivation:
#: consecutive chain indices land far apart in seed space, and chain 0
#: keeps the master seed itself.
_SEED_STRIDE = 0x9E3779B97F4A7C15

#: Cadence of a pooled run's watchdog loop [s]: the parent wakes at
#: least this often to check heartbeats, deadlines and signals.
_POLL_SECONDS = 0.05


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

    The run's :class:`~repro.synthesis.config.RunConfig` plus what
    differs per chain or per attempt.  No evaluation options: every
    chain evaluates with the one profile of
    :class:`~repro.synthesis.problems.OpAmpSizingProblem` and anneals
    on the default :class:`~repro.synthesis.annealing.AnnealingSchedule`.
    """

    tech: object
    config: RunConfig
    chain_index: int
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
    #: Contracted search box from the feasibility gate, as a sorted
    #: ``((name, (lo, hi)), ...)`` tuple (``None`` = the mode's default
    #: ranges).  Part of the problem identity: chains with different
    #: boxes anneal different problems.
    box_override: tuple | None = None

    def problem_key(self) -> str:
        """Signature of the sizing problem this task needs.

        Chains of one synthesis run (and repeated runs of the same
        table row) share the signature, so a process builds the
        template, variables and compiled MNA system once and reuses
        them via ``System.rebind`` for every such chain.  Only the
        fields the problem depends on count: a key with the seed or
        the budget in it would rebuild the problem for every run.
        Built from ``repr`` (exact for these dataclasses, as in the
        journal and store fingerprints), not pickle: pickling reads
        the technology's model ``__dict__``s, which slows every later
        attribute read on them.
        """
        config = self.config
        return repr(
            (
                self.tech,
                config.spec,
                config.topology,
                config.mode,
                config.resolved_synthesis_spec(),
                config.name,
                config.range_factor,
                config.tolerant,
                config.robust,
                self.box_override,
            )
        )


#: The counters a chain reports, in the order its journal record lists
#: them: candidates the lint gate rejected, DC retries, memo hits and
#: misses, corner and Monte Carlo evaluations beyond the nominal ones,
#: candidates the robust screen kept from the corners, store lookups
#: served from disk and proposals the APE screen left unevaluated.
#: Each is one source's growth over the chain (:func:`_counter_sources`).
CHAIN_COUNTERS = (
    "lint_rejections",
    "retries",
    "cache_hits",
    "cache_misses",
    "corner_evals",
    "screened_candidates",
    "store_hits",
    "surrogate_skips",
)


@dataclass
class ChainOutcome:
    """One chain's result plus the counters the parent merges back."""

    chain_index: int
    seed: int
    anneal: AnnealResult
    degraded_design: bool = False
    ape_seconds: float = 0.0
    #: The chain's :data:`CHAIN_COUNTERS`, by name and in that order.
    counts: dict[str, int] = field(default_factory=dict)
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

    config = task.config
    t0 = time.perf_counter()
    design_notes: list = []
    if config.tolerant:
        template, design_notes = coarse_design_opamp(
            task.tech, config.spec, config.topology, name=config.name
        )
    else:
        template = design_opamp(
            task.tech, config.spec, config.topology, name=config.name
        )
    ape_seconds = time.perf_counter() - t0
    if config.mode == "ape":
        variables = ape_ranges(template, factor=config.range_factor)
    else:
        variables = standalone_ranges(template)
    if task.box_override is not None:
        override = dict(task.box_override)
        variables = [
            Variable(v.name, *override.get(v.name, (v.lo, v.hi)))
            for v in variables
        ]
    if config.mode == "ape":
        x0 = {
            v.name: min(
                max(template.initial_point().get(v.name, v.lo), v.lo),
                v.hi,
            )
            for v in variables
        }
    else:
        x0 = None
    synthesis_spec = config.resolved_synthesis_spec()
    cost_fn = CostFunction(synthesis_spec)
    problem = OpAmpSizingProblem(template, variables)
    evaluator = None
    if config.robust is not None:
        # Shares the nominal problem (and its compiled MNA system); the
        # corner/Monte Carlo problems travel with it in the bundle.
        evaluator = RobustEvaluator(
            template,
            variables,
            config.robust,
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


def _prepare_bundles(tasks: list[ChainTask]) -> None:
    """Build and set up the tasks' problems in this process's cache.

    Called by a pool's parent before the fork, so every worker inherits
    ready problems instead of building and setting them up in its first
    chain.  Skipped while a fault injector is armed or the tasks arm
    their own: such chains build their problems under the injector.
    The set-up records nothing and evaluates no candidate, so it adds
    no memo entry, store row, Diagnostic or counter; a problem it
    cannot build is left to the chains, which raise as before.
    """
    if faults.active() is not None or any(
        task.fault_specs is not None for task in tasks
    ):
        return
    for task in {task.problem_key(): task for task in tasks}.values():
        try:
            with _checked_out(task) as bundle:
                problem, evaluator = bundle[2], bundle[-1]
                (evaluator or problem).prepare()
        except ApeError:
            continue


def robust_detail(
    task: ChainTask, params: dict[str, float], memo: EvalMemo | None = None
) -> dict:
    """Every variant's metrics for ``params``, by
    :meth:`~repro.synthesis.robust.RobustEvaluator.detail` on the task's
    cached problem in this process (the family stacked as in the
    chains): the final verification of a winning robust design.

    Variants ``memo`` (the run's memo) holds are read from it, counting
    nothing; only the others are evaluated, and their results are
    written nowhere, so the memo, its store and every counter of the
    run stay as the chains left them.  Evaluation is canonical, so the
    report is the same either way.  Fault injection is suspended for
    the duration: verification is a reporting stage, and an armed
    injector's stream would make the report depend on where the chains
    ran.
    """
    previous = faults.active()
    faults.disarm()
    try:
        with _checked_out(task) as bundle:
            evaluator = bundle[-1]
            evaluator.bind(
                diagnostics=None,
                retry=_fresh_retry(task),
                memo=memo.reader() if memo is not None else None,
            )
            return evaluator.detail(params)
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
    config = task.config
    chain_log = DiagnosticLog(mirror=False)
    for note in design_notes:
        chain_log.record(note)
    problem.diagnostics = chain_log if config.tolerant else None
    retry = _fresh_retry(task)
    problem.retry = retry
    if evaluator is not None:
        # The evaluator (and its variant problems) is cached across
        # chains; rebind this chain's log/retry/memo.  Memo
        # tagging happens inside the evaluator, so the outer
        # memo.wrap below stays nominal-only.
        evaluator.bind(
            diagnostics=chain_log if config.tolerant else None,
            retry=retry,
            memo=memo,
        )
    # A failed template solve stays on its problem, wherever that was
    # set up, and every chain records it, as it records design notes.
    setup = evaluator if evaluator is not None else problem
    try:
        setup.prepare()
    except ApeError:
        pass  # left to the candidates' gates, which record it
    setup.record_template_failure()
    before = _counter_sources(problem, evaluator, memo, retry)

    screen = (
        _ape_screen(task, problem.template, cost_fn, chain_log)
        if config.surrogate == "rank" else None
    )

    def evaluate(params):
        if evaluator is not None:
            return evaluator.evaluate(params)
        metrics = problem.evaluate(params)
        return cost_fn(metrics), metrics

    def evaluate_tolerant(params):
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

    chain_eval = evaluate_tolerant if config.tolerant else evaluate
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

    seed = derive_chain_seed(config.seed, task.chain_index)
    annealer = Annealer(
        supervised_eval, problem.bounds(), seed=seed, screen=screen
    )
    result = annealer.run(
        x0=x0,
        max_evaluations=config.max_evaluations,
        budget=task.budget.share() if task.budget is not None else None,
    )
    after = _counter_sources(problem, evaluator, memo, retry, result)
    return ChainOutcome(
        chain_index=task.chain_index,
        seed=seed,
        anneal=result,
        degraded_design=bool(design_notes),
        ape_seconds=ape_seconds,
        counts={name: after[name] - before[name] for name in CHAIN_COUNTERS},
        diagnostics=list(chain_log.records),
    )


def _counter_sources(problem, evaluator, memo, retry, anneal=None) -> dict:
    """Where each of :data:`CHAIN_COUNTERS` accumulates, read now.

    The problem, robust evaluator and memo keep counting across the
    chains of a process, so a chain reports their growth; its retry
    policy is its own, and its annealer reports skips only at the end
    (``anneal``).
    """
    return {
        "lint_rejections": problem.lint_rejections,
        "retries": retry.total_retries if retry is not None else 0,
        "cache_hits": memo.hits if memo is not None else 0,
        "cache_misses": memo.misses if memo is not None else 0,
        "corner_evals": (
            evaluator.corner_evaluations if evaluator is not None else 0
        ),
        "screened_candidates": (
            evaluator.screened_candidates if evaluator is not None else 0
        ),
        "store_hits": memo.store_hits if memo is not None else 0,
        "surrogate_skips": anneal.surrogate_skips if anneal is not None else 0,
    }


def _ape_screen(task, template, cost_fn, chain_log):
    """The chain's move screen: ``cost_fn`` of the APE closed-form
    metrics (:class:`~repro.analysis.MetricModel`) of the nominal
    template, or ``None`` when the model does not cover the topology.

    A pure function of the template, so the ranking is the same in
    every process and on resume.  Robust chains rank by this nominal
    estimate too; their robust cost still decides acceptance.
    """
    from ..analysis import MetricModel, UnsupportedTopologyError

    name = task.config.name
    try:
        model = MetricModel(template)
    except UnsupportedTopologyError as exc:
        chain_log.record(
            Diagnostic(
                subsystem="synthesis.surrogate",
                severity="info",
                message=(
                    f"{name}: chain {task.chain_index} runs "
                    f"unscreened: {exc}"
                ),
                context={"name": name, "chain_index": task.chain_index},
            )
        )
        return None

    def screen(params):
        return cost_fn(model.evaluate(params))

    return screen


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
    A journal also snapshots ``memo`` (``memo.json``) after each chain
    and at an interrupt, unless ``memo`` is bound to a store: the store
    keeps every entry the run flushes, and a resume that binds it reads
    through it.

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
    snapshots = (
        journal is not None and memo is not None and memo.bound_store is None
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
        if snapshots:
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
        if snapshots:
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
        # A fork-context pool starts its workers at the first submit, so
        # they inherit the problems readied here.
        _prepare_bundles(tasks)
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
                timeout=_POLL_SECONDS,
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
