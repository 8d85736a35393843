"""The end-to-end synthesis flows of the paper's experiments.

:func:`synthesize_opamp` runs one complete experiment leg:

* ``mode='standalone'`` — ASTRX/OBLX alone: wide search intervals, a
  random starting point (the paper submitted "specifications ...
  without initial design points"),
* ``mode='ape'`` — APE followed by ASTRX/OBLX: the analytically sized
  circuit is the starting point and every interval is the APE value
  +/- 20 %.

Both legs share the same annealing schedule and evaluation budget, so
the measured difference is purely the paper's claim: the quality of the
initial design point and intervals.

The run is fault tolerant by default: failed candidate evaluations are
penalized and counted (never fatal), an infeasible APE pre-design
degrades to a coarser estimate (``mode='ape'``) with a recorded
:class:`~repro.runtime.diagnostics.Diagnostic`, and an optional
:class:`~repro.runtime.budget.EvalBudget` bounds the whole leg so it
returns "best point so far" instead of hanging.  With faults absent
and no budget/retry installed, the tolerant path is bit-for-bit
identical to the strict one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Literal

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmpSpec, OpAmpTopology
# Unused here, but the benchmark tracer (perfbench/tracing.py) patches
# both names on this module by name.
from ..opamp import coarse_design_opamp, design_opamp  # noqa: F401
from ..runtime.budget import EvalBudget
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..technology import Technology
from .annealing import AnnealResult
from .config import RunConfig
from .cost import CostFunction, FAILURE_COST, RobustCost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis import AnalysisReport
    from ..parallel import EvalMemo
    from ..runtime.supervisor import SupervisorConfig

__all__ = ["SynthesisResult", "synthesize_opamp"]


@dataclass
class SynthesisResult:
    """One synthesis run's outcome (one row of Table 1 or Table 4)."""

    name: str
    mode: str
    meets_spec: bool
    comment: str
    metrics: dict[str, float] | None
    best_cost: float
    evaluations: int
    cpu_seconds: float
    ape_seconds: float
    params: dict[str, float] = field(default_factory=dict)
    #: Candidate evaluations that produced no usable metrics.
    failed_evaluations: int = 0
    #: Candidates the electrical rule checker rejected before a Newton
    #: solve was attempted (subset of ``failed_evaluations``).
    lint_rejections: int = 0
    #: DC-solver retries consumed by the run's :class:`RetryPolicy`.
    retries: int = 0
    #: True when the run fell back somewhere: the APE pre-design was
    #: relaxed, the budget stopped the annealer early, or no candidate
    #: could be evaluated at all.
    degraded: bool = False
    #: Structured failure/degradation records accumulated by the run.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Independent annealing chains this run fanned out (1 = the
    #: paper's single annealing leg) and the worker processes that
    #: executed them.
    restarts: int = 1
    workers: int = 1
    #: Evaluation memo-cache traffic across all chains of this run.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Throughput over the annealing phase (includes cache hits).
    evals_per_second: float = 0.0
    #: Per-chain results, best chain first kept in ``metrics``/``params``
    #: (chain order preserved here).
    chains: list[AnnealResult] = field(default_factory=list)
    #: Pool rebuilds after a worker was killed or declared hung.
    worker_restarts: int = 0
    #: Chains abandoned after exhausting their supervised retry budget.
    quarantined_chains: list[int] = field(default_factory=list)
    #: Chains whose outcomes were replayed from the run journal.
    resumed_chains: list[int] = field(default_factory=list)
    #: True when SIGINT/SIGTERM stopped the run early; the result then
    #: holds the best of the chains that *did* complete (``degraded``).
    interrupted: bool = False
    #: Journaled run directory (``None`` for unjournaled runs).
    run_dir: str | None = None
    #: LRU entries evicted from this run's evaluation memo.
    cache_evictions: int = 0
    #: Robust-synthesis reporting (``robust_mode`` is ``None`` for a
    #: plain nominal run).  ``metrics`` then holds the *worst-case*
    #: per-metric aggregation over the variant family, ``corner_metrics``
    #: the winning design's full per-variant fan-out, ``worst_corner``
    #: the costliest variant label and ``estimated_yield`` the fraction
    #: of variants meeting the spec.
    robust_mode: str | None = None
    corner_evals: int = 0
    screened_candidates: int = 0
    worst_corner: str | None = None
    estimated_yield: float | None = None
    corner_metrics: dict[str, dict[str, float] | None] = field(
        default_factory=dict
    )
    #: Static feasibility report when the pre-solve gate ran
    #: (``feasibility != "off"``); ``None`` otherwise.  A rejected spec
    #: returns with ``evaluations == 0`` and this report's F/C findings.
    feasibility: "AnalysisReport | None" = None
    #: Persistent evaluation store this run read/wrote (``None`` when
    #: the run was memory-only) and its traffic: lookups served from
    #: disk and new rows flushed back.
    store_dir: str | None = None
    store_hits: int = 0
    store_writes: int = 0
    #: Move screening mode and the proposals it left unevaluated
    #: across all chains.
    surrogate: str = "off"
    surrogate_skips: int = 0

    def metric(self, key: str, default: float = float("nan")) -> float:
        if self.metrics is None:
            return default
        return self.metrics.get(key, default)


def synthesize_opamp(
    tech: Technology,
    spec: OpAmpSpec,
    topology: OpAmpTopology | None = None,
    *,
    budget: EvalBudget | None = None,
    retry: RetryPolicy | None = None,
    diagnostics: DiagnosticLog | None = None,
    workers: int | None = None,
    memo: "EvalMemo | Literal[False] | None" = None,
    oversubscribe: bool = False,
    run_dir: str | None = None,
    resume: bool = False,
    supervisor: "SupervisorConfig | None" = None,
    store_dir: str | None = None,
    **run: Any,
) -> SynthesisResult:
    """Run one APE(+/-)ASTRX/OBLX synthesis leg for an op-amp spec.

    ``spec``, ``topology`` and the ``run`` keywords (``mode``,
    ``max_evaluations``, ``seed``, ``restarts``, ``name``, ``robust``,
    ``feasibility``, ``surrogate``, ...) are the fields of
    :class:`~repro.synthesis.config.RunConfig`, which declares their
    defaults and validation; everything the result depends on is
    there.  The other keywords are runtime hooks — absent (and with no
    faults occurring), results are bit-for-bit identical to a plain
    run.

    ``tolerant`` (the default) treats every evaluation failure as a
    penalized, counted outcome; ``tolerant=False`` lets an unexpected
    :class:`ApeError` in the APE pre-design or the evaluation loop
    propagate.  Every candidate is pre-screened by the electrical rule
    checker, so structurally singular or out-of-technology circuits are
    rejected before a Newton solve (``SynthesisResult.lint_rejections``).

    Every run executes its annealing chains through one body,
    :func:`repro.parallel.run_supervised_chains` →
    :func:`~repro.parallel.run_chain`.  ``restarts`` fans out that many
    independently seeded chains (chain ``i`` anneals with a seed
    derived from ``(seed, i)``; chain 0 keeps ``seed``) across
    ``workers`` processes — one chain, or one worker, runs in this
    process — and returns the best chain; the per-chain
    :class:`AnnealResult`s land on ``SynthesisResult.chains``.  A
    process reuses a problem it has built for every later run of the
    same problem.
    ``memo`` is the run's evaluation cache.  By default (``None``) the
    run gets a private :class:`~repro.parallel.EvalMemo`, so a
    candidate the run has already evaluated — a move clamped onto a box
    bound it already reached, say — is a dictionary lookup instead of a
    DC solve and an AWE fit.  Evaluation is canonical, so a hit returns
    the very floats the evaluation would: results keep every bit, and
    only the work behind them (``cache_hits``, and the Diagnostics,
    lint rejections and retries of the repeats) changes.  ``False``
    evaluates every candidate, the reference the equality checks
    compare against; it cannot be combined with ``store_dir``, whose
    store is the memo's back tier.  An ``EvalMemo`` instance is used
    directly, bound to this problem: it can be shared across runs of
    one problem (pool workers inherit it), and a run of another
    problem empties it.
    ``budget`` limits apply to each chain, which gets a share with the
    caller's limits and deadline instant (every chain stops at the same
    moment, wherever it runs); the chains' consumption is added back
    to ``budget``'s counters.
    ``workers`` is clamped to usable CPUs unless ``oversubscribe``.

    Runs are *supervised* (``supervisor`` overrides the default
    :class:`~repro.runtime.SupervisorConfig`): killed or hung pool
    workers are replaced and their chains re-run (bounded retries,
    quarantine for poison tasks).  A first SIGINT/SIGTERM lets the
    chains in flight finish and returns the best-so-far result flagged
    ``degraded``/``interrupted`` instead of raising; a second abandons
    the chains in flight.  ``run_dir``
    write-ahead journals every finished chain; ``resume=True`` replays
    the journaled chains of an interrupted run (after verifying the
    directory's problem fingerprint) and executes only the rest,
    reproducing the uninterrupted run's result bit-for-bit — chain
    seeds are derived from ``(seed, index)``, so nothing depends on
    which process (or which *run*) executed a chain.

    ``robust`` (a :class:`~repro.synthesis.robust.RobustSpec`) turns
    variation into a first-class objective: every candidate is
    evaluated across the spec's process corners and deterministic
    mismatch samples (screen-then-verify), the annealer minimizes the
    worst-case or yield-weighted cost, and the winner's full variant
    family is verified once more at the end.  The result then reports
    worst-corner spec margins in ``metrics`` plus the robust fields
    (``corner_evals``, ``worst_corner``, ``estimated_yield``,
    ``corner_metrics``).

    ``store_dir`` attaches the persistent cross-run evaluation store
    (:mod:`repro.store`): every exact evaluation is read through and
    written behind a shared SQLite database keyed by the problem's
    content fingerprint, so a repeated (or resumed, or multi-tenant)
    run starts warm.  A store-backed run's *results* are worker-count
    independent, and a corrupt or locked store degrades to memory-only
    with a Diagnostic instead of failing the run.

    ``surrogate="rank"`` screens each annealer move with the APE
    equations: four proposals are drawn and only the one whose
    closed-form metrics (:class:`~repro.analysis.MetricModel` of the
    nominal template) cost least pays a full evaluation.  A topology
    the model does not cover (the folded cascode) runs unscreened, with
    an info Diagnostic.

    ``feasibility`` arms the static pre-solve gate (:mod:`repro.analysis`):
    ``"reject"`` returns at once (``meets_spec=False``,
    ``evaluations == 0``, the report on ``SynthesisResult.feasibility``)
    when an F/C rule *proves* the spec unsatisfiable over the search
    box; ``"contract"`` also shrinks each variable's range to the
    spec-consistent sub-interval before annealing.
    """
    config = RunConfig(spec, topology, **run)
    synthesis_spec = config.resolved_synthesis_spec()
    cost_fn = CostFunction(synthesis_spec)
    robust = config.robust
    log = diagnostics if diagnostics is not None else DiagnosticLog()
    # Shared logs may carry records from earlier runs; report only this
    # run's contribution.
    records_before = len(log.records)
    memo = _resolve_memo(memo, store_dir)

    feasibility_report = None
    box: tuple | None = None
    if config.feasibility != "off":
        gate_start = time.perf_counter()
        feasibility_report = _feasibility_gate(tech, config, log)
        gate_seconds = time.perf_counter() - gate_start
        if feasibility_report is not None and not feasibility_report.feasible:
            codes = ", ".join(feasibility_report.error_codes)
            return SynthesisResult(
                name=config.name,
                mode=config.mode,
                meets_spec=False,
                comment=f"spec provably infeasible before solve ({codes})",
                metrics=None,
                best_cost=FAILURE_COST,
                evaluations=0,
                cpu_seconds=0.0,
                ape_seconds=gate_seconds,
                diagnostics=list(log.records[records_before:]),
                restarts=config.restarts,
                workers=0,
                robust_mode=robust.mode if robust is not None else None,
                feasibility=feasibility_report,
            )
        if (
            config.feasibility == "contract"
            and feasibility_report is not None
            and feasibility_report.contracted is not None
        ):
            contracted = dict(feasibility_report.contracted)
            if contracted != dict(feasibility_report.box):
                # Hashable, pickle-stable form of the contracted box.
                box = tuple(sorted(contracted.items()))

    from ..parallel import (
        ChainTask,
        derive_chain_seed,
        effective_workers,
        run_supervised_chains,
    )
    from ..runtime import faults
    from ..runtime.journal import RunJournal
    from ..runtime.stats import global_stats
    from ..runtime.supervisor import SupervisorConfig

    if budget is not None:
        # Every chain's share counts from this instant.
        budget.start()
    injector = faults.active()
    fault_specs = (
        tuple(injector.specs.values()) if injector is not None else None
    )
    fault_seed = injector.seed if injector is not None else 0
    supervision = supervisor if supervisor is not None else SupervisorConfig()

    store = None
    if memo is not None:
        if store_dir is not None:
            from ..store import EvalStore

            store = EvalStore(store_dir, diagnostics=log)
            # First contact (a one-row read) opens the database; a
            # corrupt/locked store degrades the whole run to memory-only
            # here, before any pool worker inherits it.
            store.generation()
            if store.disabled:
                store = None
        # One key space for both tiers (see RunConfig.store_parts).
        memo.bind(
            _run_fingerprint(**config.store_parts(tech, box, memo.quantum)),
            store,
        )

    journal = None
    journaled_outcomes: dict[int, object] = {}
    resumed_indices: list[int] = []
    if run_dir is not None:
        journal = RunJournal(run_dir)
        fingerprint = _run_fingerprint(**config.journal_parts(tech, box))
        if resume:
            manifest = journal.load_manifest()
            if manifest.get("fingerprint") != fingerprint:
                raise SpecificationError(
                    f"run directory {run_dir!r} belongs to a different "
                    "synthesis problem; refusing to resume",
                    context={
                        "run_dir": run_dir,
                        "expected_fingerprint": fingerprint,
                        "found_fingerprint": manifest.get("fingerprint"),
                    },
                )
            journaled_outcomes = {
                index: outcome
                for index, outcome in journal.load_outcomes().items()
                if index < config.restarts
            }
            resumed_indices = sorted(journaled_outcomes)
            if memo is not None:
                warm = journal.load_memo()
                if warm is not None and warm.quantum == memo.quantum:
                    memo.merge(warm)
        else:
            manifest_payload = {
                "fingerprint": fingerprint,
                "name": config.name,
                "mode": config.mode,
                "seed": config.seed,
                "restarts": config.restarts,
                "chain_seeds": [
                    derive_chain_seed(config.seed, index)
                    for index in range(config.restarts)
                ],
            }
            if store is not None:
                manifest_payload["store_dir"] = str(store_dir)
            journal.initialize(manifest_payload)

    # The chains' tasks differ only in their index.
    first_task = ChainTask(
        tech=tech,
        config=config,
        chain_index=0,
        retry=retry,
        budget=budget.share() if budget is not None else None,
        fault_specs=fault_specs,
        fault_seed=fault_seed,
        box_override=box,
    )
    tasks = [
        replace(first_task, chain_index=index)
        for index in range(config.restarts)
        if index not in journaled_outcomes
    ]
    n_workers = effective_workers(
        workers, max(len(tasks), 1), oversubscribe=oversubscribe
    )
    evictions_before = memo.evictions if memo is not None else 0
    store_writes_before = memo.store_writes if memo is not None else 0
    start = time.perf_counter()
    fresh_outcomes, report = run_supervised_chains(
        tasks,
        workers=workers,
        memo=memo,
        oversubscribe=oversubscribe,
        config=supervision,
        journal=journal,
    )
    cpu = time.perf_counter() - start
    if memo is not None:
        # Final write-behind flush (the per-chain flushes already
        # drained all but any tail merged after the last finish()).
        memo.flush_store()
    store_writes = (
        memo.store_writes - store_writes_before if memo is not None else 0
    )

    report.resumed.extend(resumed_indices)
    for index in resumed_indices:
        report.record(
            "chain-resumed", index, "outcome replayed from the run journal"
        )
    outcome_map = dict(journaled_outcomes)
    outcome_map.update(fresh_outcomes)
    outcomes = [outcome_map[index] for index in sorted(outcome_map)]

    for event in report.events:
        where = (
            f" (chain {event.chain_index})"
            if event.chain_index is not None else ""
        )
        detail = f": {event.detail}" if event.detail else ""
        log.record(
            Diagnostic(
                subsystem="synthesis.supervisor",
                severity=(
                    "info" if event.kind == "chain-resumed" else "warning"
                ),
                message=f"{config.name}: {event.kind}{where}{detail}",
                context={
                    "name": config.name,
                    "event": event.kind,
                    "chain_index": event.chain_index,
                },
            )
        )

    if not outcomes:
        # Interrupted before any chain finished, or every chain was
        # quarantined: return an honest empty shell instead of raising,
        # so callers (and table runs) keep going.
        if journal is not None:
            journal.append("run-finished", completed=0, best_cost=None)
        if store is not None:
            store.close()
        global_stats().record_run(
            evaluations=0,
            seconds=cpu,
            worker_restarts=report.worker_restarts,
            chains_quarantined=len(report.quarantined),
            chains_resumed=len(report.resumed),
            interrupted=report.interrupted,
            store_writes=store_writes,
        )
        return SynthesisResult(
            name=config.name,
            mode=config.mode,
            meets_spec=False,
            comment="no chains completed (interrupted or quarantined)",
            metrics=None,
            best_cost=FAILURE_COST,
            evaluations=0,
            cpu_seconds=cpu,
            ape_seconds=0.0,
            degraded=True,
            diagnostics=list(log.records[records_before:]),
            restarts=config.restarts,
            workers=n_workers,
            worker_restarts=report.worker_restarts,
            quarantined_chains=list(report.quarantined),
            resumed_chains=list(report.resumed),
            interrupted=report.interrupted,
            run_dir=run_dir,
            robust_mode=robust.mode if robust is not None else None,
            feasibility=feasibility_report,
            store_dir=str(store_dir) if store_dir is not None else None,
            store_writes=store_writes,
            surrogate=config.surrogate,
        )

    for outcome in outcomes:
        for diagnostic in outcome.diagnostics:
            log.record(diagnostic)
    best = min(
        outcomes, key=lambda o: (o.anneal.best_cost, o.chain_index)
    )
    result = best.anneal
    evaluations = sum(o.anneal.evaluations for o in outcomes)
    failed = sum(o.anneal.failed_evaluations for o in outcomes)
    lint_rejections = sum(o.lint_rejections for o in outcomes)
    chain_retries = sum(o.retries for o in outcomes)
    cache_hits = sum(o.cache_hits for o in outcomes)
    cache_misses = sum(o.cache_misses for o in outcomes)
    store_hits = sum(getattr(o, "store_hits", 0) for o in outcomes)
    surrogate_skips = sum(getattr(o, "surrogate_skips", 0) for o in outcomes)
    if retry is not None:
        # Chains consume per-chain copies of the policy; fold their
        # retries back so shared policies keep session-wide totals.
        retry.total_retries += chain_retries
    if budget is not None:
        budget.evaluations += evaluations
        budget.failures += failed

    robust_detail = None
    worst_corner = None
    estimated_yield = None
    robust_meets = None
    corner_evals = 0
    screened = 0
    if robust is not None:
        corner_evals = sum(o.corner_evals for o in outcomes)
        screened = sum(o.screened_candidates for o in outcomes)
        if result.best_params:
            robust_detail = _robust_verify(
                first_task, result.best_params, journal=journal
            )
            # The verify fan-out counts whether it ran live or was
            # replayed from the journal, so resumed and uninterrupted
            # runs report identical totals.
            corner_evals += len(robust.variant_labels) - 1
            robust_cost = RobustCost(
                synthesis_spec, robust.mode, yield_target=robust.yield_target
            )
            worst_corner = robust_cost.worst_variant(robust_detail)
            estimated_yield = robust_cost.estimated_yield(robust_detail)
            robust_meets = robust_cost.meets_spec(robust_detail)
        if budget is not None:
            budget.corner_evaluations += corner_evals

    degraded_chains = [o for o in outcomes if o.anneal.degraded]
    if degraded_chains:
        log.record(
            Diagnostic(
                subsystem="synthesis.engine",
                severity="warning",
                message=(
                    f"{config.name}: {len(degraded_chains)} of "
                    f"{config.restarts} chains stopped early "
                    f"({degraded_chains[0].anneal.stop_reason}); returning "
                    "the best point so far"
                ),
                suggested_fix=(
                    "raise the budget's deadline/failure limits or reduce "
                    "max_evaluations to finish within budget"
                ),
                context={
                    "name": config.name,
                    "mode": config.mode,
                    "stop_reason": degraded_chains[0].anneal.stop_reason,
                    "degraded_chains": [
                        o.chain_index for o in degraded_chains
                    ],
                },
            )
        )
    evals_per_second = evaluations / cpu if cpu > 0 else 0.0
    cache_evictions = (
        memo.evictions - evictions_before if memo is not None else 0
    )
    if config.restarts > 1:
        log.record(
            Diagnostic(
                subsystem="synthesis.parallel",
                severity="info",
                message=(
                    f"{config.name}: {config.restarts} chains on "
                    f"{n_workers} worker(s): "
                    f"{evaluations} evaluations ({evals_per_second:.1f}/s), "
                    f"cache {cache_hits} hits / {cache_misses} misses"
                    + (
                        f", store {store_hits} hits / {store_writes} writes"
                        if store is not None else ""
                    )
                    + (
                        f", surrogate {surrogate_skips} skips"
                        if config.surrogate != "off" else ""
                    )
                ),
                context={
                    "name": config.name,
                    "restarts": config.restarts,
                    "workers": n_workers,
                    "cache_hits": cache_hits,
                    "cache_misses": cache_misses,
                    "store_hits": store_hits,
                    "store_writes": store_writes,
                    "surrogate_skips": surrogate_skips,
                },
            )
        )
    global_stats().record_run(
        evaluations=evaluations,
        seconds=cpu,
        corner_evals=corner_evals,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        cache_evictions=cache_evictions,
        worker_restarts=report.worker_restarts,
        chains_quarantined=len(report.quarantined),
        chains_resumed=len(report.resumed),
        interrupted=report.interrupted,
        store_hits=store_hits,
        store_writes=store_writes,
        surrogate_skips=surrogate_skips,
    )
    if store is not None:
        store.close()
    if journal is not None:
        journal.append(
            "run-finished",
            completed=len(outcomes),
            best_chain=best.chain_index,
            best_cost=result.best_cost,
        )
    meets = (
        robust_meets
        if robust_meets is not None
        else cost_fn.meets_spec(result.best_metrics)
    )
    return SynthesisResult(
        name=config.name,
        mode=config.mode,
        meets_spec=meets,
        comment=cost_fn.describe_failure(result.best_metrics),
        metrics=result.best_metrics,
        best_cost=result.best_cost,
        evaluations=evaluations,
        cpu_seconds=cpu,
        ape_seconds=outcomes[0].ape_seconds,
        params=result.best_params,
        failed_evaluations=failed,
        lint_rejections=lint_rejections,
        retries=chain_retries,
        degraded=(
            any(o.degraded_design for o in outcomes)
            or bool(degraded_chains)
            or result.best_metrics is None
            or bool(report.quarantined)
            or report.interrupted
            or (
                robust_detail is not None
                and any(m is None for m in robust_detail.values())
            )
        ),
        diagnostics=list(log.records[records_before:]),
        restarts=config.restarts,
        workers=n_workers,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        evals_per_second=evals_per_second,
        chains=[o.anneal for o in outcomes],
        worker_restarts=report.worker_restarts,
        quarantined_chains=list(report.quarantined),
        resumed_chains=list(report.resumed),
        interrupted=report.interrupted,
        run_dir=run_dir,
        cache_evictions=cache_evictions,
        robust_mode=robust.mode if robust is not None else None,
        corner_evals=corner_evals,
        screened_candidates=screened,
        worst_corner=worst_corner,
        estimated_yield=estimated_yield,
        corner_metrics=robust_detail if robust_detail is not None else {},
        feasibility=feasibility_report,
        store_dir=str(store_dir) if store_dir is not None else None,
        store_hits=store_hits,
        store_writes=store_writes,
        surrogate=config.surrogate,
        surrogate_skips=surrogate_skips,
    )


def _feasibility_gate(tech, config, log):
    """Run the static analysis pre-gate; never raises, never blocks.

    Analysis failures (unsupported topology, even a crash in the
    analyzer) degrade to "no verdict": synthesis proceeds exactly as if
    the gate had passed, with a diagnostic recording why.
    """
    try:
        report = config.analyze(tech, contract=config.feasibility == "contract")
    except ApeError as exc:
        log.record_exception(
            "synthesis.feasibility",
            exc,
            severity="warning",
            suggested_fix="feasibility gate skipped; synthesis proceeds ungated",
        )
        return None
    if not report.feasible:
        for finding in report.findings:
            if finding.severity != "error":
                continue
            log.record(
                Diagnostic(
                    subsystem="synthesis.feasibility",
                    severity="error",
                    message=f"{config.name}: {finding.render()}",
                    suggested_fix=finding.fix_hint,
                    context={
                        "name": config.name,
                        "code": finding.code,
                        "metric": finding.metric,
                    },
                )
            )
    return report


def _resolve_memo(memo, store_dir):
    """The run's :class:`~repro.parallel.EvalMemo`, or ``None`` to
    evaluate every candidate.

    ``None`` gives every run, one chain or many, a private memo: an
    annealing chain repeats candidates (a high-temperature move in the
    APE box often clamps onto a bound it has already reached), and a
    hit returns the exact stored result.  ``False`` is the uncached
    reference; it is refused with ``store_dir``, since the store is
    the memo's back tier and would never be opened.  A memo instance
    is the caller's to share.
    """
    from ..parallel import EvalMemo

    if memo is None:
        return EvalMemo()
    if memo is False:
        if store_dir is not None:
            raise SpecificationError(
                "store_dir needs the evaluation memo: the store is its "
                "back tier; drop memo=False or store_dir",
                context={"store_dir": str(store_dir)},
            )
        return None
    if isinstance(memo, EvalMemo):
        return memo
    raise TypeError(f"memo must be None, False or an EvalMemo, got {memo!r}")


def _run_fingerprint(**parts):
    """The journal's or the store's fingerprint of ``parts``."""
    from ..runtime.journal import run_fingerprint

    return run_fingerprint(tuple(sorted(parts.items())))


def _robust_verify(task, params, *, journal):
    """Final verification of a winning robust design: every variant's
    metrics, the family stacked as in the chains
    (:func:`~repro.parallel.executor.robust_detail`, in this process on
    the task's cached problem).

    The detail is journaled (``robust-verified``) keyed by the exact
    winning parameters, so a resumed run replays the recorded detail
    instead of recomputing it (JSON floats round-trip exactly, keeping
    resume bit-for-bit).
    """
    from ..parallel.executor import robust_detail

    if journal is not None:
        for record in journal.events():
            if (
                record.get("event") == "robust-verified"
                and record.get("params") == params
            ):
                return {
                    label: dict(metrics) if metrics is not None else None
                    for label, metrics in record["detail"].items()
                }
    detail = robust_detail(task, params)
    if journal is not None:
        journal.append("robust-verified", params=params, detail=detail)
    return detail
