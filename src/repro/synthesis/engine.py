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
from dataclasses import dataclass, field

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmp, OpAmpSpec, OpAmpTopology, coarse_design_opamp, design_opamp
from ..runtime.budget import EvalBudget
from ..runtime.diagnostics import Diagnostic, DiagnosticLog
from ..runtime.retry import RetryPolicy
from ..technology import Technology
from .annealing import Annealer, AnnealingSchedule, AnnealResult
from .cost import CostFunction, FAILURE_COST, RobustCost
from .problems import (
    EVALUATOR_VERSION,
    OpAmpSizingProblem,
    Variable,
    ape_ranges,
    standalone_ranges,
)
from .robust import RobustEvaluator, RobustSpec
from .specs import SynthesisSpec, opamp_synthesis_spec

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis import AnalysisReport

__all__ = [
    "SynthesisResult",
    "synthesize_opamp",
    "FEASIBILITY_MODES",
    "SURROGATE_MODES",
]

#: Accepted values of ``synthesize_opamp(feasibility=...)``.
FEASIBILITY_MODES = ("off", "reject", "contract")

#: Accepted values of ``synthesize_opamp(surrogate=...)``.
SURROGATE_MODES = ("off", "rank")


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
    #: Independent annealing chains this run fanned out (1 = classic
    #: serial run) and the worker processes that executed them.
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
    #: Surrogate screening mode plus its counters: proposals discarded
    #: un-evaluated and model (re)fits across all chains.
    surrogate: str = "off"
    surrogate_skips: int = 0
    surrogate_refits: int = 0

    def metric(self, key: str, default: float = float("nan")) -> float:
        if self.metrics is None:
            return default
        return self.metrics.get(key, default)


def synthesize_opamp(
    tech: Technology,
    spec: OpAmpSpec,
    topology: OpAmpTopology | None = None,
    *,
    mode: str = "ape",
    synthesis_spec: SynthesisSpec | None = None,
    range_factor: float = 0.2,
    max_evaluations: int = 250,
    schedule: AnnealingSchedule | None = None,
    seed: int = 1,
    name: str = "opamp",
    tolerant: bool = True,
    budget: EvalBudget | None = None,
    retry: RetryPolicy | None = None,
    diagnostics: DiagnosticLog | None = None,
    lint: bool = True,
    restarts: int = 1,
    workers: int | None = None,
    memo: "bool | EvalMemo | None" = None,
    oversubscribe: bool = False,
    run_dir: str | None = None,
    resume: bool = False,
    supervisor: "SupervisorConfig | None" = None,
    robust: RobustSpec | None = None,
    feasibility: str = "off",
    store_dir: str | None = None,
    surrogate: str = "off",
) -> SynthesisResult:
    """Run one APE(+/-)ASTRX/OBLX synthesis leg for an op-amp spec.

    ``tolerant`` (the default) treats every evaluation failure as a
    penalized, counted outcome; ``tolerant=False`` restores the strict
    behaviour where an unexpected :class:`ApeError` in the APE
    pre-design or the evaluation loop propagates.  ``budget``, ``retry``
    and ``diagnostics`` are optional runtime hooks — absent (and with no
    faults occurring), results are bit-for-bit identical to a plain run.
    ``lint`` (the default) pre-screens every candidate with the
    electrical rule checker so structurally singular or
    out-of-technology circuits are rejected before a Newton solve;
    rejections are counted on ``SynthesisResult.lint_rejections``.

    ``restarts`` fans out that many independently seeded annealing
    chains (chain ``i`` anneals with a seed derived from ``(seed, i)``;
    chain 0 keeps ``seed``) across ``workers`` processes via
    :mod:`repro.parallel` and returns the best chain; the per-chain
    :class:`AnnealResult`s land on ``SynthesisResult.chains``.  Chains
    run with the executor's fast evaluation profile (memoized,
    warm-started, in-place benches), so ``restarts=1`` — the default,
    bit-for-bit the classic serial path — is the reference behaviour.
    ``memo`` controls the evaluation cache: ``None`` enables a private
    cache for multi-restart runs only, ``True``/``False`` force it, and
    an :class:`~repro.parallel.EvalMemo` instance is used directly (and
    so can be shared across runs, e.g. the rows of a table).  A
    ``budget`` deadline becomes a shared wall-clock deadline: every
    chain stops at the same absolute instant, wherever it runs.
    ``workers`` is clamped to usable CPUs unless ``oversubscribe``.

    Multi-chain runs are *supervised* (``supervisor`` overrides the
    default :class:`~repro.runtime.SupervisorConfig`): killed or hung
    workers are replaced and their chains re-run (bounded retries,
    quarantine for poison tasks), and SIGINT/SIGTERM drain in-flight
    chains and return the best-so-far partial result flagged
    ``degraded``/``interrupted`` instead of raising.  ``run_dir``
    write-ahead journals every finished chain; ``resume=True`` replays
    the journaled chains of an interrupted run (after verifying the
    directory's problem fingerprint) and executes only the rest,
    reproducing the uninterrupted run's result bit-for-bit — chain
    seeds are derived from ``(seed, index)``, so nothing depends on
    which process (or which *run*) executed a chain.

    ``robust`` (a :class:`~repro.synthesis.robust.RobustSpec`) turns
    variation into a first-class objective: every candidate is
    evaluated across the spec's process corners and deterministic
    mismatch samples (screen-then-verify: only candidates whose
    nominal cost clears a fixed threshold fan out), and the annealer
    minimizes the worst-case or yield-weighted cost.  The result then
    reports worst-corner spec margins in ``metrics`` plus the robust
    fields (``corner_evals``, ``worst_corner``, ``estimated_yield``,
    ``corner_metrics``).  All determinism/resume guarantees above hold
    unchanged — variant evaluations are canonical and memo-tagged per
    corner/sample.

    ``store_dir`` attaches the persistent cross-run evaluation store
    (:mod:`repro.store`): every exact evaluation is read through and
    written behind a shared SQLite database keyed by the problem's
    content fingerprint, so a repeated (or resumed, or multi-tenant)
    run starts warm.  ``surrogate="rank"`` additionally screens each
    annealer move through a cheap ridge model fitted on the accumulated
    corpus — several proposals are drawn, only the predicted best pays
    a full evaluation.  ``store_dir=None, surrogate="off"`` (the
    defaults) are bit-identical to the store-less code path; a
    store-backed run's *results* are worker-count independent, and a
    corrupt or locked store degrades to memory-only with a Diagnostic
    instead of failing the run.

    ``feasibility`` arms the static pre-solve gate (:mod:`repro.analysis`):
    ``"reject"`` runs the interval feasibility analysis first and, when
    an F/C rule *proves* the spec unsatisfiable over the search box,
    returns immediately (``meets_spec=False``, ``evaluations == 0``,
    the report on ``SynthesisResult.feasibility``) without spending a
    single solve; ``"contract"`` additionally shrinks each variable's
    range to the spec-consistent sub-interval before annealing.  The
    default ``"off"`` skips the gate entirely and is bit-for-bit the
    pre-gate behaviour (including ``--resume`` journals).
    """
    if mode not in ("standalone", "ape"):
        raise SpecificationError(
            f"unknown synthesis mode {mode!r}",
            context={"mode": mode, "known": ("standalone", "ape")},
        )
    if restarts < 1:
        raise SpecificationError(
            f"restarts must be >= 1, got {restarts}",
            context={"parameter": "restarts", "value": restarts},
        )
    if feasibility not in FEASIBILITY_MODES:
        raise SpecificationError(
            f"unknown feasibility mode {feasibility!r}",
            context={"feasibility": feasibility, "known": FEASIBILITY_MODES},
        )
    if surrogate not in SURROGATE_MODES:
        raise SpecificationError(
            f"unknown surrogate mode {surrogate!r}",
            context={"surrogate": surrogate, "known": SURROGATE_MODES},
        )
    if synthesis_spec is None:
        synthesis_spec = opamp_synthesis_spec(spec)
    cost_fn = CostFunction(synthesis_spec)
    log = diagnostics if diagnostics is not None else DiagnosticLog()
    # Shared logs/policies may carry state from earlier runs; report
    # only this run's contribution.
    records_before = len(log.records)
    retries_before = retry.total_retries if retry is not None else 0
    memo_obj = _resolve_memo(
        memo,
        restarts,
        journaled=run_dir is not None,
        stored=store_dir is not None,
    )

    feasibility_report = None
    box_override: dict[str, tuple[float, float]] | None = None
    if feasibility != "off":
        gate_start = time.perf_counter()
        feasibility_report = _feasibility_gate(
            tech,
            spec,
            topology,
            synthesis_spec,
            mode=mode,
            range_factor=range_factor,
            contract=feasibility == "contract",
            name=name,
            log=log,
        )
        gate_seconds = time.perf_counter() - gate_start
        if feasibility_report is not None and not feasibility_report.feasible:
            codes = ", ".join(feasibility_report.error_codes)
            return SynthesisResult(
                name=name,
                mode=mode,
                meets_spec=False,
                comment=f"spec provably infeasible before solve ({codes})",
                metrics=None,
                best_cost=FAILURE_COST,
                evaluations=0,
                cpu_seconds=0.0,
                ape_seconds=gate_seconds,
                diagnostics=list(log.records[records_before:]),
                restarts=restarts,
                workers=0,
                robust_mode=robust.mode if robust is not None else None,
                feasibility=feasibility_report,
            )
        if (
            feasibility == "contract"
            and feasibility_report is not None
            and feasibility_report.contracted is not None
        ):
            contracted = dict(feasibility_report.contracted)
            if contracted != dict(feasibility_report.box):
                box_override = contracted

    if (
        restarts > 1
        or run_dir is not None
        or store_dir is not None
        or surrogate != "off"
    ):
        # Store-backed and surrogate-guided runs route through the
        # executor path even at restarts=1: it owns the memo/store
        # two-tier plumbing, and its single-chain trajectory is the
        # same canonical evaluation sequence as the serial path.
        return _synthesize_parallel(
            tech=tech,
            spec=spec,
            topology=topology,
            mode=mode,
            synthesis_spec=synthesis_spec,
            cost_fn=cost_fn,
            range_factor=range_factor,
            max_evaluations=max_evaluations,
            schedule=schedule,
            seed=seed,
            name=name,
            tolerant=tolerant,
            budget=budget,
            retry=retry,
            log=log,
            records_before=records_before,
            lint=lint,
            restarts=restarts,
            workers=workers,
            memo=memo_obj,
            oversubscribe=oversubscribe,
            run_dir=run_dir,
            resume=resume,
            supervisor=supervisor,
            robust=robust,
            feasibility=feasibility,
            feasibility_report=feasibility_report,
            box_override=box_override,
            store_dir=store_dir,
            surrogate=surrogate,
        )

    # APE always provides the *structure* (ASTRX/OBLX also receives the
    # topology); in standalone mode its sizes are discarded.
    if budget is not None:
        budget.start()
    degraded_design = False
    ape_start = time.perf_counter()
    if tolerant:
        template, design_notes = coarse_design_opamp(
            tech, spec, topology, name=name
        )
        if design_notes:
            degraded_design = True
            for note in design_notes:
                log.record(note)
    else:
        template = design_opamp(tech, spec, topology, name=name)
    ape_seconds = time.perf_counter() - ape_start

    if mode == "ape":
        variables = ape_ranges(template, factor=range_factor)
    else:
        variables = standalone_ranges(template)
    if box_override is not None:
        # The feasibility gate's contracted box: same variables, same
        # order, each range replaced by its spec-consistent sub-interval.
        variables = [
            Variable(v.name, *box_override.get(v.name, (v.lo, v.hi)))
            for v in variables
        ]
    if mode == "ape":
        x0 = {
            v.name: min(max(template.initial_point().get(v.name, v.lo), v.lo), v.hi)
            for v in variables
        }
    else:
        x0 = None  # random start inside the wide box

    problem = OpAmpSizingProblem(
        template,
        variables,
        retry=retry,
        diagnostics=log if tolerant else None,
        lint=lint,
    )
    robust_eval = None
    if robust is not None:
        robust_eval = RobustEvaluator(
            template,
            variables,
            robust,
            synthesis_spec,
            retry=retry,
            diagnostics=log if tolerant else None,
            lint=lint,
            nominal_problem=problem,
        )

    def evaluate(params: dict[str, float]):
        if robust_eval is not None:
            return robust_eval.evaluate(params)
        metrics = problem.evaluate(params)
        return cost_fn(metrics), metrics

    def evaluate_tolerant(params: dict[str, float]):
        # The problem already absorbs the expected simulation failures;
        # this is the last line of defence against anything else in the
        # stack, so one bad candidate can never abort a whole table run.
        try:
            return evaluate(params)
        except ApeError as exc:
            log.record_exception(
                "synthesis.evaluate",
                exc,
                severity="warning",
                suggested_fix="candidate penalized; see the exception chain",
            )
            return FAILURE_COST, None

    chain_eval = evaluate_tolerant if tolerant else evaluate
    hits_before = memo_obj.hits if memo_obj is not None else 0
    misses_before = memo_obj.misses if memo_obj is not None else 0
    if memo_obj is not None and robust_eval is None:
        # Explicit opt-in on a serial run (restarts=1 never enables the
        # memo by itself): cache hits skip the evaluation entirely,
        # which is exact for canonical evaluations but visible to an
        # armed fault injector's call sequence.
        chain_eval = memo_obj.wrap(chain_eval)
    elif robust_eval is not None:
        # Robust runs memoize per variant (tagged keys) inside the
        # evaluator instead of wrapping the aggregated cost.
        robust_eval.memo = memo_obj
    annealer = Annealer(
        chain_eval,
        problem.bounds(),
        schedule=schedule,
        seed=seed,
    )
    start = time.perf_counter()
    result: AnnealResult = annealer.run(
        x0=x0, max_evaluations=max_evaluations, budget=budget
    )
    cpu = time.perf_counter() - start

    if result.degraded:
        log.record(
            Diagnostic(
                subsystem="synthesis.engine",
                severity="warning",
                message=(
                    f"{name}: annealing stopped early ({result.stop_reason}) "
                    f"after {result.evaluations} evaluations; returning the "
                    "best point so far"
                ),
                suggested_fix=(
                    "raise the budget's deadline/failure limits or reduce "
                    "max_evaluations to finish within budget"
                ),
                context={
                    "name": name,
                    "mode": mode,
                    "stop_reason": result.stop_reason,
                },
            )
        )

    meets = cost_fn.meets_spec(result.best_metrics)
    robust_detail: dict | None = None
    worst_corner = None
    estimated_yield = None
    corner_evals = 0
    screened = 0
    if robust_eval is not None:
        screened = robust_eval.screened_candidates
        if result.best_params:
            # Final verification: the winning design's full fan-out
            # (screening ignored), the basis of the robust report.
            robust_detail = robust_eval.detail(result.best_params)
            worst_corner = robust_eval.cost.worst_variant(robust_detail)
            estimated_yield = robust_eval.cost.estimated_yield(robust_detail)
            meets = robust_eval.cost.meets_spec(robust_detail)
        corner_evals = robust_eval.corner_evaluations
        if budget is not None:
            budget.corner_evaluations += corner_evals
    from ..runtime.stats import global_stats

    global_stats().record_run(
        evaluations=result.evaluations,
        seconds=cpu,
        corner_evals=corner_evals,
        cache_hits=(memo_obj.hits - hits_before) if memo_obj is not None else 0,
        cache_misses=(
            (memo_obj.misses - misses_before) if memo_obj is not None else 0
        ),
    )
    return SynthesisResult(
        name=name,
        mode=mode,
        meets_spec=meets,
        comment=cost_fn.describe_failure(result.best_metrics),
        metrics=result.best_metrics,
        best_cost=result.best_cost,
        evaluations=result.evaluations,
        cpu_seconds=cpu,
        ape_seconds=ape_seconds,
        params=result.best_params,
        failed_evaluations=result.failed_evaluations,
        lint_rejections=problem.lint_rejections,
        retries=(
            retry.total_retries - retries_before if retry is not None else 0
        ),
        degraded=(
            degraded_design
            or result.degraded
            or result.best_metrics is None
            or (
                robust_detail is not None
                and any(m is None for m in robust_detail.values())
            )
        ),
        diagnostics=list(log.records[records_before:]),
        restarts=1,
        workers=1,
        cache_hits=(
            (memo_obj.hits - hits_before) if memo_obj is not None else 0
        ),
        cache_misses=(
            (memo_obj.misses - misses_before) if memo_obj is not None else 0
        ),
        evals_per_second=result.evals_per_second,
        chains=[result],
        robust_mode=robust.mode if robust is not None else None,
        corner_evals=corner_evals,
        screened_candidates=screened,
        worst_corner=worst_corner,
        estimated_yield=estimated_yield,
        corner_metrics=robust_detail if robust_detail is not None else {},
        feasibility=feasibility_report,
    )


def _feasibility_gate(
    tech,
    spec,
    topology,
    synthesis_spec,
    *,
    mode,
    range_factor,
    contract,
    name,
    log,
):
    """Run the static analysis pre-gate; never raises, never blocks.

    Analysis failures (unsupported topology, even a crash in the
    analyzer) degrade to "no verdict": synthesis proceeds exactly as if
    the gate had passed, with a diagnostic recording why.
    """
    from ..analysis import analyze_problem

    try:
        report = analyze_problem(
            tech,
            spec,
            topology,
            synthesis_spec,
            mode=mode,
            range_factor=range_factor,
            contract=contract,
            name=name,
        )
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
                    message=f"{name}: {finding.render()}",
                    suggested_fix=finding.fix_hint,
                    context={
                        "name": name,
                        "code": finding.code,
                        "metric": finding.metric,
                    },
                )
            )
    return report


def _resolve_memo(
    memo, restarts: int, *, journaled: bool = False, stored: bool = False
):
    """Normalize the ``memo`` argument to an EvalMemo or ``None``.

    ``None`` means "default policy": cache only when the run fans out
    multiple chains, is journaled (a resumed run wants its warm cache
    back) or is store-backed (the memo is the store's front tier) — a
    plain serial run stays exactly the classic code path (and keeps
    exact-count fault-injection accounting).
    """
    from ..parallel import EvalMemo

    if isinstance(memo, EvalMemo):
        return memo
    if memo is True or (
        memo is None and (restarts > 1 or journaled or stored)
    ):
        return EvalMemo()
    return None


def _box_key(box_override):
    """Hashable, pickle-stable form of a contracted box (or ``None``)."""
    if box_override is None:
        return None
    return tuple(sorted(box_override.items()))


def _run_fingerprint(**parts):
    """Problem identity for the run journal (see ``run_fingerprint``)."""
    from ..runtime.journal import run_fingerprint

    return run_fingerprint(tuple(sorted(parts.items())))


def _robust_verify(task, robust, params, *, journal, workers, oversubscribe):
    """Final per-variant verification of a winning robust design.

    Fans the variant labels over the process pool
    (:func:`~repro.parallel.parallel_map`) — corners are a second axis
    of parallelism next to chains.  The detail is journaled
    (``robust-verified``) keyed by the exact winning parameters, so a
    resumed run replays the recorded fan-out instead of recomputing it
    (JSON floats round-trip exactly, keeping resume bit-for-bit).
    """
    from ..parallel import parallel_map
    from ..parallel.executor import robust_variant_eval

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
    pairs = parallel_map(
        robust_variant_eval,
        [(task, label, params) for label in robust.variant_labels],
        workers=workers,
        oversubscribe=oversubscribe,
    )
    detail = dict(pairs)
    if journal is not None:
        journal.append("robust-verified", params=params, detail=detail)
    return detail


def _synthesize_parallel(
    *,
    tech,
    spec,
    topology,
    mode,
    synthesis_spec,
    cost_fn,
    range_factor,
    max_evaluations,
    schedule,
    seed,
    name,
    tolerant,
    budget,
    retry,
    log,
    records_before,
    lint,
    restarts,
    workers,
    memo,
    oversubscribe,
    run_dir=None,
    resume=False,
    supervisor=None,
    robust=None,
    feasibility="off",
    feasibility_report=None,
    box_override=None,
    store_dir=None,
    surrogate="off",
):
    """Fan ``restarts`` chains across the pool and merge the outcomes.

    The supervised path: chains lost to killed/hung workers are re-run
    (bounded, then quarantined), interrupts drain to a partial result,
    and — when ``run_dir`` is set — every finished chain is journaled
    write-ahead so ``resume=True`` replays it instead of re-running it.
    """
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

    deadline_epoch = None
    if budget is not None:
        budget.start()
        if budget.deadline_seconds is not None:
            remaining = budget.deadline_seconds - budget.elapsed()
            # Monotonic, not wall-clock: an NTP step mid-run would
            # fire (or starve) a wall-clock deadline; CLOCK_MONOTONIC
            # is system-wide per boot, so forked pool workers share
            # the same timebase as this parent.
            deadline_epoch = time.monotonic() + max(remaining, 0.0)  # deterministic-ok: budget deadline, not result-affecting
    injector = faults.active()
    fault_specs = (
        tuple(injector.specs.values()) if injector is not None else None
    )
    fault_seed = injector.seed if injector is not None else 0
    config = supervisor if supervisor is not None else SupervisorConfig()

    store = None
    store_fingerprint = None
    store_generation = 0
    if store_dir is not None and memo is not None:
        from ..store import EvalStore

        store = EvalStore(store_dir, diagnostics=log)
        # Everything the evaluation function depends on is part of the
        # store namespace — conservative on purpose: a fingerprint that
        # is too fine costs warm hits, one that is too coarse would
        # serve a wrong result.
        store_fingerprint = _run_fingerprint(
            kind=f"eval-store/{EVALUATOR_VERSION}",
            tech=repr(tech),
            spec=repr(spec),
            topology=repr(topology),
            mode=mode,
            synthesis_spec=repr(synthesis_spec),
            name=name,
            range_factor=range_factor,
            tolerant=tolerant,
            lint=lint,
            robust=repr(robust) if robust is not None else None,
            box=repr(_box_key(box_override)),
            quantum=memo.quantum,
        )
        # First contact opens the database; a corrupt/locked store
        # degrades the whole run to memory-only here, before any task
        # ships the store path to a worker.
        store_generation = store.generation()
        if store.disabled:
            store = None
            store_fingerprint = None
            store_generation = 0
        else:
            memo.bind_store(store, store_fingerprint)

    journal = None
    journaled_outcomes: dict[int, object] = {}
    resumed_indices: list[int] = []
    if run_dir is not None:
        journal = RunJournal(run_dir)
        fingerprint_parts = dict(
            schema=RunJournal.SCHEMA,
            tech=repr(tech),
            spec=repr(spec),
            topology=repr(topology),
            mode=mode,
            synthesis_spec=repr(synthesis_spec),
            name=name,
            range_factor=range_factor,
            max_evaluations=max_evaluations,
            schedule=repr(schedule),
            seed=seed,
            restarts=restarts,
            tolerant=tolerant,
            lint=lint,
            evaluator=EVALUATOR_VERSION,
        )
        if robust is not None:
            # Only robust runs carry the extra part, so journals written
            # before (or without) corner-aware synthesis keep resuming.
            fingerprint_parts["robust"] = repr(robust)
        if feasibility != "off":
            # Same back-compat rule: ungated runs (and every journal
            # written before the gate existed) keep their fingerprint.
            fingerprint_parts["feasibility"] = repr(
                (feasibility, _box_key(box_override))
            )
        if surrogate != "off":
            # Surrogate screening changes the trajectory, so it is part
            # of the problem identity; a bare store (surrogate off)
            # only changes speed and stays out of the fingerprint.
            fingerprint_parts["surrogate"] = surrogate
        fingerprint = _run_fingerprint(**fingerprint_parts)
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
                if index < restarts
            }
            resumed_indices = sorted(journaled_outcomes)
            if memo is not None:
                warm = journal.load_memo()
                if warm is not None and warm.quantum == memo.quantum:
                    memo.merge(warm)
            if store is not None:
                # Re-run chains must train their surrogate on exactly
                # the corpus the original run saw — the journaled
                # watermark, not whatever the store holds by now.
                store_generation = int(manifest.get("store_generation", 0))
        else:
            manifest_payload = {
                "fingerprint": fingerprint,
                "name": name,
                "mode": mode,
                "seed": seed,
                "restarts": restarts,
                "chain_seeds": [
                    derive_chain_seed(seed, index)
                    for index in range(restarts)
                ],
            }
            if store is not None:
                manifest_payload["store_dir"] = str(store_dir)
                manifest_payload["store_generation"] = store_generation
            journal.initialize(manifest_payload)

    tasks = [
        ChainTask(
            tech=tech,
            spec=spec,
            topology=topology,
            mode=mode,
            synthesis_spec=synthesis_spec,
            name=name,
            range_factor=range_factor,
            max_evaluations=max_evaluations,
            schedule=schedule,
            seed=seed,
            chain_index=index,
            tolerant=tolerant,
            lint=lint,
            retry=retry,
            deadline_epoch=deadline_epoch,
            max_failures=budget.max_failures if budget is not None else None,
            per_eval_seconds=(
                budget.per_eval_seconds if budget is not None else None
            ),
            fault_specs=fault_specs,
            fault_seed=fault_seed,
            memo_quantum=memo.quantum if memo is not None else None,
            robust=robust,
            box_override=_box_key(box_override),
            store_dir=str(store_dir) if store is not None else None,
            store_fingerprint=store_fingerprint,
            store_generation=store_generation,
            surrogate=surrogate,
        )
        for index in range(restarts)
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
        config=config,
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
                message=f"{name}: {event.kind}{where}{detail}",
                context={
                    "name": name,
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
            name=name,
            mode=mode,
            meets_spec=False,
            comment="no chains completed (interrupted or quarantined)",
            metrics=None,
            best_cost=FAILURE_COST,
            evaluations=0,
            cpu_seconds=cpu,
            ape_seconds=0.0,
            degraded=True,
            diagnostics=list(log.records[records_before:]),
            restarts=restarts,
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
            surrogate=surrogate,
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
    surrogate_refits = sum(
        getattr(o, "surrogate_refits", 0) for o in outcomes
    )
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
            verify_task = ChainTask(
                tech=tech,
                spec=spec,
                topology=topology,
                mode=mode,
                synthesis_spec=synthesis_spec,
                name=name,
                range_factor=range_factor,
                max_evaluations=max_evaluations,
                schedule=schedule,
                seed=seed,
                chain_index=best.chain_index,
                tolerant=tolerant,
                lint=lint,
                memo_quantum=memo.quantum if memo is not None else None,
                robust=robust,
                box_override=_box_key(box_override),
            )
            robust_detail = _robust_verify(
                verify_task,
                robust,
                result.best_params,
                journal=journal,
                workers=workers,
                oversubscribe=oversubscribe,
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
                    f"{name}: {len(degraded_chains)} of {restarts} chains "
                    f"stopped early "
                    f"({degraded_chains[0].anneal.stop_reason}); returning "
                    "the best point so far"
                ),
                suggested_fix=(
                    "raise the budget's deadline/failure limits or reduce "
                    "max_evaluations to finish within budget"
                ),
                context={
                    "name": name,
                    "mode": mode,
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
    log.record(
        Diagnostic(
            subsystem="synthesis.parallel",
            severity="info",
            message=(
                f"{name}: {restarts} chains on {n_workers} worker(s): "
                f"{evaluations} evaluations ({evals_per_second:.1f}/s), "
                f"cache {cache_hits} hits / {cache_misses} misses"
                + (
                    f", store {store_hits} hits / {store_writes} writes"
                    if store is not None else ""
                )
                + (
                    f", surrogate {surrogate_skips} skips"
                    if surrogate != "off" else ""
                )
            ),
            context={
                "name": name,
                "restarts": restarts,
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
        surrogate_refits=surrogate_refits,
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
        name=name,
        mode=mode,
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
        restarts=restarts,
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
        surrogate=surrogate,
        surrogate_skips=surrogate_skips,
        surrogate_refits=surrogate_refits,
    )
