"""Benchmark suites plus the typed report schema they emit.

Six suites — the engine hot path (:func:`run_engine_benchmark`), the
parallel multi-chain executor (:func:`run_parallel_benchmark`),
corner-robust synthesis (:func:`run_robust_benchmark`), the
sparse linear-solve backend (:func:`run_sparse_benchmark`), the
static feasibility gate (:func:`run_analysis_benchmark`) and the
persistent evaluation store with surrogate screening
(:func:`run_store_benchmark`) — all return a
:class:`~repro.benchmark.report.BenchReport`, the single validated
schema behind every committed ``BENCH_*.json``.
"""

from .analysis import (
    ANALYSIS_TARGETS,
    render_analysis_report,
    run_analysis_benchmark,
)
from .report import (
    REGRESSION_TOLERANCE,
    SCHEMA,
    BenchMeasure,
    BenchReport,
    BenchTarget,
    check_regression,
    load_report,
    validate_report,
    write_report,
)
from .robust import ROBUST_TARGETS, render_robust_report, run_robust_benchmark
from .sparse import (
    SPARSE_TARGETS,
    SPARSE_TARGETS_QUICK,
    render_sparse_report,
    run_sparse_benchmark,
)
from .store import (
    STORE_TARGETS,
    STORE_TARGETS_QUICK,
    render_store_report,
    run_store_benchmark,
)
from .suites import (
    PARALLEL_SPEEDUP_TARGETS,
    SPEEDUP_TARGETS,
    SUPERVISED_OVERHEAD_TARGET,
    SUPERVISED_OVERHEAD_TARGET_QUICK,
    _anneal_fixture,
    _lint_gate_fixture,
    _opamp_fixture,
    _transient_fixture,
    render_parallel_report,
    render_report,
    run_engine_benchmark,
    run_parallel_benchmark,
)

__all__ = [
    "SCHEMA",
    "REGRESSION_TOLERANCE",
    "BenchMeasure",
    "BenchTarget",
    "BenchReport",
    "validate_report",
    "load_report",
    "write_report",
    "check_regression",
    "run_analysis_benchmark",
    "run_engine_benchmark",
    "run_parallel_benchmark",
    "run_robust_benchmark",
    "run_sparse_benchmark",
    "run_store_benchmark",
    "render_analysis_report",
    "render_report",
    "render_parallel_report",
    "render_robust_report",
    "render_sparse_report",
    "render_store_report",
    "ANALYSIS_TARGETS",
    "SPEEDUP_TARGETS",
    "PARALLEL_SPEEDUP_TARGETS",
    "SUPERVISED_OVERHEAD_TARGET",
    "SUPERVISED_OVERHEAD_TARGET_QUICK",
    "ROBUST_TARGETS",
    "SPARSE_TARGETS",
    "SPARSE_TARGETS_QUICK",
    "STORE_TARGETS",
    "STORE_TARGETS_QUICK",
]
