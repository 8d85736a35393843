"""Fault-tolerant evaluation runtime.

The robustness substrate under the solver -> estimator -> synthesis
stack.  Four pieces, each usable on its own:

* :class:`RetryPolicy` — bounded, deterministic retries with
  exponentially growing jitter on initial guesses and the DC solver's
  gmin ladder (:mod:`repro.runtime.retry`);
* :class:`EvalBudget` — per-run evaluation / failure / wall-clock
  budgets polled by the annealer so runs degrade to "best point so
  far + diagnostics" instead of hanging (:mod:`repro.runtime.budget`);
* :class:`Diagnostic` / :class:`DiagnosticLog` — structured records of
  every failure or degradation, mirrored to a process-wide session log
  (:mod:`repro.runtime.diagnostics`);
* :mod:`repro.runtime.faults` — a deterministic, seedable
  fault-injection harness proving that every recovery path fires;
* :class:`SessionStats` — process-wide throughput and cache counters
  rendered by ``repro diagnostics`` (:mod:`repro.runtime.stats`);
* :mod:`repro.runtime.supervisor` — parent-side supervision of pooled
  workers: crash/hang detection, bounded chain retries, quarantine,
  graceful interrupt drain (:class:`SupervisorConfig`,
  :class:`SupervisionReport`, :class:`PoolManager`);
* :class:`RunJournal` — write-ahead run checkpointing powering
  ``repro synthesize --resume`` (:mod:`repro.runtime.journal`);
* :mod:`repro.runtime.sqlite` — how the evaluation store and the job
  queue open their per-process SQLite WAL databases.

See ``docs/ROBUSTNESS.md`` for the model and usage.
"""

from .budget import EvalBudget
from .diagnostics import Diagnostic, DiagnosticLog, global_log
from .journal import RunJournal, run_fingerprint
from .retry import RetryPolicy
from .stats import SessionStats, global_stats
from .supervisor import (
    PoolManager,
    SupervisionEvent,
    SupervisionReport,
    SupervisorConfig,
    interrupt_guard,
)
from . import faults

__all__ = [
    "EvalBudget",
    "Diagnostic",
    "DiagnosticLog",
    "global_log",
    "PoolManager",
    "RetryPolicy",
    "RunJournal",
    "run_fingerprint",
    "SessionStats",
    "SupervisionEvent",
    "SupervisionReport",
    "SupervisorConfig",
    "global_stats",
    "interrupt_guard",
    "faults",
]
