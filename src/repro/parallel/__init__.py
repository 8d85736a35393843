"""Parallel multi-chain synthesis execution and evaluation caching.

The paper's throughput story (APE makes annealing convergence a
minutes-scale affair) extends naturally to modern hardware: the
independent restarts of an ASTRX/OBLX-style search and the rows of the
evaluation tables are embarrassingly parallel, and annealing chains
re-visit enough exact candidate duplicates that a content-addressed
evaluation memo pays for itself even on one core.

* :class:`EvalMemo` — quantized log-space parameter key ->
  ``(cost, metrics)`` cache, bound to one problem per run and so
  shareable across runs of that problem; pool workers inherit it
  through ``fork`` and send back what each chain added.
* :class:`ChainTask` / :func:`run_chain` /
  :func:`run_supervised_chains` (and its thin
  :func:`run_annealing_chains` wrapper) — the supervised process-pool
  chain executor with a strict determinism contract (results depend
  only on ``(seed, restarts)``, never on worker count, scheduling, or
  crash recovery) plus worker crash/hang recovery, graceful interrupt
  drain and write-ahead journaling.
* :func:`parallel_map` — order-preserving pool map for batched table
  runners.

See ``docs/PERFORMANCE.md`` ("Parallel synthesis & evaluation
caching") for the worker model and the canonical-evaluation invariant
everything here rests on, and ``docs/ROBUSTNESS.md`` ("Supervision,
checkpointing & resume") for the recovery loop.
"""

from .executor import (
    ChainOutcome,
    ChainTask,
    derive_chain_seed,
    effective_workers,
    parallel_map,
    run_annealing_chains,
    run_chain,
    run_supervised_chains,
    usable_cpu_count,
)
from .memo import DEFAULT_CAPACITY, DEFAULT_QUANTUM, EvalMemo, memo_key

__all__ = [
    "ChainOutcome",
    "ChainTask",
    "DEFAULT_CAPACITY",
    "DEFAULT_QUANTUM",
    "EvalMemo",
    "derive_chain_seed",
    "effective_workers",
    "memo_key",
    "parallel_map",
    "run_annealing_chains",
    "run_chain",
    "run_supervised_chains",
    "usable_cpu_count",
]
