"""Parametric benchmark netlists: circuits whose size is an input.

:mod:`repro.benchmark.netlists` generates RC ladders and linear
gain-module chains with an exact MNA unknown count; the sparse-solver
timings (``benchmarks/bench_sparse_ac.py``) and the deck generator
(``benchmarks/gen_netlists.py``) build on them.
"""

from .netlists import (
    LADDER_C_FARADS,
    LADDER_R_OHMS,
    ladder_circuit,
    module_chain_circuit,
)

__all__ = [
    "LADDER_R_OHMS",
    "LADDER_C_FARADS",
    "ladder_circuit",
    "module_chain_circuit",
]
