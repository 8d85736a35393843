"""Sparse vs dense AC sweeps: where each linear-solve backend wins.

``pytest benchmarks/bench_sparse_ac.py`` times one AC sweep (31 points
over 1 kHz - 1 GHz) of each circuit with the backend forced dense
(LAPACK) and forced sparse (SuperLU): RC ladders at 50, 200 and 1000
MNA unknowns, a 500-unknown gain-module chain
(:mod:`repro.benchmark.netlists`) and an op-amp open-loop bench.  The
``auto`` mode switches to sparse at ``SPARSE_AUTO_THRESHOLD`` (128)
unknowns, above every synthesis workload, so this file is the one
place the sparse side is timed.  Absolute timings only, no floor;
``tests/test_solver_backends.py`` holds the two backends to the same
answers.
"""

from __future__ import annotations

import pytest

from repro.benchmark.netlists import ladder_circuit, module_chain_circuit
from repro.opamp import OpAmpSpec, design_opamp
from repro.opamp.benches import open_loop_bench
from repro.spice import dc_operating_point, solver_override
from repro.spice.ac import ac_analysis, log_frequencies

FREQS = log_frequencies(1e3, 1e9, 5)

CIRCUITS = {
    "ladder_50": lambda tech: ladder_circuit(50),
    "ladder_200": lambda tech: ladder_circuit(200),
    "ladder_1000": lambda tech: ladder_circuit(1000),
    "module_chain_500": lambda tech: module_chain_circuit(500),
    "opamp": lambda tech: open_loop_bench(
        design_opamp(tech, OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6,
                                     cl=10e-12)),
        v_diff=0.0,
    ),
}


@pytest.mark.benchmark(group="sparse-ac")
@pytest.mark.parametrize("solver", ["dense", "sparse"])
@pytest.mark.parametrize("circuit", list(CIRCUITS))
def test_ac_sweep_speed(benchmark, tech, circuit, solver):
    ckt = CIRCUITS[circuit](tech)
    op = dc_operating_point(ckt)
    with solver_override(solver):
        ac = benchmark(lambda: ac_analysis(ckt, op=op, frequencies=FREQS))
    assert ac.solutions.shape == (len(FREQS), op.system.size)
