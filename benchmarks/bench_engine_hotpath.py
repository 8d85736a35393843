"""Engine hot path: pytest-benchmark timings of the compiled assembly.

``pytest benchmarks/bench_engine_hotpath.py`` times the four workloads
the synthesis loop spends its cycles on — a DC operating point, an AC
sweep, a transient run and the annealer's candidate evaluation — so
the hot path shows up in the same benchmark reports as the APE-speed
suite.  Absolute timings only; ``tests/test_engine_equivalence.py``
holds the compiled engine to the naive per-element loops.
"""

from __future__ import annotations

import pytest

from repro.opamp import OpAmpSpec, coarse_design_opamp, design_opamp
from repro.opamp.benches import open_loop_bench
from repro.spice import Circuit, PulseWave, System, dc_operating_point

SPEC = OpAmpSpec(gain=200.0, ugf=2e6, ibias=2e-6, cl=10e-12)


@pytest.fixture(scope="module")
def opamp_bench(tech):
    """A realistically sized op-amp open-loop bench plus its OP."""
    bench = open_loop_bench(design_opamp(tech, SPEC), v_diff=0.0)
    system = System(bench)
    return bench, system, dc_operating_point(bench, system=system)


@pytest.mark.benchmark(group="engine-hotpath")
def test_op_compiled_speed(benchmark, opamp_bench):
    bench, system, _ = opamp_bench
    op = benchmark(lambda: dc_operating_point(bench, system=system))
    assert op.saturation_fraction() > 0.0


@pytest.mark.benchmark(group="engine-hotpath")
def test_ac_sweep_compiled_speed(benchmark, opamp_bench):
    from repro.spice.ac import ac_analysis, log_frequencies

    bench, _, op = opamp_bench
    freqs = log_frequencies(1.0, 1e9, 10)
    ac = benchmark(lambda: ac_analysis(bench, op=op, frequencies=freqs))
    assert ac.magnitude("out")[0] > 1.0


@pytest.mark.benchmark(group="engine-hotpath")
def test_transient_compiled_speed(benchmark):
    from repro.spice.transient import transient_analysis

    ckt = Circuit("bench-tran")
    ckt.v(
        "in", "0", dc=0.0,
        wave=PulseWave(v1=0.0, v2=1.0, delay=1e-7, rise=1e-8,
                       fall=1e-8, width=5e-7, period=1e-6),
    )
    ckt.r("in", "mid", 1e3)
    ckt.c("mid", "0", 10e-12)
    ckt.r("mid", "out", 5e3)
    ckt.c("out", "0", 2e-12)
    ckt.ind("out", "tail", 1e-6)
    ckt.r("tail", "0", 50.0)
    tran = benchmark(lambda: transient_analysis(ckt, 1e-6, 1e-8))
    assert len(tran.times) > 10


@pytest.mark.benchmark(group="engine-hotpath")
def test_anneal_eval_compiled_speed(benchmark, tech):
    """Four perturbed candidates of one sizing problem, as the
    annealer's inner loop proposes them."""
    from repro.synthesis.problems import OpAmpSizingProblem, ape_ranges

    template, _ = coarse_design_opamp(tech, SPEC)
    problem = OpAmpSizingProblem(template, ape_ranges(template))
    base = template.initial_point()
    candidates = [
        {key: value * scale for key, value in base.items()}
        for scale in (1.0, 0.95, 1.05, 0.9)
    ]
    metrics = benchmark(
        lambda: [problem.evaluate(params) for params in candidates]
    )
    assert any(m is not None for m in metrics)
