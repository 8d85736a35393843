"""Output balancing by bordered Newton, with bisection as the fallback.

``balance_differential`` first solves the MNA unknowns and the
differential drive together (one bordered Newton run) and accepts the
answer only after a plain DC solve of ``build(v)`` confirms it.  These
tests pin that contract on seeded candidates from the APE boxes of the
unbuffered Table-1 rows (oa3-oa6, whose outputs rail at zero drive),
and pin the bisection fallback for builds the bordered solve must not
take.
"""

import dataclasses
import math
import random

import pytest

import repro.spice.analysis as analysis
from repro.opamp import OpAmpSpec, OpAmpTopology, design_opamp, open_loop_bench
from repro.spice import dc_operating_point
from repro.spice.analysis import balance_differential
from repro.synthesis.problems import (
    OpAmpSizingProblem,
    ape_ranges,
    parameterized_opamp,
)
from repro.technology import generic_05um

TECH = generic_05um()
MIRROR = OpAmpTopology(
    current_source="mirror", diff_pair="cmos", output_buffer=False,
    z_load=math.inf,
)
#: Table-1 rows oa3-oa6: (gain, ugf, area, ibias).
UNBUFFERED_ROWS = {
    "oa3": (250, 8.0e6, 1000e-12, 1.0e-6),
    "oa4": (150, 3.0e6, 1000e-12, 100e-6),
    "oa5": (200, 8.0e6, 5000e-12, 10e-6),
    "oa6": (50, 10.0e6, 200e-12, 10e-6),
}
CANDIDATES_PER_ROW = 3
#: Agreement bound between bordered and bisection metrics, fixed before
#: measuring: the bisection stops within 2 mV of the null, which moves
#: the high-gain operating point slightly.
METRIC_RTOL = 1e-3


def _amp(row: str):
    gain, ugf, area, ibias = UNBUFFERED_ROWS[row]
    spec = OpAmpSpec(gain=gain, ugf=ugf, area=area, ibias=ibias, cl=10e-12)
    return design_opamp(TECH, spec, MIRROR, name=row)


def _candidates(amp, seed: int):
    variables = ape_ranges(amp)
    rng = random.Random(seed)
    return [
        {
            v.name: math.exp(rng.uniform(math.log(v.lo), math.log(v.hi)))
            for v in variables
        }
        for _ in range(CANDIDATES_PER_ROW)
    ]


@pytest.fixture(scope="module")
def railed_candidates():
    """``(template, params, build)`` for every seeded APE-box candidate."""
    out = []
    for index, row in enumerate(UNBUFFERED_ROWS):
        amp = _amp(row)
        for params in _candidates(amp, seed=100 + index):
            sized = parameterized_opamp(amp, params)

            def build(v, sized=sized):
                return open_loop_bench(sized, v_diff=v)

            out.append((amp, params, build))
    return out


def _bisection_only(patch) -> None:
    """Make every bordered attempt fail, so only the bisection runs."""
    patch.setattr(analysis, "_balance_bordered", lambda *a: None)


class TestBorderedBalance:
    def test_output_lands_on_target(self, railed_candidates):
        for _amp, _params, build in railed_candidates:
            assert abs(dc_operating_point(build(0.0)).v("out")) > 0.25
            v, ckt, op = balance_differential(
                build, "out", v_span=0.5, tol=2e-3
            )
            assert abs(v) < 0.5
            assert abs(op.v("out")) <= 1e-9
            assert op.system.circuit is ckt

    def test_returned_point_resolves_in_one_iteration(
        self, railed_candidates
    ):
        for _amp, _params, build in railed_candidates:
            _, ckt, op = balance_differential(
                build, "out", v_span=0.5, tol=2e-3
            )
            again = dc_operating_point(ckt, x0=op.x)
            assert again.iterations == 1

    def test_metrics_agree_with_bisection(
        self, railed_candidates, monkeypatch
    ):
        for amp, params, _build in railed_candidates:
            bordered = OpAmpSizingProblem(amp, ape_ranges(amp))
            want = bordered.evaluate(params)
            with monkeypatch.context() as patch:
                _bisection_only(patch)
                bisected = OpAmpSizingProblem(amp, ape_ranges(amp))
                reference = bisected.evaluate(params)
            assert abs(want["offset"]) <= 1e-9
            for key in ("gain", "ugf", "phase_margin", "dc_power"):
                assert want[key] == pytest.approx(
                    reference[key], rel=METRIC_RTOL
                ), key


class TestBisectionFallback:
    @staticmethod
    def _offset_factory(shift: float):
        """A bench whose null lies ``shift`` volts outside the bracket."""

        def factory(amp, v_diff=0.0):
            return open_loop_bench(amp, v_diff=v_diff + shift)

        return factory

    def test_unbalanceable_amp_returns_nearer_end(self, railed_candidates):
        amp, params, _ = railed_candidates[0]
        sized = parameterized_opamp(amp, params)
        factory = self._offset_factory(2.0)
        ends = [
            dc_operating_point(factory(sized, v)).v("out")
            for v in (-0.5, 0.5)
        ]
        assert ends[0] * ends[1] > 0, "no sign change inside the bracket"
        v, _, op = balance_differential(
            lambda d: factory(sized, d), "out", v_span=0.5, tol=2e-3
        )
        assert v == (-0.5 if abs(ends[0]) <= abs(ends[1]) else 0.5)
        assert op.v("out") == min(ends, key=abs)

    def test_unbalanceable_candidate_is_dead_as_before(
        self, railed_candidates, monkeypatch
    ):
        amp, params, _ = railed_candidates[0]
        factory = self._offset_factory(2.0)
        problem = OpAmpSizingProblem(
            amp, ape_ranges(amp), bench_factory=factory
        )
        metrics = problem.evaluate(params)
        assert metrics["gain"] == 0.0
        assert math.isnan(metrics["ugf"])
        _bisection_only(monkeypatch)
        reference = OpAmpSizingProblem(
            amp, ape_ranges(amp), bench_factory=factory
        ).evaluate(params)
        assert metrics.keys() == reference.keys()
        for key, value in reference.items():
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(metrics[key])
            else:
                assert metrics[key] == value, key

    def test_non_source_edit_takes_the_bisection(
        self, railed_candidates, monkeypatch
    ):
        _, _, build = railed_candidates[0]

        def build_with_load_edit(v):
            # The load capacitor follows the drive: irrelevant at DC,
            # but no longer a source-only change.
            ckt = build(v)
            load = ckt.element("CLOAD")
            ckt.replace(
                dataclasses.replace(load, value=load.value + v * 1e-15)
            )
            return ckt

        calls = []
        newton = analysis._newton

        def spy(*args, **kwargs):
            calls.append(kwargs.get("border"))
            return newton(*args, **kwargs)

        monkeypatch.setattr(analysis, "_newton", spy)
        got = balance_differential(
            build_with_load_edit, "out", v_span=0.5, tol=2e-3
        )
        assert calls == []
        _bisection_only(monkeypatch)
        want = balance_differential(
            build_with_load_edit, "out", v_span=0.5, tol=2e-3
        )
        assert got[0] == want[0]
        assert got[2].v("out") == want[2].v("out")
