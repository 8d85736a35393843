"""Output balancing by bordered Newton, with bisection as the fallback.

``balance_differential`` first solves the MNA unknowns and the
differential drive together (one bordered Newton run) and returns the
converged vector as the operating point of ``build(v)``, without
another solve: Newton's residual gate already tested ``build(v)``'s own
residual.  These tests pin that contract on seeded candidates from the
APE boxes of the unbuffered Table-1 rows (oa3-oa6, whose outputs rail
at zero drive): the returned point lands on the target and a plain DC
solve of ``build(v)`` from it converges in one iteration.  They pin
the bisection fallback for builds the bordered solve must not take,
and the sizing problem's railed recipe: a problem whose template rails
balances every candidate directly from the template's balanced point,
with no zero-drive solve, on copies of its in-place bench with a
per-problem drive column.  Those copies equal benches built from
scratch at every drive, the column equals the one two such builds
give, and the floats equal those of benches built from scratch and of
a fresh problem per candidate.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

import repro.spice.analysis as analysis
import repro.synthesis.problems as problems
from repro.errors import ApeError
from repro.opamp import OpAmpSpec, OpAmpTopology, design_opamp, open_loop_bench
from repro.opamp.benches import differential_drive
from repro.spice import dc_operating_point
from repro.spice.analysis import _drive_column, balance_differential
from repro.spice.mna import System
from repro.synthesis.problems import (
    BALANCE_SPAN,
    RAIL,
    OpAmpSizingProblem,
    ape_ranges,
    parameterized_opamp,
    standalone_ranges,
)
from repro.technology import generic_05um
from tests.oracles import factory_evaluate

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


def _counting_bench(calls: list):
    """``open_loop_bench``, recording the drive of every build."""

    def bench(amp, v_diff=0.0):
        calls.append(v_diff)
        return open_loop_bench(amp, v_diff=v_diff)

    return bench


def _exact(metrics) -> dict[str, str]:
    """Metrics as ``float.hex`` text; every NaN reads the same."""
    return {
        key: "nan" if math.isnan(value) else float(value).hex()
        for key, value in metrics.items()
    }


def _by_row(railed_candidates):
    """``(problem, params)`` per candidate, one problem per Table-1 row."""
    by_row: dict[str, OpAmpSizingProblem] = {}
    for amp, params, _build in railed_candidates:
        if amp.name not in by_row:
            by_row[amp.name] = OpAmpSizingProblem(amp, ape_ranges(amp))
        yield by_row[amp.name], params


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
    def _offset_bench(shift: float):
        """A bench whose null lies ``shift`` volts of drive outside the
        bracket, whatever drive its copies are given: a source in series
        with each input source adds half the shift."""

        def bench(amp, v_diff=0.0):
            ckt = open_loop_bench(amp, v_diff=v_diff)
            for name, node, dc in (
                ("VINP", "inp_ofs", shift / 2.0),
                ("VINN", "inn_ofs", -shift / 2.0),
            ):
                ckt.replace(dataclasses.replace(ckt.element(name), nn=node))
                ckt.v(node, "0", dc=dc, name=f"{name}OFS")
            return ckt

        return bench

    def test_unbalanceable_amp_returns_nearer_end(self, railed_candidates):
        amp, params, _ = railed_candidates[0]
        sized = parameterized_opamp(amp, params)
        factory = self._offset_bench(2.0)
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
        monkeypatch.setattr(problems, "open_loop_bench", self._offset_bench(2.0))
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        metrics = problem.evaluate(params)
        assert metrics["gain"] == 0.0
        assert math.isnan(metrics["ugf"])
        _bisection_only(monkeypatch)
        reference = OpAmpSizingProblem(amp, ape_ranges(amp)).evaluate(params)
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


class TestInPlaceDrive:
    @pytest.mark.parametrize("bisection", [False, True])
    def test_same_floats_as_the_factory_path(
        self, railed_candidates, monkeypatch, bisection
    ):
        """The in-place drive returns the floats of benches built from
        scratch at every drive, started from the same template points."""
        if bisection:
            _bisection_only(monkeypatch)
        for problem, params in _by_row(railed_candidates):
            in_place = _exact(problem.evaluate(params))
            assert problem._column is not None
            assert in_place == _exact(
                factory_evaluate(problem, params, warm=True)
            )

    def test_driven_copies_equal_factory_builds(
        self, railed_candidates, monkeypatch
    ):
        """A driven copy of the in-place bench equals the bench built
        from scratch at that drive: at zero, at the balance span, at a
        negative non-dyadic drive and at every drive a bisection asks
        for."""
        _bisection_only(monkeypatch)
        drives = []
        copies = problems._driven_copies

        def spy(bench):
            build = copies(bench)

            def recorded(v):
                drives.append(v)
                return build(v)

            return recorded

        monkeypatch.setattr(problems, "_driven_copies", spy)
        for problem, params in _by_row(railed_candidates):
            del drives[:]
            problem.evaluate(params)
            bisected = [v for v in drives if v not in (0.0, BALANCE_SPAN)]
            assert len(bisected) > 2
            amp = parameterized_opamp(problem.template, params)
            for v in (0.0, BALANCE_SPAN, -0.3, *bisected):
                built = open_loop_bench(amp, v_diff=v)
                assert copies(problem._bench)(v).elements == built.elements

    def test_column_equals_two_factory_builds(self, railed_candidates):
        for problem, params in _by_row(railed_candidates):
            problem.evaluate(params)
            amp = parameterized_opamp(problem.template, params)
            at_zero = open_loop_bench(amp, v_diff=0.0)
            at_span = open_loop_bench(amp, v_diff=BALANCE_SPAN)
            column = _drive_column(
                System(at_zero), at_zero, at_span, BALANCE_SPAN
            )
            assert np.array_equal(problem._column, column)

    def test_one_bench_build_per_problem(
        self, railed_candidates, monkeypatch
    ):
        """A railed problem builds its bench once, at zero drive; its
        candidates and their drives build none."""
        amp = railed_candidates[0][0]
        rows = [params for a, params, _ in railed_candidates if a is amp]
        calls: list[float] = []
        monkeypatch.setattr(problems, "open_loop_bench", _counting_bench(calls))
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        for params in rows:
            assert problem.evaluate(params) is not None
        assert calls == [0.0]
        assert problem._balanced_x0 is not None

    def test_buffered_problem_never_computes_a_column(self):
        spec = OpAmpSpec(gain=70, ugf=3.0e6, area=3000e-12, ibias=2e-6, cl=10e-12)
        topology = OpAmpTopology(
            current_source="wilson", output_buffer=True, z_load=1e3
        )
        amp = design_opamp(TECH, spec, topology, name="oa1")
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        for params in _candidates(amp, seed=7):
            assert problem.evaluate(params) is not None
        assert problem._column is None

    def test_bisection_returns_its_own_circuit(
        self, railed_candidates, monkeypatch
    ):
        _bisection_only(monkeypatch)
        returned = []
        balance = problems.balance_differential

        def spy(*args, **kwargs):
            returned.append(balance(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(problems, "balance_differential", spy)
        for problem, params in _by_row(railed_candidates):
            problem.evaluate(params)
            v, ckt, op = returned[-1]
            bench = problem._bench
            assert problem._column is not None
            assert ckt is not bench
            assert op.system.circuit is ckt
            for name, dc in differential_drive(v).items():
                assert ckt.element(name).dc == dc
                assert bench.element(name).dc == 0.0
        assert len(returned) == len(railed_candidates)

    def test_column_needs_a_system(self, railed_candidates):
        _, _, build = railed_candidates[0]
        with pytest.raises(ValueError):
            balance_differential(
                build, "out", v_span=0.5, column=np.zeros(3)
            )


class TestBalancedStart:
    """A problem whose template rails starts every candidate at the
    template's balanced point: one bordered solve, no zero-drive solve."""

    def test_railed_candidate_makes_one_bordered_solve(
        self, railed_candidates, monkeypatch
    ):
        solves, bordered = [], []
        dc = problems.dc_operating_point
        newton = analysis._newton

        def dc_spy(*args, **kwargs):
            solves.append(args)
            return dc(*args, **kwargs)

        def newton_spy(*args, **kwargs):
            if kwargs.get("border") is not None:
                bordered.append(args)
            return newton(*args, **kwargs)

        monkeypatch.setattr(problems, "dc_operating_point", dc_spy)
        monkeypatch.setattr(analysis, "_newton", newton_spy)
        seen = set()
        for problem, params in _by_row(railed_candidates):
            if problem not in seen:
                seen.add(problem)
                problem.evaluate(params)
                assert problem._balanced_x0 is not None
                continue
            del solves[:], bordered[:]
            metrics = problem.evaluate(params)
            assert solves == []
            assert len(bordered) == 1
            assert abs(metrics["offset"]) <= 1e-9
        assert len(seen) == len(UNBUFFERED_ROWS)

    @pytest.mark.parametrize("bisection", [False, True])
    def test_fresh_problem_per_candidate_gives_the_same_floats(
        self, railed_candidates, monkeypatch, bisection
    ):
        if bisection:
            _bisection_only(monkeypatch)
        long_lived: dict[str, OpAmpSizingProblem] = {}
        history = {}
        for amp, params, _build in reversed(railed_candidates):
            if amp.name not in long_lived:
                long_lived[amp.name] = OpAmpSizingProblem(amp, ape_ranges(amp))
            history[id(params)] = _exact(long_lived[amp.name].evaluate(params))
        for amp, params, _build in railed_candidates:
            fresh = OpAmpSizingProblem(amp, ape_ranges(amp))
            assert _exact(fresh.evaluate(params)) == history[id(params)]
            assert fresh._balanced_x0 is not None

    @pytest.mark.parametrize("row", ["oa4", "oa5"])
    def test_candidate_that_does_not_rail_is_measured_balanced(self, row):
        """Version 4's one semantic change: a railed problem measures
        every candidate balanced, also one whose own zero-drive output
        sits inside the rail threshold."""
        amp = _amp(row)
        variables = standalone_ranges(amp)
        problem = OpAmpSizingProblem(amp, variables)
        rng = random.Random(f"{row}/standalone")
        found = 0
        for _ in range(300):
            params = {
                v.name: math.exp(rng.uniform(math.log(v.lo), math.log(v.hi)))
                for v in variables
            }
            bench = open_loop_bench(parameterized_opamp(amp, params))
            try:
                at_zero = dc_operating_point(bench).v("out")
            except ApeError:
                continue
            if abs(at_zero) > RAIL:
                continue
            assert abs(at_zero) > problem.balance_tolerance
            metrics = problem.evaluate(params)
            assert problem._balanced_x0 is not None
            assert abs(metrics["offset"]) <= 1e-9
            found += 1
            if found == 2:
                break
        assert found == 2
