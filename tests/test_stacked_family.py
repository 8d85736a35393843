"""A robust candidate's family evaluated as one stack, bit for bit.

:class:`~repro.synthesis.robust.RobustEvaluator` evaluates a candidate's
nominal problem and corner problems together: one stacked Newton run
(:class:`~repro.spice.dc.NewtonStack`) and stacked AWE fits
(:func:`~repro.spice.awe.awe_poles_stack`).  The members the stack
cannot take — Monte Carlo samples, a failed plain Newton run (its DC
ladder), a railed output (its balancing), every member while a fault
injector is armed or on the sparse backend — go through their own
``evaluate``.

The reference is per-variant evaluation on fresh problems: a new
evaluator per candidate, whose first evaluation of every variant runs
that variant's own ``OpAmpSizingProblem.evaluate``.  Each walk compares,
candidate by candidate, every metric's ``float.hex``, the Diagnostics
and their order, the lint rejections and retries counted, and
``corner_evaluations`` and ``screened_candidates``; at the end, the
memo's entries, their order and its counters.  Every walk also checks
that the stack ran (or, where it must, stood aside), so a pass means the
stacked path was compared.
"""

import functools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.opamp import coarse_design_opamp
from repro.opamp.benches import open_loop_bench
from repro.parallel import EvalMemo
from repro.runtime.diagnostics import DiagnosticLog
from repro.runtime.faults import FaultSpec, injected_faults
from repro.runtime.retry import RetryPolicy
from repro.spice import awe_poles, dc, dc_operating_point, linalg
from repro.spice.awe import _fit, _moments_stack, awe_poles_stack
from repro.spice.engine import StampStack, assemble_dc, linearize_ac
from repro.spice.mna import System
from repro.synthesis import RobustEvaluator, RobustSpec, opamp_synthesis_spec
from repro.synthesis.problems import ape_ranges, standalone_ranges
from repro.technology import generic_05um

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_table3_opamps import OPAMPS  # noqa: E402
from paper_tables import TABLE1  # noqa: E402

TECH = generic_05um()
ROWS = {row.name: (row.spec(), row.topology()) for row in TABLE1}
ROWS[OPAMPS[0][0]] = (OPAMPS[0][1], OPAMPS[0][2])
TT_SS_FF = ("tt", "ss", "ff")
#: An injector that never fires: armed, it keeps every member on the
#: per-variant path without changing a result.
SILENT = {"spice.awe": FaultSpec("spice.awe", 0.0)}


@functools.cache
def _template(name):
    spec, topology = ROWS[name]
    template, _ = coarse_design_opamp(TECH, spec, topology, name=name)
    return template


def _variables(name, mode):
    template = _template(name)
    return ape_ranges(template) if mode == "ape" else standalone_ranges(template)


class _Side:
    """One evaluator, or a fresh one per candidate, with its hooks."""

    def __init__(self, name, mode, robust, *, memo, retries, fresh):
        self.args = (name, mode, robust)
        self.memo = memo
        self.retries = retries
        self.fresh = fresh
        self.evaluator = None if fresh else self._build()

    def _build(self):
        name, mode, robust = self.args
        evaluator = RobustEvaluator(
            _template(name),
            _variables(name, mode),
            robust,
            opamp_synthesis_spec(ROWS[name][0]),
        )
        log = DiagnosticLog(mirror=False)
        retry = (
            RetryPolicy(max_attempts=self.retries, seed=5)
            if self.retries else None
        )
        evaluator.bind(diagnostics=log, retry=retry, memo=self.memo)
        evaluator.log, evaluator.retry = log, retry
        return evaluator

    def __call__(self, params, *, warm=None):
        """``variants(params)`` and everything it recorded and counted."""
        evaluator = self._build() if self.fresh else self.evaluator
        if warm is not None:
            warm(evaluator)
        log, retry = evaluator.log, evaluator.retry
        seen = len(log)
        before = (
            evaluator.lint_rejections,
            0 if retry is None else retry.total_retries,
            evaluator.corner_evaluations,
            evaluator.screened_candidates,
        )
        family = evaluator.variants(params)
        after = (
            evaluator.lint_rejections,
            0 if retry is None else retry.total_retries,
            evaluator.corner_evaluations,
            evaluator.screened_candidates,
        )
        return (
            [(label, _hex(metrics)) for label, metrics in family.items()],
            [
                (d.subsystem, d.severity, d.message, repr(d.context))
                for d in list(log)[seen:]
            ],
            [b - a for a, b in zip(before, after)],
        )


def _hex(metrics):
    if metrics is None:
        return None
    return [(key, float(value).hex()) for key, value in metrics.items()]


def _memo_state(memo):
    if memo is None:
        return None
    return (
        [(key, _hex_value(value)) for key, value in memo._data.items()],
        [getattr(memo, name) for name in memo._COUNTER_FIELDS],
    )


def _hex_value(value):
    cost, metrics = value
    return float(cost).hex(), _hex(metrics)


def _candidates(name, mode, *, moves, seed, step=0.3, leave_box=0):
    """The box-clamped template point, then one-variable moves.

    Every ``leave_box``-th move shrinks a geometry a thousandfold: a W
    (a lint rejection) and an L (a ``SizingError``) in turn; the walk
    does not stay there.
    """
    variables = _variables(name, mode)
    start = _template(name).initial_point()
    point = {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }
    rng = random.Random(f"{name}/{mode}/{seed}")
    out = [point]
    for move in range(1, moves + 1):
        moved = dict(point)
        if leave_box and move % leave_box == 0:
            axis = ".l" if move % (2 * leave_box) == 0 else ".w"
            var = rng.choice([v for v in variables if v.name.endswith(axis)])
            moved[var.name] = point[var.name] * 1e-3
        else:
            var = rng.choice(variables)
            value = point[var.name] * math.exp(rng.gauss(0.0, step))
            moved[var.name] = min(max(value, var.lo), var.hi)
            point = moved
        out.append(moved)
    return out


@pytest.fixture
def stacked_runs(monkeypatch):
    """Count the stacked Newton runs made while a test runs."""
    runs = []
    init = dc.NewtonStack.__init__

    def counted(self, *args, **kwargs):
        runs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dc.NewtonStack, "__init__", counted)
    return runs


def _stack_expected(name):
    """Whether the stack runs for this row: not on the sparse backend."""
    return not linalg.use_sparse(System(open_loop_bench(_template(name))).size)


def _compare(
    name,
    mode,
    robust,
    candidates,
    *,
    memo=None,
    retries=0,
    warm=None,
):
    """Walk ``candidates`` on one evaluator and on fresh ones; compare.

    ``memo`` builds each side's memo.  Returns the stacked side's
    records.
    """
    make = (lambda: None) if memo is None else memo
    stacked = _Side(name, mode, robust, memo=make(), retries=retries,
                    fresh=False)
    reference = _Side(name, mode, robust, memo=make(), retries=retries,
                      fresh=True)
    records = []
    for params in candidates:
        got = stacked(params)
        want = reference(params, warm=warm)
        assert got == want, params
        records.append(got)
    assert _memo_state(stacked.memo) == _memo_state(reference.memo)
    return records


class TestStackedEqualsPerVariant:
    @pytest.mark.parametrize("mode", ["ape", "standalone"])
    def test_walk(self, mode, stacked_runs):
        candidates = _candidates("OpAmp1", mode, moves=14, seed=1)
        _compare("OpAmp1", mode, RobustSpec(corners=TT_SS_FF), candidates)
        assert bool(stacked_runs) == _stack_expected("OpAmp1")

    def test_screened_candidates(self, stacked_runs):
        """Standalone-box moves of a mid-run annealer size: the screen
        drops some candidates and keeps others, so corners ride the
        nominal's run and are dropped unseen, or resume."""
        candidates = _candidates("oa0", "standalone", moves=24, seed=3,
                                 step=1.2)
        records = _compare(
            "oa0", "standalone", RobustSpec(corners=TT_SS_FF), candidates,
            memo=EvalMemo,
        )
        screened = [counts[3] for _, _, counts in records]
        assert 0 < sum(screened) < len(records)
        assert bool(stacked_runs) == _stack_expected("oa0")

    @pytest.mark.parametrize("screen", [25.0, None], ids=["screen", "none"])
    def test_out_of_box_points(self, screen, stacked_runs):
        """Lint rejections (nominal only) and SizingErrors (every
        member): their Diagnostics arrive in the per-variant order."""
        candidates = _candidates("OpAmp1", "ape", moves=16, seed=2,
                                 leave_box=4)
        records = _compare(
            "OpAmp1", "ape",
            RobustSpec(corners=TT_SS_FF, screen_threshold=screen),
            candidates,
        )
        subsystems = {d[0] for _, diagnostics, _ in records for d in diagnostics}
        assert {"synthesis.lint", "synthesis.evaluate"} <= subsystems
        assert bool(stacked_runs) == _stack_expected("OpAmp1")

    def test_partial_memo_hits_and_evictions(self, stacked_runs):
        """Corner entries already memoized while the nominal's is not,
        and a memo so small that stores evict entries a later lookup
        of the same family wanted: lookups and stores keep the
        per-variant order."""
        candidates = _candidates("OpAmp1", "ape", moves=14, seed=4)
        seed_memo = EvalMemo()
        seeding = RobustEvaluator(
            _template("OpAmp1"),
            _variables("OpAmp1", "ape"),
            RobustSpec(corners=TT_SS_FF),
            opamp_synthesis_spec(ROWS["OpAmp1"][0]),
        )
        seeding.memo = seed_memo
        for params in candidates[3::3]:
            seeding.evaluate_variant("corner:ss", params)
        for params in candidates[5::4]:
            seeding.evaluate_variant("corner:ff", params)

        def seeded(capacity=None):
            memo = EvalMemo(capacity=capacity)
            memo.merge(seed_memo.export())
            return memo

        _compare("OpAmp1", "ape", RobustSpec(corners=TT_SS_FF), candidates,
                 memo=seeded)
        _compare("OpAmp1", "ape", RobustSpec(corners=TT_SS_FF), candidates,
                 memo=lambda: seeded(capacity=7))
        assert bool(stacked_runs) == _stack_expected("OpAmp1")

    def test_supply_and_temperature_corners(self, stacked_runs):
        """Two corners that stack and one whose template rails (it is
        balanced per variant)."""
        robust = RobustSpec(corners=("tt", "ss@85C", "fs@85C,4.75V",
                                     "ss@-40C,4.5V"))
        candidates = _candidates("OpAmp1", "standalone", moves=10, seed=5)
        _compare("OpAmp1", "standalone", robust, candidates, memo=EvalMemo)
        assert bool(stacked_runs) == _stack_expected("OpAmp1")

    def test_monte_carlo_sample_rides_per_variant(self, stacked_runs):
        robust = RobustSpec(corners=TT_SS_FF, mc_samples=1)
        candidates = _candidates("OpAmp1", "ape", moves=8, seed=6)
        records = _compare("OpAmp1", "ape", robust, candidates)
        assert all("mc:0" in dict(family) for family, _, _ in records)
        assert bool(stacked_runs) == _stack_expected("OpAmp1")

    def test_railed_outputs_balance_per_variant(self, stacked_runs):
        """oa3's template rails: every candidate is balanced, so no
        member of its family can stack."""
        candidates = _candidates("oa3", "ape", moves=6, seed=7)
        _compare("oa3", "ape", RobustSpec(corners=TT_SS_FF), candidates)
        assert not stacked_runs

    def test_armed_fault_injector_runs_per_variant(self, stacked_runs):
        candidates = _candidates("OpAmp1", "ape", moves=8, seed=8)
        specs = {
            "spice.dc": FaultSpec("spice.dc", 0.2),
            "spice.awe": FaultSpec("spice.awe", 0.1),
        }
        robust = RobustSpec(corners=TT_SS_FF, screen_threshold=None)
        stacked = _Side("OpAmp1", "ape", robust, memo=None, retries=2,
                        fresh=False)
        reference = _Side("OpAmp1", "ape", robust, memo=None, retries=2,
                          fresh=True)
        for params in candidates:
            with injected_faults(specs, seed=11):
                got = stacked(params)
            with injected_faults(specs, seed=11):
                want = reference(params)
            assert got == want
        assert not stacked_runs

    def test_failed_plain_newton_goes_down_its_ladder(self, monkeypatch):
        """With Newton runs capped at four iterations some members'
        plain runs fail: each goes on down its gmin/source-stepping
        ladder and through its retries at its own turn.  Both sides
        warm up uncapped first (the reference under an injector that
        never fires, so it stays per-variant)."""
        name = "OpAmp1"
        candidates = _candidates(name, "standalone", moves=12, seed=9,
                                 step=0.8)
        warm_point = candidates[0]
        robust = RobustSpec(corners=TT_SS_FF, screen_threshold=None)
        stacked = _Side(name, "standalone", robust, memo=None, retries=3,
                        fresh=False)
        stacked(warm_point)
        outcomes = []
        finish = dc.NewtonStack._finish

        def spy(self, members, outcome):
            outcomes.append(outcome)
            finish(self, members, outcome)

        monkeypatch.setattr(dc.NewtonStack, "_finish", spy)
        monkeypatch.setitem(dc._newton.__kwdefaults__, "max_iter", 4)
        monkeypatch.setitem(dc.NewtonStack.__init__.__kwdefaults__,
                            "max_iter", 4)

        def warm(evaluator):
            with monkeypatch.context() as m:
                m.setitem(dc._newton.__kwdefaults__, "max_iter", 150)
                with injected_faults(SILENT):
                    evaluator.variants(warm_point)

        reference = _Side(name, "standalone", robust, memo=None, retries=3,
                          fresh=True)
        retried = 0
        for params in candidates[1:]:
            got = stacked(params)
            with injected_faults(SILENT):
                want = reference(params, warm=warm)
            assert got == want, params
            retried += got[2][1]
        assert retried > 0  # some ladders failed and were retried
        if _stack_expected(name):
            assert None in outcomes  # some plain run failed in the stack
            assert any(o is not None for o in outcomes)


class TestStackedAssembly:
    """The stacked assembly, Newton run and AWE fit, member by member.

    The stack serves the dense backend only (a family steps aside on the
    sparse one), so these comparisons pin the dense backend.
    """

    @pytest.fixture(autouse=True)
    def dense(self):
        with linalg.solver_override("dense"):
            yield

    @pytest.fixture(scope="class")
    def systems(self):
        from repro.synthesis.robust import retarget_opamp
        from repro.variation.corners import derive_corner

        template = _template("OpAmp1")
        out = []
        for corner in TT_SS_FF:
            amp = retarget_opamp(template, derive_corner(TECH, corner))
            out.append(System(open_loop_bench(amp)))
        return out

    @staticmethod
    def _biases(size, seed):
        """Wild bias points: many devices run reversed or cut off."""
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 2.0, (3, size))

    def test_dc_and_ac_assembly_match_each_member(self, systems):
        stack = StampStack(systems)
        assert stack.refresh()
        for seed in range(6):
            x = self._biases(systems[0].size, seed)
            res, jac = stack.assemble_dc(x)
            g, c, b = stack.linearize_ac(x)
            for m, system in enumerate(systems):
                res_m, jac_m = assemble_dc(system, x[m])
                g_m, c_m, b_m = linearize_ac(system, x[m])
                assert np.array_equal(res[m], res_m)
                assert np.array_equal(jac[m], jac_m)
                assert np.array_equal(g[m], g_m)
                assert np.array_equal(c[m], c_m)
                assert np.array_equal(b[m], b_m)

    def test_awe_stack_fits_equal_the_fit_to_2q_plus_2_moments(self, systems):
        stack = StampStack(systems)
        assert stack.refresh()
        x = np.array([
            dc_operating_point(system.circuit, system=system).x
            for system in systems
        ])
        fits = awe_poles_stack(stack, x, [0, 1, 2], "out", 3)
        longer = _moments_stack(stack, x, [0, 1, 2], "out", 8)
        for m, system in enumerate(systems):
            reference = _fit(system.circuit.title, "out", longer[m], 3)
            assert np.array_equal(fits[m].moments, longer[m][:6])
            for field in ("poles", "residues"):
                got, want = getattr(fits[m], field), getattr(reference, field)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_newton_and_awe_match_each_member(self, systems):
        stack = StampStack(systems)
        assert stack.refresh()
        starts = {}
        for m, system in enumerate(systems):
            starts[m] = dc_operating_point(system.circuit, system=system).x
            starts[m] = starts[m] + np.linspace(-0.3, 0.3, system.size) * m
        newton = dc.NewtonStack(stack, starts)
        newton.run()
        x = np.zeros((len(systems), systems[0].size))
        for m, system in enumerate(systems):
            alone = dc._newton(system, starts[m], gmin=1e-12)
            outcome = newton.outcomes[m]
            assert (alone is None) == (outcome is None)
            if alone is None:
                continue
            assert np.array_equal(alone[0], outcome[0])
            assert alone[1] == outcome[1]
            x[m] = outcome[0]
        fits = awe_poles_stack(stack, x, [0, 1, 2], "out", 3)
        for m, system in enumerate(systems):
            op = dc.settle_operating_point(
                system.circuit, system, starts[m], newton.outcomes[m]
            )
            alone = awe_poles(system.circuit, "out", order=3, op=op)
            for field in ("poles", "residues", "moments"):
                got, want = getattr(fits[m], field), getattr(alone, field)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
