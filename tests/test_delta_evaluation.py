"""Candidates applied to the in-place bench as deltas, against fresh problems.

An :class:`OpAmpSizingProblem` builds its bench once, at the template
point, writes only the variables a candidate changes (through the map
its placement declares), checks only those devices' geometry and lints
the candidate only when a written element is flagged.  Evaluation is canonical, so a
long-lived problem must answer every candidate exactly as a problem
built for that one point does: the same metrics bit for bit, the same
Diagnostics and the same ``lint_rejections`` step.  Walks that leave
the box reach lint rejections (E301) and ``SizingError``s.

The lint gate's once-per-problem structural pass must not decide a
later candidate's value and geometry rules: a first candidate with an
E301 finding used to reject every later one, in this problem and in
every later run that reused it.
"""

import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.synthesis.problems as problems
from repro.opamp import coarse_design_opamp
from repro.opamp.benches import opamp_placement, open_loop_bench
from repro.parallel import executor
from repro.runtime.diagnostics import DiagnosticLog
from repro.spice.mna import System
from repro.spice.netlist import Mosfet
from repro.synthesis import synthesize_opamp
from repro.synthesis.problems import (
    OpAmpSizingProblem,
    ape_ranges,
    standalone_ranges,
)
from repro.technology import generic_05um, generic_12um

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_table3_opamps import OPAMPS  # noqa: E402
from paper_tables import TABLE1  # noqa: E402

ROWS = {row.name: (row.spec(), row.topology()) for row in TABLE1}
ROWS[OPAMPS[0][0]] = OPAMPS[0][1:]
MOVES = 30
#: Every fifth move, the first included, leaves the box by one of
#: these factors.
OUT_OF_BOX = (3.0, 0.2, 1e-3)


def _setup(tech, name, mode):
    spec, topology = ROWS[name]
    template, _ = coarse_design_opamp(tech, spec, topology, name=name)
    ranges = ape_ranges if mode == "ape" else standalone_ranges
    return template, ranges(template)


def _start(template, variables):
    start = template.initial_point()
    return {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }


def _outcome(problem, params):
    """Metrics (``float.hex``), Diagnostics and lint step of one call."""
    log = DiagnosticLog(mirror=False)
    problem.diagnostics = log
    before = problem.lint_rejections
    metrics = problem.evaluate(params)
    hexed = None if metrics is None else {
        key: float(value).hex() for key, value in metrics.items()
    }
    diagnostics = [
        (d.subsystem, d.severity, d.message, repr(sorted(d.context.items())))
        for d in log
    ]
    return hexed, diagnostics, problem.lint_rejections - before


@pytest.mark.parametrize("mode", ["ape", "standalone"])
@pytest.mark.parametrize("tech_name", ["generic_05um", "generic_12um"])
@pytest.mark.parametrize("name", ["oa0", "oa3", "OpAmp1"])
def test_long_lived_problem_matches_a_fresh_one(name, tech_name, mode):
    tech = {"generic_05um": generic_05um, "generic_12um": generic_12um}[
        tech_name
    ]()
    template, variables = _setup(tech, name, mode)
    problem = OpAmpSizingProblem(template, variables)
    point = _start(template, variables)
    rng = random.Random(f"{name}/{tech_name}/{mode}")
    kinds = set()
    for move in range(MOVES):
        var = rng.choice(variables)
        moved = dict(point)
        if move % 5 == 0:
            moved[var.name] = point[var.name] * rng.choice(OUT_OF_BOX)
        else:
            value = point[var.name] * math.exp(rng.gauss(0.0, 0.3))
            moved[var.name] = min(max(value, var.lo), var.hi)
        got = _outcome(problem, moved)
        want = _outcome(OpAmpSizingProblem(template, variables), moved)
        assert got == want, f"move {move}: {var.name} -> {moved[var.name]!r}"
        kinds.add("lint" if got[2] else "failed" if got[0] is None else "ok")
        if got[0] is not None:
            point = moved
    assert "ok" in kinds


def test_walks_reach_rejections_and_sizing_errors():
    """The out-of-box moves above do reach both failure kinds."""
    tech = generic_12um()
    template, variables = _setup(tech, "oa0", "standalone")
    problem = OpAmpSizingProblem(template, variables)
    point = _start(template, variables)
    assert problem.evaluate(point) is not None
    w_key = next(v.name for v in variables if v.name.endswith(".w"))
    l_key = next(v.name for v in variables if v.name.endswith(".l"))
    rejected = _outcome(problem, {**point, w_key: point[w_key] * 1e-3})
    assert rejected[0] is None and rejected[2] == 1
    assert rejected[1][0][0] == "synthesis.lint"
    assert "E301" in rejected[1][0][2]
    unsized = _outcome(problem, {**point, l_key: point[l_key] * 1e-3})
    assert unsized[0] is None and unsized[2] == 0
    assert unsized[1][0][:2] == ("synthesis.evaluate", "warning")
    assert "effective length" in unsized[1][0][2]


def test_noqa_tag_keeps_a_flagged_candidate(monkeypatch):
    """A flagged element still runs the rules, so its noqa tag holds."""
    tech = generic_05um()
    template, variables = _setup(tech, "oa0", "ape")
    point = _start(template, variables)
    w_key = next(v.name for v in variables if v.name.endswith(".w"))
    (element, _field), = opamp_placement(template)[w_key]

    def tagged_bench(amp, v_diff=0.0):
        ckt = open_loop_bench(amp, v_diff=v_diff)
        ckt.noqa(element, "E301")
        return ckt

    monkeypatch.setattr(problems, "open_loop_bench", tagged_bench)
    problem = OpAmpSizingProblem(template, variables)
    problem.evaluate(point)
    thin = {**point, w_key: point[w_key] * 0.05}
    got = _outcome(problem, thin)
    assert got[2] == 0
    assert got == _outcome(OpAmpSizingProblem(template, variables), thin)
    assert problem._bench.noqa_tags(element) == {"E301"}


class TestLintGate:
    def test_good_point_after_an_e301_point(self):
        """A first candidate with an E301 finding rejects only itself."""
        tech = generic_05um()
        template, variables = _setup(tech, "oa0", "ape")
        good = _start(template, variables)
        w_key = next(v.name for v in variables if v.name.endswith(".w"))
        bad = {**good, w_key: good[w_key] * 1e-3}
        problem = OpAmpSizingProblem(template, variables)
        rejected = _outcome(problem, bad)
        assert rejected[0] is None and rejected[2] == 1
        assert "E301" in rejected[1][0][2]
        after = _outcome(problem, good)
        fresh = _outcome(OpAmpSizingProblem(template, variables), good)
        assert after[0] is not None
        assert after == fresh

    def test_rejecting_run_does_not_poison_later_runs(self, monkeypatch):
        """generic_12um's w_min (1.8 um) is above the standalone box's
        0.9 um floor, so standalone runs meet E301 candidates; a run
        whose first candidate had one used to leave every later run of
        the same problem in this process rejecting all it evaluated."""
        tech = generic_12um()
        spec, topology = ROWS["oa0"]

        def rejections(seed):
            return synthesize_opamp(
                tech, spec, topology, mode="standalone",
                max_evaluations=40, seed=seed, name="oa0",
            ).lint_rejections

        monkeypatch.setattr(executor, "_BUNDLES", {})
        alone = {}
        for seed in (10, 15, 13):
            executor._BUNDLES.clear()
            alone[seed] = rejections(seed)
        executor._BUNDLES.clear()
        assert rejections(1) > 0
        after = {seed: rejections(seed) for seed in (10, 15, 13)}
        assert after == alone
        assert all(count < 40 for count in after.values())


def test_system_rebuilds_only_changed_devices():
    """A MOSFET edit rebuilds that transistor's device alone, and a
    rebind to a copy sharing every element object rebuilds none."""
    template, _ = _setup(generic_05um(), "oa0", "ape")
    bench = open_loop_bench(template)
    system = System(bench)
    mosfets = [e.name for e in bench if isinstance(e, Mosfet)]
    before = {name: system.device(name) for name in mosfets}
    edited = bench.element(mosfets[0])
    bench.replace(replace(edited, w=edited.w * 1.5))
    system._sync_devices()
    assert system.device(mosfets[0]).w == edited.w * 1.5
    assert all(system.device(n) is before[n] for n in mosfets[1:])
    after = {name: system.device(name) for name in mosfets}
    assert system.rebind(bench.copy()) is system
    assert all(system.device(n) is after[n] for n in mosfets)
