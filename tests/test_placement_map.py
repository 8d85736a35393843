"""The placement map: each search variable's elements, declared once.

:func:`~repro.opamp.benches.place_opamp` returns, with the netlist it
stamps, the map from search variable to the ``(element, field)`` pairs
that carry its value; every component's ``place`` reports the MOSFETs
its roles land in.  An :class:`OpAmpSizingProblem` applies candidates
to its in-place bench through that map.  The oracle is the bench-map
probe (``tests/oracles.py``), which finds the map by building the bench
once per variable: the two must agree on every topology the estimator
poses, in both search boxes.
"""

import itertools
import math

import pytest

from repro.opamp import OpAmpSpec, OpAmpTopology, coarse_design_opamp
from repro.opamp.benches import opamp_placement, open_loop_bench
from repro.synthesis.problems import (
    OpAmpSizingProblem,
    ape_ranges,
    standalone_ranges,
)
from repro.technology import generic_05um
from tests.oracles import probe_bench_map

TECH = generic_05um()
SPEC = OpAmpSpec(gain=200, ugf=5e6, area=2000e-12, ibias=10e-6, cl=10e-12)
#: Every topology: current source x differential stage x buffer.
TOPOLOGIES = list(
    itertools.product(
        ("mirror", "wilson", "cascode"), ("cmos", "nmos", "folded"), (False, True)
    )
)


def _id(topology):
    current_source, diff_pair, buffer = topology
    return f"{current_source}-{diff_pair}-{'buffered' if buffer else 'bare'}"


def _template(current_source, diff_pair, buffer):
    topology = OpAmpTopology(
        current_source=current_source,
        diff_pair=diff_pair,
        output_buffer=buffer,
        z_load=10e3 if buffer else math.inf,
    )
    template, _ = coarse_design_opamp(
        TECH, SPEC, topology, name=f"{current_source}-{diff_pair}-{buffer}"
    )
    return template


def _point(template, variables):
    start = template.initial_point()
    return {
        v.name: min(max(start.get(v.name, v.lo), v.lo), v.hi)
        for v in variables
    }


def _hex(metrics):
    return {key: float(value).hex() for key, value in metrics.items()}


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=_id)
def test_placement_map_equals_the_probe(topology):
    template = _template(*topology)
    placed = opamp_placement(template)
    for ranges in (ape_ranges, standalone_ranges):
        variables = ranges(template)
        probed = probe_bench_map(template, variables, _point(template, variables))
        assert placed == probed, ranges.__name__


def test_shared_roles_and_derived_elements():
    """Matched roles land in two elements, ``cc`` in the Miller or the
    dominant-pole capacitor; the nulling resistor and the sink-bias
    diode, which the netlist derives, are in no entry."""
    cc_elements = set()
    for topology in TOPOLOGIES:
        template = _template(*topology)
        placed = opamp_placement(template)
        assert placed["diff.pair.w"] == (("X1DFM1", "w"), ("X1DFM2", "w"))
        assert placed["diff.pair.l"] == (("X1DFM1", "l"), ("X1DFM2", "l"))
        cc_elements.update(e for e, _ in placed.get("cc", ()))
        mapped = {e for pairs in placed.values() for e, _ in pairs}
        bench = open_loop_bench(template)
        assert {"X1RZ", "X1MBIASB"} & mapped == set()
        assert mapped <= {e.name for e in bench}
    assert cc_elements == {"X1CC", "X1CCOMP"}


@pytest.mark.parametrize("topology", TOPOLOGIES[:6], ids=_id)
def test_dict_with_extra_keys_gives_the_canonical_floats(topology):
    """``initial_point()``'s ``i.*`` keys name no placed variable: the
    dict is applied as the variables it names."""
    template = _template(*topology)
    variables = ape_ranges(template)
    point = _point(template, variables)
    currents = {
        key: value
        for key, value in template.initial_point().items()
        if key.startswith("i.")
    }
    assert currents
    moved = {name: value * 1.03 for name, value in point.items()}
    problem = OpAmpSizingProblem(template, variables)
    for params in (point, moved, point):
        canonical = OpAmpSizingProblem(template, variables).evaluate(params)
        assert _hex(problem.evaluate({**params, **currents})) == _hex(canonical)


def test_missing_variable_takes_the_template_value():
    """A dict without a variable sets it back to the template's value,
    as ``parameterized_opamp`` reads such a dict."""
    template = _template("mirror", "cmos", False)
    variables = ape_ranges(template)
    point = _point(template, variables)
    name = "diff.pair.w"
    moved = {**point, name: point[name] * 1.1}
    problem = OpAmpSizingProblem(template, variables)
    problem.evaluate(moved)
    missing = {key: value for key, value in moved.items() if key != name}
    fresh = OpAmpSizingProblem(template, variables).evaluate(
        {**missing, name: template.initial_point()[name]}
    )
    assert _hex(problem.evaluate(missing)) == _hex(fresh)
