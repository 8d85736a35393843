"""The MOSFET model and the sizing bisection against their oracle.

``tests/reference_mos.py`` derives every term of the Level-1/2/3
equations per call and runs all 80 bisection steps.  ``MosDevice``
resolves the bias-independent terms once per ``(vds, vsb)`` in a
``DrainLaw``, evaluates a sized device in one pass, and the bisection
stops once its bracket stalls.  Every result must be the oracle's bit
for bit, on cards that reach the THETA and VMAX branches (every preset
card is Level 1), in every region, and for every solve, including one
whose target current is out of reach.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.devices import (
    DrainLaw,
    MosDevice,
    Region,
    size_for_current_density,
    size_for_gm_id,
    size_for_id_vov,
)
from repro.devices import sizing
from repro.opamp import design_opamp
from repro.technology import generic_05um
from tests import reference_mos as ref

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper_tables import TABLE1  # noqa: E402

TECH = generic_05um()


def _cards():
    """Level 1, 2 and 3 NMOS and PMOS cards, THETA and VMAX on and off."""
    for base in (TECH.nmos, TECH.pmos):
        for level, theta, vmax in itertools.product(
            (1, 2, 3), (0.0, 0.05, 0.2), (0.0, 1e5, 2e5)
        ):
            yield base.with_(level=level, theta=theta, vmax=vmax)
    # KP derived from U0 * Cox rather than given on the card.
    yield TECH.nmos.with_(kp=0.0, level=3, theta=0.05, vmax=1e5)


CARDS = list(_cards())
GEOMETRIES = ((10e-6, 1.2e-6), (2e-6, 0.6e-6), (50e-6, 5e-6))


def _devices():
    for model in CARDS:
        for w, l in GEOMETRIES:
            yield MosDevice(model, w, l)


def _bits(value):
    """A value's exact floats (``-0.0`` differs from ``0.0``)."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    return value


def _bias_points(device: MosDevice, rng: random.Random):
    """Random and edge bias points; edges sit on each region boundary."""
    for _ in range(8):
        yield rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), rng.uniform(-0.5, 3.0)
    for vsb in (0.7, -0.3):  # -0.3 clamps to 0
        vth = device.threshold(vsb)
        yield vth, 1.0, vsb  # vov == 0: cutoff
        for vov in (0.05, 0.4, 1.5):
            vdsat = device.law(0.0, vsb).vdsat(vov)
            # Deep triode, exactly at vdsat, between vdsat and vov (the
            # velocity-saturated band on Level 3), and past vov.
            for vds in (0.0, 0.2 * vdsat, vdsat, 0.5 * (vdsat + vov), vov + 0.5):
                yield vth + vov, vds, vsb


def test_equations_match_the_oracle_bit_for_bit():
    rng = random.Random(20260)
    seen = {"cutoff": 0, "triode": 0, "saturation": 0, "velocity": 0}
    for device in _devices():
        for vgs, vds, vsb in _bias_points(device, rng):
            region = ref.region(device, vgs, vds, vsb)
            assert device.region(vgs, vds, vsb) is region
            for name in ("ids", "gm", "gmb", "gds", "capacitances", "small_signal"):
                got = getattr(device, name)(vgs, vds, vsb)
                want = getattr(ref, name)(device, vgs, vds, vsb)
                assert _bits(got) == _bits(want), (name, device, vgs, vds, vsb)
            assert _bits(device.capacitances(vgs, vds, vsb, vdb=0.4)) == _bits(
                ref.capacitances(device, vgs, vds, vsb, vdb=0.4)
            )
            op, ss = device.linearize(vgs, vds, vsb)
            assert (op.vgs, op.vds, op.vsb, op.region) == (vgs, vds, vsb, region)
            assert _bits(op.ids) == _bits(ref.ids(device, vgs, vds, vsb))
            assert _bits(ss) == _bits(ref.small_signal(device, vgs, vds, vsb))
            seen[region.value] += 1
            vov = ref.overdrive(device, vgs, vsb)
            if region is Region.SATURATION and vds < vov:
                seen["velocity"] += 1
    assert all(seen.values()), seen


def test_vdsat_is_the_oracles():
    for device in _devices():
        for vov in (0.01, 0.3, 1.0, 4.0):
            assert _bits(device.law(1.0, 0.0).vdsat(vov)) == _bits(
                ref._vdsat(device, vov)
            )


def test_solves_match_the_80_step_bisection():
    rng = random.Random(8)
    unreachable = 0
    for device in _devices():
        for _ in range(3):
            vds, vsb = rng.uniform(0.05, 4.0), rng.uniform(0.0, 2.5)
            vgs = device.threshold(vsb) + rng.uniform(0.01, 3.0)
            targets = [ref.ids(device, vgs, vds, vsb), 1e-9]
            # Beyond the current at the bracket's ceiling: the solve
            # returns the ceiling.
            ceiling = device.threshold(vsb) + 20.0
            targets.append(2.0 * ref.ids(device, ceiling, vds, vsb))
            for target in targets:
                got = sizing._solve_vgs_for_id(device, target, vds, vsb)
                want = ref.solve_vgs_for_id(device, target, vds, vsb)
                assert _bits(got) == _bits(want), (device, target, vds, vsb)
                unreachable += got == ceiling
    assert unreachable >= len(CARDS) * len(GEOMETRIES) * 3


@pytest.mark.parametrize("model", [CARDS[0], CARDS[26], CARDS[-1]])
def test_sized_devices_match_the_oracle(model):
    sized = [
        size_for_gm_id(model, TECH, gm=100e-6, ids=10e-6),
        size_for_gm_id(model, TECH, gm=300e-6, ids=50e-6, vds=0.3, vsb=0.8),
        size_for_id_vov(model, TECH, ids=20e-6, vov=0.3),
        size_for_current_density(model, TECH, ids=100e-6, density=5.0),
        size_for_id_vov(model, TECH, ids=20e-6, vov=0.3).scaled(0.25, w_min=1.5e-6),
    ]
    for s in sized:
        device, op = s.device, s.op
        assert _bits(op.ids) == _bits(ref.ids(device, op.vgs, op.vds, op.vsb))
        assert op.region is ref.region(device, op.vgs, op.vds, op.vsb)
        assert _bits(s.ss) == _bits(
            ref.small_signal(device, op.vgs, op.vds, op.vsb)
        )


def test_table1_design_solves_stop_by_60_evaluations(monkeypatch):
    """The ten Table-1 rows make 51 Vgs solves of at most 60 drain-current
    evaluations each; running all 80 steps makes 81 each."""
    counts: list[int] = []
    solving = []
    law_ids = DrainLaw.ids
    solve = sizing._solve_vgs_for_id

    def counted_ids(self, vgs):
        if solving:
            counts[-1] += 1
        return law_ids(self, vgs)

    def counted_solve(*args):
        counts.append(0)
        solving.append(True)
        try:
            return solve(*args)
        finally:
            solving.pop()

    monkeypatch.setattr(DrainLaw, "ids", counted_ids)
    monkeypatch.setattr(sizing, "_solve_vgs_for_id", counted_solve)
    for row in TABLE1:
        design_opamp(TECH, row.spec(), row.topology(), name=row.name)
    assert len(counts) == 51
    assert max(counts) <= 60, counts
