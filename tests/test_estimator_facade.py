"""Tests for the top-level AnalogPerformanceEstimator facade."""

import pytest

from repro import (
    AnalogPerformanceEstimator,
    OpAmpSpec,
    OpAmpTopology,
    design_opamp,
)
from repro.components import CurrentMirror, DiffCmos
from repro.errors import EstimationError, TechnologyError, TopologyError
from repro.modules import InvertingAmplifier, SallenKeyLowPass
from repro.technology import MosPolarity, generic_05um


@pytest.fixture(scope="module")
def ape():
    return AnalogPerformanceEstimator("generic-0.5um")


class TestConstruction:
    def test_by_name(self):
        ape = AnalogPerformanceEstimator("generic-0.35um")
        assert ape.tech.name == "generic-0.35um"

    def test_by_object(self):
        tech = generic_05um()
        assert AnalogPerformanceEstimator(tech).tech is tech

    def test_unknown_name_rejected(self):
        with pytest.raises(TechnologyError):
            AnalogPerformanceEstimator("generic-3nm")


class TestLevel1(object):
    def test_gm_id_sizing(self, ape):
        sized = ape.estimate_transistor(gm=100e-6, ids=10e-6)
        assert sized.gm == pytest.approx(100e-6, rel=0.1)

    def test_id_vov_sizing(self, ape):
        sized = ape.estimate_transistor(ids=10e-6, vov=0.2)
        assert sized.ids == pytest.approx(10e-6, rel=0.05)

    def test_pmos_polarity(self, ape):
        sized = ape.estimate_transistor(
            ids=10e-6, vov=0.2, polarity=MosPolarity.PMOS
        )
        assert sized.device.model.polarity is MosPolarity.PMOS

    def test_missing_second_spec_rejected(self, ape):
        with pytest.raises(EstimationError):
            ape.estimate_transistor(ids=10e-6)


class TestLevel2(object):
    def test_mirror(self, ape):
        comp = ape.estimate_component("currmirr", current=100e-6)
        assert isinstance(comp, CurrentMirror)
        assert comp.estimate.current == 100e-6

    def test_diffcmos(self, ape):
        comp = ape.estimate_component("diffcmos", adm=300.0, tail_current=2e-6)
        assert isinstance(comp, DiffCmos)

    def test_case_insensitive(self, ape):
        assert isinstance(
            ape.estimate_component("WILSON", current=10e-6).estimate.zout,
            float,
        )

    def test_unknown_kind_rejected(self, ape):
        with pytest.raises(TopologyError, match="available"):
            ape.estimate_component("gyrator", current=1e-6)


class TestLevel3(object):
    def test_opamp_meets_spec(self, ape):
        amp = ape.estimate_opamp(gain=200, ugf=1.3e6, ibias=1e-6, cl=10e-12)
        assert amp.estimate.gain >= 200 * 0.9
        assert amp.estimate.ugf >= 1.3e6 * 0.9

    def test_topology_knobs(self, ape):
        amp = ape.estimate_opamp(
            gain=100, ugf=2e6, current_source="wilson",
            output_buffer=True, z_load=1e3,
        )
        assert amp.has_buffer
        assert "wilson" in type(amp.stages["tail_source"]).__name__.lower()

    def test_an_omitted_field_takes_its_default(self, ape):
        amp = ape.estimate_opamp(gain=100, ugf=2e6)
        reference = design_opamp(
            ape.tech, OpAmpSpec(100, 2e6), OpAmpTopology()
        )
        assert (amp.spec, amp.topology) == (reference.spec, reference.topology)
        assert amp.estimate == reference.estimate
        assert amp.initial_point() == reference.initial_point()

    @pytest.mark.parametrize("keyword", ["compensated", "gian"])
    def test_an_unknown_keyword_is_refused(self, ape, keyword):
        with pytest.raises(TypeError, match=keyword):
            ape.estimate_opamp(gain=100, ugf=2e6, **{keyword: True})

    def test_initial_point_export(self, ape):
        amp = ape.estimate_opamp(gain=100, ugf=2e6)
        point = ape.initial_point(amp)
        assert point == amp.initial_point()


class TestLevel4(object):
    def test_inverting_amplifier(self, ape):
        mod = ape.estimate_module(
            "inverting_amplifier", gain=10.0, bandwidth=100e3
        )
        assert isinstance(mod, InvertingAmplifier)

    def test_lowpass(self, ape):
        mod = ape.estimate_module("lowpass_filter", order=4, f_corner=1e3)
        assert isinstance(mod, SallenKeyLowPass)
        assert mod.estimate.extras["f_3db"] == 1e3

    def test_unknown_module_rejected(self, ape):
        with pytest.raises(TopologyError, match="available"):
            ape.estimate_module("time_machine", delay=1.0)
