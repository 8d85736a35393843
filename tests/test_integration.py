"""Cross-layer integration tests.

These walk complete flows: estimate -> netlist -> simulate across a
topology matrix, module benches round-tripped through SPICE decks, and
the estimator facade driving the synthesis engine, and the README's
synthesis snippet as printed.
"""

import math
import re
from pathlib import Path

import pytest

from repro import AnalogPerformanceEstimator
from repro.opamp import OpAmpSpec, OpAmpTopology, design_opamp, verify_opamp
from repro.spice import dc_operating_point, read_deck, write_deck
from repro.technology import generic_035um, generic_05um, generic_12um

TECH = generic_05um()


class TestTopologyMatrix:
    """Every tail source x buffer combination estimates and verifies."""

    @pytest.mark.parametrize("source", ["mirror", "wilson", "cascode"])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_est_vs_sim_grid(self, source, buffered):
        spec = OpAmpSpec(gain=150.0, ugf=2e6, ibias=2e-6, cl=10e-12)
        topo = OpAmpTopology(
            current_source=source,
            output_buffer=buffered,
            z_load=2e3 if buffered else math.inf,
        )
        amp = design_opamp(TECH, spec, topo, name=f"{source}-{buffered}")
        sim = verify_opamp(amp, measure_slew=False, measure_zout=False)
        assert sim["gain"] == pytest.approx(amp.estimate.gain, rel=0.2)
        assert sim["gain"] >= spec.gain * 0.85
        assert sim["ugf"] >= spec.ugf * 0.6
        assert sim["dc_power"] == pytest.approx(
            amp.estimate.dc_power, rel=0.25
        )


class TestAcrossTechnologies:
    @pytest.mark.parametrize(
        "tech_factory", [generic_05um, generic_035um, generic_12um]
    )
    def test_same_spec_everywhere(self, tech_factory):
        tech = tech_factory()
        spec = OpAmpSpec(gain=100.0, ugf=2e6, ibias=2e-6, cl=5e-12)
        amp = design_opamp(tech, spec, name=tech.name)
        sim = verify_opamp(amp, measure_slew=False, measure_zout=False)
        assert sim["gain"] >= 100.0 * 0.8, tech.name
        assert sim["ugf"] >= 2e6 * 0.6, tech.name


class TestModuleDeckRoundTrips:
    """Module verification benches survive SPICE serialization."""

    def _roundtrip(self, ckt, probe_nodes):
        back = read_deck(write_deck(ckt))
        op_a = dc_operating_point(ckt)
        op_b = dc_operating_point(back)
        for node in probe_nodes:
            assert op_b.v(node) == pytest.approx(op_a.v(node), abs=1e-3)

    def test_inverting_amplifier_bench(self):
        ape = AnalogPerformanceEstimator(TECH)
        mod = ape.estimate_module(
            "inverting_amplifier", gain=10.0, bandwidth=50e3
        )
        ckt, nodes = mod.verification_circuit()
        self._roundtrip(ckt, [nodes["out"]])

    def test_lowpass_bench(self):
        ape = AnalogPerformanceEstimator(TECH)
        mod = ape.estimate_module("lowpass_filter", order=2, f_corner=1e3)
        ckt, nodes = mod.verification_circuit()
        self._roundtrip(ckt, [nodes["out"]])

    def test_dac_bench(self):
        ape = AnalogPerformanceEstimator(TECH)
        mod = ape.estimate_module("r2r_dac", bits=3, settle_time=10e-6)
        ckt, nodes = mod.verification_circuit(code=5)
        self._roundtrip(ckt, [nodes["out"], nodes["ladder"]])


class TestFacadeToSynthesis:
    def test_initial_point_feeds_engine(self):
        from repro.synthesis import OpAmpSizingProblem, ape_ranges

        ape = AnalogPerformanceEstimator(TECH)
        amp = ape.estimate_opamp(gain=120, ugf=2e6, ibias=2e-6, cl=10e-12)
        problem = OpAmpSizingProblem(amp, ape_ranges(amp))
        point = {
            v.name: min(max(ape.initial_point(amp).get(v.name, v.lo), v.lo), v.hi)
            for v in problem.variables
        }
        metrics = problem.evaluate(point)
        assert metrics is not None
        assert metrics["gain"] >= 120 * 0.8

    def test_noise_of_estimated_opamp(self):
        from repro.opamp.benches import balanced_open_loop
        from repro.spice import noise_analysis

        ape = AnalogPerformanceEstimator(TECH)
        amp = ape.estimate_opamp(gain=120, ugf=2e6, ibias=2e-6, cl=10e-12)
        _, bench, op = balanced_open_loop(amp)
        result = noise_analysis(bench, "out", [1e4], input_source="VINP", op=op)
        assert 0 < result.input_psd[0] < 1e-10  # < 10 uV/sqrt(Hz)

    def test_tf_of_estimated_opamp_stable(self):
        from repro.opamp.benches import balanced_open_loop
        from repro.spice import extract_transfer_function

        ape = AnalogPerformanceEstimator(TECH)
        amp = ape.estimate_opamp(gain=120, ugf=2e6, ibias=2e-6, cl=10e-12)
        _, bench, op = balanced_open_loop(amp)
        tf = extract_transfer_function(bench, "out", op=op)
        assert tf.is_stable()
        assert abs(tf.dc_gain) == pytest.approx(amp.estimate.gain, rel=0.25)


class TestReadmeQuickstart:
    def test_synthesis_snippet_prints_the_contrast(self, capsys):
        """The README's headline snippet, run as written: at seed 3 the
        standalone leg (Table 1) misses the spec and the APE leg
        (Table 4) meets it."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
        snippet = next(block for block in blocks if "synthesize_opamp" in block)
        namespace: dict = {}
        exec(snippet, namespace)
        lost, found = namespace["lost"], namespace["found"]
        assert (lost.meets_spec, found.meets_spec) == (False, True)
        assert capsys.readouterr().out == "False True\n"
