"""Paper Table 3: APE estimate vs SPICE simulation for sized op-amps.

Four op-amps in the paper's configurations (OpAmp1-3: Wilson tail +
CMOS diff pair + output buffer; OpAmp4: simple-mirror tail + CMOS diff
pair, no buffer) are sized by APE and then fully simulated: DC power,
differential gain, UGF, output impedance, gate area, CMRR and slew
rate.  Expected shape: simulated gain and DC power within 10 % of the
estimate, gate area equal to it, and UGF and Zout within tens of
percent (the paper's own deviations run up to ~70 % on UGF).
"""

from __future__ import annotations

import pytest

from paper_tables import fmt
from repro.opamp import OpAmpSpec, OpAmpTopology, design_opamp, verify_opamp
from repro.parallel import parallel_map

# OpAmp1-4 specs in the spirit of the paper's Table 3 rows.
OPAMPS = [
    ("OpAmp1", OpAmpSpec(gain=206, ugf=1.3e6, ibias=1e-6, cl=10e-12),
     OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)),
    ("OpAmp2", OpAmpSpec(gain=374, ugf=8.0e6, ibias=2e-6, cl=10e-12),
     OpAmpTopology(current_source="wilson", output_buffer=True, z_load=1e3)),
    ("OpAmp3", OpAmpSpec(gain=167, ugf=12.4e6, ibias=1.5e-6, cl=10e-12),
     OpAmpTopology(current_source="wilson", output_buffer=True, z_load=2e3)),
    ("OpAmp4", OpAmpSpec(gain=400, ugf=2.6e6, ibias=1e-6, cl=10e-12),
     OpAmpTopology(current_source="mirror", output_buffer=False)),
]


def _table3_row(item):
    """Size and fully simulate one op-amp row (module-level so the
    process pool can pickle it by reference)."""
    tech, name, spec, topo = item
    amp = design_opamp(tech, spec, topo, name=name)
    sim = verify_opamp(
        amp, measure_slew=True, measure_zout=True, measure_cmrr=True
    )
    return name, amp, sim


def build_table3(tech, workers=None):
    items = [(tech, name, spec, topo) for name, spec, topo in OPAMPS]
    return parallel_map(_table3_row, items, workers=workers)


@pytest.mark.benchmark(group="table3")
def test_table3_est_vs_sim(benchmark, tech, show):
    results = benchmark.pedantic(
        lambda: build_table3(tech), rounds=1, iterations=1
    )
    header = (
        f"{'OpAmp':7s} {'P est/sim mW':>15s} {'Adm est/sim':>15s} "
        f"{'UGF est/sim MHz':>17s} {'Zout est/sim k':>16s} "
        f"{'Area est/sim um2':>18s} {'CMRR est dB':>12s} "
        f"{'SR est/sim V/us':>17s}"
    )
    lines = []
    for name, amp, sim in results:
        est = amp.estimate
        lines.append(
            f"{name:7s} "
            f"{fmt(est.dc_power, 1e3, 2):>6s}/{fmt(sim['dc_power'], 1e3, 2):<8s} "
            f"{fmt(est.gain, 1, 0):>6s}/{fmt(sim['gain'], 1, 0):<8s} "
            f"{fmt(est.ugf, 1e-6, 2):>7s}/{fmt(sim['ugf'], 1e-6, 2):<9s} "
            f"{fmt(est.zout, 1e-3, 2):>7s}/{fmt(sim['zout'], 1e-3, 2):<8s} "
            f"{fmt(est.gate_area, 1e12, 0):>8s}/{fmt(sim['gate_area'], 1e12, 0):<9s} "
            f"{fmt(est.cmrr_db, 1, 0):>12s} "
            f"{fmt(est.slew_rate, 1e-6, 2):>7s}/{fmt(sim['slew_rate'], 1e-6, 2):<9s}"
        )
    show("Table 3: estimation vs simulation, operational amplifiers",
         header, lines)
    for name, amp, sim in results:
        est = amp.estimate
        assert sim["gain"] == pytest.approx(est.gain, rel=0.1), name
        assert sim["ugf"] == pytest.approx(est.ugf, rel=0.7), name
        assert sim["dc_power"] == pytest.approx(est.dc_power, rel=0.1), name
        # Zout of the unbuffered two-stage is the softest estimate (the
        # simulated second-stage bias shifts its lambda-dependent gds).
        assert sim["zout"] == pytest.approx(est.zout, rel=0.7), name
        assert sim["gate_area"] == pytest.approx(est.gate_area, rel=1e-12), name


@pytest.mark.benchmark(group="table3")
def test_single_opamp_estimation_speed(benchmark, tech):
    """Micro-benchmark: one APE op-amp estimate (sub-millisecond)."""
    name, spec, topo = OPAMPS[0]
    benchmark(lambda: design_opamp(tech, spec, topo, name=name))
