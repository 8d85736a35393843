"""Circuit-simulation substrate (the paper's "SPICE" and "AWE").

The paper verifies every APE estimate against SPICE and relies on
Asymptotic Waveform Evaluation inside ASTRX/OBLX; this package provides
both from scratch:

* :mod:`repro.spice.netlist` — circuit data model (R, C, L, V, I, E, G,
  M elements, waveforms),
* :mod:`repro.spice.dc` — Newton-Raphson operating point with damping,
  gmin stepping and source stepping,
* :mod:`repro.spice.ac` — small-signal frequency sweeps,
* :mod:`repro.spice.transient` — trapezoidal time-domain integration,
* :mod:`repro.spice.awe` — moment matching / Pade dominant-pole
  extraction (Pillage & Rohrer),
* :mod:`repro.spice.analysis` — measurement helpers (gain, UGF,
  bandwidth, phase margin, slew rate, output impedance, CMRR),
* :mod:`repro.spice.engine` — stamp-compiled MNA assembly (the index
  bookkeeping lives in :mod:`repro.spice.mna`).
"""

from .linalg import (
    SPARSE_AUTO_THRESHOLD,
    set_solver_mode,
    solver_mode,
    solver_override,
    use_sparse,
)
from .mna import System, system_for_op
from .netlist import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    Mosfet,
    PulseWave,
    PwlWave,
    Resistor,
    SineWave,
    Vccs,
    Vcvs,
    VoltageSource,
)
from .dc import OperatingPointResult, dc_operating_point, dc_sweep
from .ac import ACResult, ac_analysis, transfer_function
from .transient import TransientResult, transient_analysis
from .awe import AweApproximant, awe_poles, awe_transfer
from .io import read_deck, read_deck_file, write_deck, write_deck_file
from .tf import RationalTransfer, extract_transfer_function
from .noise import NoiseResult, noise_analysis
from .analysis import (
    balance_differential,
    bandwidth_3db,
    dc_gain,
    find_crossing,
    gain_at,
    measure_cmrr,
    measure_output_impedance,
    measure_slew_rate,
    phase_margin,
    unity_gain_frequency,
)

__all__ = [
    "System",
    "system_for_op",
    "SPARSE_AUTO_THRESHOLD",
    "solver_mode",
    "set_solver_mode",
    "solver_override",
    "use_sparse",
    "Circuit",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Mosfet",
    "PulseWave",
    "SineWave",
    "PwlWave",
    "OperatingPointResult",
    "dc_operating_point",
    "dc_sweep",
    "ACResult",
    "ac_analysis",
    "transfer_function",
    "TransientResult",
    "transient_analysis",
    "AweApproximant",
    "awe_poles",
    "awe_transfer",
    "read_deck",
    "read_deck_file",
    "write_deck",
    "write_deck_file",
    "NoiseResult",
    "noise_analysis",
    "RationalTransfer",
    "extract_transfer_function",
    "dc_gain",
    "gain_at",
    "unity_gain_frequency",
    "bandwidth_3db",
    "phase_margin",
    "find_crossing",
    "measure_slew_rate",
    "measure_output_impedance",
    "measure_cmrr",
    "balance_differential",
]
