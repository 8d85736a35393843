"""Op-amp specification and topology records.

These mirror the paper's Table 1 columns: a *specification* (gain, UGF,
area, bias current, load) and a *topology* (current-source type,
differential-amplifier type, buffer present, output load impedance,
compensation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SpecificationError

__all__ = ["OpAmpSpec", "OpAmpTopology", "CURRENT_SOURCES", "DIFF_PAIRS"]

#: Tail current sources (paper Table 1, CurrSrc).
CURRENT_SOURCES = ("mirror", "wilson", "cascode")

#: Differential stages: mirror load, diode load, or folded cascode.
DIFF_PAIRS = ("cmos", "nmos", "folded")


@dataclass(frozen=True)
class OpAmpSpec:
    """Performance targets for an op-amp (paper Table 1, left side)."""

    #: Required low-frequency differential gain (absolute ratio).
    gain: float
    #: Required unity-gain frequency [Hz].
    ugf: float
    #: Gate-area budget [m^2] (advisory; reported, not enforced).
    area: float = math.inf
    #: Nominal bias (tail) current [A].
    ibias: float = 1e-6
    #: Load capacitance [F].
    cl: float = 10e-12
    #: Required slew rate [V/s] (0 = unconstrained).
    slew_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise SpecificationError("gain must be positive")
        if self.ugf <= 0:
            raise SpecificationError("UGF must be positive")
        if self.ibias <= 0:
            raise SpecificationError("ibias must be positive")
        if self.cl <= 0:
            raise SpecificationError("load capacitance must be positive")
        if self.slew_rate < 0:
            raise SpecificationError("slew rate cannot be negative")


@dataclass(frozen=True)
class OpAmpTopology:
    """Structural choices (paper Table 1: CurrSrc/Diffgain/Buff/Z)."""

    #: Tail current source, one of :data:`CURRENT_SOURCES`.
    current_source: str = "mirror"
    #: Differential stage, one of :data:`DIFF_PAIRS`: 'cmos' (mirror
    #: load), 'nmos' (diode load) or 'folded' (folded-cascode, high
    #: single-stage gain).
    diff_pair: str = "cmos"
    #: Second (common-source) gain stage: True/False, or None = choose
    #: automatically from the gain requirement.
    gain_stage: bool | None = None
    #: Source-follower output buffer.
    output_buffer: bool = False
    #: Resistive load the buffer must drive [ohm] (inf = capacitive only).
    z_load: float = math.inf
    #: Miller compensation across the second stage.
    compensated: bool = True

    def __post_init__(self) -> None:
        if self.current_source.lower() not in CURRENT_SOURCES:
            raise SpecificationError(
                f"unknown current source {self.current_source!r}"
            )
        if self.diff_pair.lower() not in DIFF_PAIRS:
            raise SpecificationError(f"unknown diff pair {self.diff_pair!r}")
        if self.diff_pair.lower() == "folded" and self.gain_stage:
            raise SpecificationError(
                "the folded-cascode stage is single-stage by construction; "
                "do not combine it with gain_stage=True"
            )
        if self.z_load <= 0:
            raise SpecificationError("z_load must be positive")
