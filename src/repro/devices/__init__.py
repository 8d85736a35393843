"""Device level: MOSFET models and analytical sizing (APE level 1).

A :class:`MosDevice` evaluates the SPICE Level-1/2/3 large-signal and
small-signal equations (paper Eqs. 1-4) for a transistor of a given
geometry; the sizing functions invert those equations — given a target
(gm, Id) or (Id, Vov) pair they produce a :class:`SizedMos` "object which
contains the size and performance parameters" (paper §4.1).  Passive
elements (poly resistors and capacitors) round out the level.
"""

from .mosfet import (
    DrainLaw,
    MosDevice,
    OperatingPoint,
    Region,
    SmallSignal,
)
from .sizing import (
    SizedMos,
    size_for_current_density,
    size_for_gm_id,
    size_for_id_vov,
)
from .passives import Capacitor, Resistor

__all__ = [
    "MosDevice",
    "DrainLaw",
    "OperatingPoint",
    "Region",
    "SmallSignal",
    "SizedMos",
    "size_for_gm_id",
    "size_for_id_vov",
    "size_for_current_density",
    "Resistor",
    "Capacitor",
]
