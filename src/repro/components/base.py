"""Shared component machinery: performance records and the base class.

The paper's central data structure is the *sized component object*:
"A new object is created with the estimates and sizes attached as
attributes" (§4.2).  :class:`Component` is that object — it owns the
sized transistors, a :class:`PerformanceEstimate`, and knows how to
stamp itself into a simulation netlist for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..devices import SizedMos
from ..errors import EstimationError
from ..spice import Circuit
from ..technology import Technology

__all__ = ["PerformanceEstimate", "Component"]


@dataclass
class PerformanceEstimate:
    """The performance parameters the paper's tables report.

    All values are SI; ``math.nan`` marks a parameter that does not
    apply to a component (e.g. UGF of a current mirror).  ``extras``
    carries component-specific figures (compliance voltage, offset, ...).
    """

    #: Total drawn gate area [m^2].
    gate_area: float = math.nan
    #: Static power dissipation [W].
    dc_power: float = math.nan
    #: Low-frequency voltage gain (signed, absolute ratio not dB).
    gain: float = math.nan
    #: Unity-gain frequency [Hz].
    ugf: float = math.nan
    #: -3 dB bandwidth [Hz].
    bandwidth: float = math.nan
    #: Bias / output current [A].
    current: float = math.nan
    #: Output impedance [ohm].
    zout: float = math.nan
    #: Common-mode rejection ratio (absolute ratio).
    cmrr: float = math.nan
    #: Slew rate [V/s].
    slew_rate: float = math.nan
    #: Common-mode gain (signed).
    acm: float = math.nan
    #: Anything component-specific.
    extras: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Defined (non-NaN) scalar figures, merged with extras."""
        out: dict[str, float] = {}
        for f in fields(self):
            if f.name == "extras":
                continue
            value = getattr(self, f.name)
            if not math.isnan(value):
                out[f.name] = value
        out.update(self.extras)
        return out

    @property
    def gain_db(self) -> float:
        if math.isnan(self.gain) or self.gain == 0:
            return math.nan
        return 20.0 * math.log10(abs(self.gain))

    @property
    def cmrr_db(self) -> float:
        if math.isnan(self.cmrr) or self.cmrr <= 0:
            return math.nan
        return 20.0 * math.log10(self.cmrr)

    def __str__(self) -> str:
        parts = [f"{k}={v:.4g}" for k, v in self.as_dict().items()]
        return "PerformanceEstimate(" + ", ".join(parts) + ")"


@dataclass
class Component:
    """A sized analog component with attached performance estimates.

    Subclasses are created through their ``design()`` classmethods; the
    base class provides the common attributes and netlist utilities.
    ``devices`` maps a role name (e.g. ``'input_pair'``, ``'load'``) to
    the sized transistor filling it.
    """

    name: str
    tech: Technology
    devices: dict[str, SizedMos]
    estimate: PerformanceEstimate

    @property
    def gate_area(self) -> float:
        """Total drawn gate area of all devices [m^2]."""
        return sum(d.gate_area for d in self.devices.values())

    def device(self, role: str) -> SizedMos:
        try:
            return self.devices[role]
        except KeyError:
            raise EstimationError(
                f"{self.name}: no device in role {role!r}; "
                f"available: {', '.join(sorted(self.devices))}"
            ) from None

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        """Stamp this component's devices into ``circuit``.

        ``ports`` maps the component's port names to circuit node names;
        each subclass documents its ports.  Element names are prefixed
        with ``prefix`` so multiple instances coexist.  Returns, per
        device role, the MOSFETs that role lands in: they carry its
        drawn W and L verbatim (a matched pair lands in two).
        """
        raise NotImplementedError

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        """A self-contained test bench for this component.

        Returns the circuit and a dict of interesting node names
        (``'out'`` at minimum).  Subclasses override; used by the
        Table 2 est-vs-sim benchmarks.
        """
        raise NotImplementedError

    def _supply_nodes(self, circuit: Circuit) -> tuple[str, str]:
        """Ensure vdd/vss rails exist in a bench circuit; return names."""
        if "VDDSUP" not in circuit:
            circuit.v("vdd", "0", dc=self.tech.vdd, name="VDDSUP")
        if "VSSSUP" not in circuit:
            circuit.v("vss", "0", dc=self.tech.vss, name="VSSSUP")
        return "vdd", "vss"
