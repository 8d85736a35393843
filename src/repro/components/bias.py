"""DC bias-voltage generator (paper component ``DCVolt``).

A diode-connected NMOS referenced to VSS with a poly resistor to VDD:
the output sits at ``VSS + Vgs(I)`` where the transistor is sized so
that ``Vgs(I)`` lands on the requested output voltage at the requested
standing current.  The paper's Table 2 reports this component's "gain"
as the produced voltage (2.5 V) — we follow that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices import Resistor as PolyResistor, size_for_id_vov
from ..devices.sizing import MIN_OVERDRIVE
from ..errors import EstimationError
from ..spice import Circuit
from ..technology import Technology
from .base import Component, PerformanceEstimate

__all__ = ["DcVoltageBias"]


@dataclass
class DcVoltageBias(Component):
    """A sized bias-voltage generator.

    Ports for :meth:`place`: ``out``, ``vdd``, ``vss``.
    """

    resistor: PolyResistor = None  # type: ignore[assignment]
    v_out: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        v_out: float,
        current: float,
        name: str = "dcvolt",
    ) -> "DcVoltageBias":
        """Size the generator for output ``v_out`` [V] at ``current`` [A].

        ``v_out`` is an absolute voltage between the rails; it must sit
        at least a threshold plus minimum overdrive above VSS so the
        diode device stays in strong inversion.
        """
        if current <= 0:
            raise EstimationError(f"{name}: bias current must be positive")
        if not tech.vss < v_out < tech.vdd:
            raise EstimationError(
                f"{name}: output {v_out} V outside the rails "
                f"[{tech.vss}, {tech.vdd}] V"
            )
        vgs = v_out - tech.vss
        vov = vgs - tech.nmos.vth0
        if vov < MIN_OVERDRIVE:
            raise EstimationError(
                f"{name}: output {v_out} V needs Vov={vov * 1e3:.0f} mV "
                "over the NMOS threshold; raise the output voltage"
            )
        diode = size_for_id_vov(tech.nmos, tech, ids=current, vov=vov, vds=vgs)
        r_value = (tech.vdd - v_out) / current
        resistor = PolyResistor.design(tech, r_value)
        zout = 1.0 / (diode.gm + 1.0 / r_value)
        estimate = PerformanceEstimate(
            gate_area=diode.gate_area,
            dc_power=tech.supply_span * current,
            gain=v_out,  # Table 2 convention: "gain" = produced voltage
            current=current,
            zout=zout,
            extras={"resistor_area": resistor.area, "vgs": vgs},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"diode": diode},
            estimate=estimate,
            resistor=resistor,
            v_out=v_out,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        """Stamp into ``circuit``; ports: ``out``, ``vdd``, ``vss``."""
        out, vdd, vss = ports["out"], ports["vdd"], ports["vss"]
        diode = self.devices["diode"]
        circuit.r(vdd, out, self.resistor.value, name=f"{prefix}R1")
        circuit.m(
            out, out, vss, vss,
            diode.device.model, diode.w, diode.l,
            name=f"{prefix}M1",
        )
        return {"diode": (f"{prefix}M1",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        ckt = Circuit(f"{self.name}-bench")
        vdd, vss = self._supply_nodes(ckt)
        self.place(ckt, "X1", out="out", vdd=vdd, vss=vss)
        return ckt, {"out": "out", "supply": "VDDSUP"}
