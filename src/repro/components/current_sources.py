"""Current sources and mirrors (paper components ``CurrMirr``/``Wilson``).

Three topologies from the paper's library — the simple two-transistor
mirror, the four-transistor cascode and the three-transistor Wilson —
each as an NMOS *sink* referenced to VSS (the form an op-amp tail
needs) with an optional PMOS *source* variant.  Output impedance is the
figure the topologies trade area for:

* simple:   Zout ~ ro
* Wilson:   Zout ~ gm ro^2 / 2
* cascode:  Zout ~ gm ro^2
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices import SizedMos, size_for_id_vov
from ..errors import EstimationError, TopologyError
from ..spice import Circuit
from ..technology import MosPolarity, Technology
from .base import Component, PerformanceEstimate

__all__ = [
    "CurrentMirror",
    "CascodeCurrentSource",
    "WilsonCurrentSource",
    "current_source_by_name",
]

#: Default overdrive for mirror devices [V] — headroom/accuracy balance.
DEFAULT_MIRROR_VOV = 0.25


def _check_current(name: str, current: float) -> None:
    if current <= 0:
        raise EstimationError(f"{name}: output current must be positive")


def _mirror_device(
    tech: Technology,
    polarity: MosPolarity,
    current: float,
    vov: float,
    vsb: float = 0.0,
) -> SizedMos:
    model = tech.model(polarity)
    return size_for_id_vov(model, tech, ids=current, vov=vov, vsb=vsb)


@dataclass
class CurrentMirror(Component):
    """Simple two-transistor mirror.

    Ports for :meth:`place`: ``ref`` (current input), ``out``, ``rail``
    (VSS for the NMOS sink / VDD for the PMOS source).
    """

    polarity: MosPolarity = MosPolarity.NMOS
    ratio: float = 1.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        current: float,
        *,
        ratio: float = 1.0,
        vov: float = DEFAULT_MIRROR_VOV,
        polarity: MosPolarity = MosPolarity.NMOS,
        name: str = "mirror",
    ) -> "CurrentMirror":
        """Size a mirror delivering ``current`` with input ``current/ratio``."""
        _check_current(name, current)
        if ratio <= 0:
            raise EstimationError(f"{name}: mirror ratio must be positive")
        out_dev = _mirror_device(tech, polarity, current, vov)
        in_dev = out_dev.scaled(1.0 / ratio, w_min=tech.w_min)
        zout = out_dev.ss.ro
        estimate = PerformanceEstimate(
            gate_area=out_dev.gate_area + in_dev.gate_area,
            dc_power=tech.supply_span * current,
            current=current,
            zout=zout,
            extras={"compliance": vov, "ratio": ratio},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"input": in_dev, "output": out_dev},
            estimate=estimate,
            polarity=polarity,
            ratio=ratio,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        ref, out, rail = ports["ref"], ports["out"], ports["rail"]
        din, dout = self.devices["input"], self.devices["output"]
        circuit.m(
            ref, ref, rail, rail, din.device.model, din.w, din.l,
            name=f"{prefix}MIN",
        )
        circuit.m(
            out, ref, rail, rail, dout.device.model, dout.w, dout.l,
            name=f"{prefix}MOUT",
        )
        return {"input": (f"{prefix}MIN",), "output": (f"{prefix}MOUT",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return _mirror_bench(self)


@dataclass
class CascodeCurrentSource(Component):
    """Four-transistor cascode mirror (ports: ``ref``, ``out``, ``rail``)."""

    polarity: MosPolarity = MosPolarity.NMOS

    ratio: float = 1.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        current: float,
        *,
        ratio: float = 1.0,
        vov: float = DEFAULT_MIRROR_VOV,
        polarity: MosPolarity = MosPolarity.NMOS,
        name: str = "cascode",
    ) -> "CascodeCurrentSource":
        _check_current(name, current)
        if ratio <= 0:
            raise EstimationError(f"{name}: mirror ratio must be positive")
        bottom = _mirror_device(tech, polarity, current, vov)
        vsb_top = bottom.op.vgs  # cascode sources ride on the bottom Vgs
        top = _mirror_device(tech, polarity, current, vov, vsb=vsb_top)
        zout = top.ss.gm * top.ss.ro * bottom.ss.ro
        devices = {
            "input_bottom": bottom.scaled(1.0 / ratio, w_min=tech.w_min),
            "input_top": top.scaled(1.0 / ratio, w_min=tech.w_min),
            "output_bottom": bottom,
            "output_top": top,
        }
        estimate = PerformanceEstimate(
            gate_area=sum(d.gate_area for d in devices.values()),
            dc_power=tech.supply_span * current,
            current=current,
            zout=zout,
            extras={"compliance": bottom.op.vgs + vov, "ratio": ratio},
        )
        return cls(
            name=name,
            tech=tech,
            devices=devices,
            estimate=estimate,
            polarity=polarity,
            ratio=ratio,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        ref, out, rail = ports["ref"], ports["out"], ports["rail"]
        nb_in = f"{prefix}_b_in"
        nb_out = f"{prefix}_b_out"
        d = self.devices
        model = d["input_bottom"].device.model
        # Input branch: two stacked diodes (ref -> nb_in -> rail).
        circuit.m(
            ref, ref, nb_in, rail, model,
            d["input_top"].w, d["input_top"].l, name=f"{prefix}MIT",
        )
        circuit.m(
            nb_in, nb_in, rail, rail, model,
            d["input_bottom"].w, d["input_bottom"].l, name=f"{prefix}MIB",
        )
        # Output branch mirrors both gates.
        circuit.m(
            out, ref, nb_out, rail, model,
            d["output_top"].w, d["output_top"].l, name=f"{prefix}MOT",
        )
        circuit.m(
            nb_out, nb_in, rail, rail, model,
            d["output_bottom"].w, d["output_bottom"].l, name=f"{prefix}MOB",
        )
        return {
            "input_top": (f"{prefix}MIT",),
            "input_bottom": (f"{prefix}MIB",),
            "output_top": (f"{prefix}MOT",),
            "output_bottom": (f"{prefix}MOB",),
        }

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return _mirror_bench(self)


@dataclass
class WilsonCurrentSource(Component):
    """Three-transistor Wilson mirror (ports: ``ref``, ``out``, ``rail``)."""

    polarity: MosPolarity = MosPolarity.NMOS
    ratio: float = 1.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        current: float,
        *,
        ratio: float = 1.0,
        vov: float = DEFAULT_MIRROR_VOV,
        polarity: MosPolarity = MosPolarity.NMOS,
        name: str = "wilson",
    ) -> "WilsonCurrentSource":
        _check_current(name, current)
        if ratio <= 0:
            raise EstimationError(f"{name}: mirror ratio must be positive")
        diode = _mirror_device(tech, polarity, current, vov)
        # The bottom device carries the *reference* current and shares
        # the diode's gate: its width sets the mirror ratio.
        bottom = diode.scaled(1.0 / ratio, w_min=tech.w_min)
        vsb_top = diode.op.vgs
        top = _mirror_device(tech, polarity, current, vov, vsb=vsb_top)
        # Wilson output impedance: feedback boosts ro by ~gm*ro/2.
        zout = top.ss.gm * top.ss.ro * bottom.ss.ro / 2.0
        devices = {"diode": diode, "bottom": bottom, "output": top}
        estimate = PerformanceEstimate(
            gate_area=sum(d.gate_area for d in devices.values()),
            dc_power=tech.supply_span * current,
            current=current,
            zout=zout,
            extras={"compliance": diode.op.vgs + vov, "ratio": ratio},
        )
        return cls(
            name=name,
            tech=tech,
            devices=devices,
            estimate=estimate,
            polarity=polarity,
            ratio=ratio,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        ref, out, rail = ports["ref"], ports["out"], ports["rail"]
        mid = f"{prefix}_fb"
        d = self.devices
        model = d["diode"].device.model
        # M_bottom: carries the input current, gate driven by the diode.
        circuit.m(
            ref, mid, rail, rail, model,
            d["bottom"].w, d["bottom"].l, name=f"{prefix}MB",
        )
        # M_diode: diode-connected in the output return path.
        circuit.m(
            mid, mid, rail, rail, model,
            d["diode"].w, d["diode"].l, name=f"{prefix}MD",
        )
        # M_out: cascode output device, gate at the input node.
        circuit.m(
            out, ref, mid, rail, model,
            d["output"].w, d["output"].l, name=f"{prefix}MO",
        )
        return {
            "bottom": (f"{prefix}MB",),
            "diode": (f"{prefix}MD",),
            "output": (f"{prefix}MO",),
        }

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return _mirror_bench(self)


def _mirror_bench(
    comp: CurrentMirror | CascodeCurrentSource | WilsonCurrentSource,
) -> tuple[Circuit, dict[str, str]]:
    """Shared test bench: ideal reference in, 0 V meter at the output."""
    ckt = Circuit(f"{comp.name}-bench")
    vdd, vss = comp._supply_nodes(ckt)
    ratio = getattr(comp, "ratio", 1.0)
    i_ref = comp.estimate.current / ratio
    if comp.polarity is MosPolarity.NMOS:
        ckt.i(vdd, "ref", dc=i_ref, name="IREF")
        ckt.v("out", "0", dc=0.0, name="VMEAS")
        comp.place(ckt, "X1", ref="ref", out="out", rail=vss)
    else:
        ckt.i("ref", vss, dc=i_ref, name="IREF")
        ckt.v("out", "0", dc=0.0, name="VMEAS")
        comp.place(ckt, "X1", ref="ref", out="out", rail=vdd)
    return ckt, {"out": "out", "meter": "VMEAS", "ref": "ref"}


_TOPOLOGIES = {
    "mirror": CurrentMirror,
    "simple": CurrentMirror,
    "cascode": CascodeCurrentSource,
    "wilson": WilsonCurrentSource,
}


def current_source_by_name(topology: str):
    """Map a paper topology name (``Mirror``/``Wilson``/``Cascode``) to a class."""
    try:
        return _TOPOLOGIES[topology.lower()]
    except KeyError:
        raise TopologyError(
            f"unknown current-source topology {topology!r}; "
            f"available: {', '.join(sorted(set(_TOPOLOGIES)))}"
        ) from None
