"""Source follower / output buffer (paper component ``Follower``).

An NMOS source follower with an NMOS current-sink bias.  Voltage gain
is slightly below one (body effect), output impedance ~1/gm — it is the
stage the paper's op-amps add when "the amplifier is heavily loaded".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devices import size_for_gm_id, size_for_id_vov
from ..errors import EstimationError
from ..spice import Circuit
from ..technology import Technology
from .base import Component, PerformanceEstimate
from .current_sources import DEFAULT_MIRROR_VOV

__all__ = ["SourceFollower"]


@dataclass
class SourceFollower(Component):
    """A sized follower.

    Ports for :meth:`place`: ``in``, ``out``, ``bias`` (sink gate),
    ``vdd``, ``vss``.
    """

    v_bias_sink: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        current: float,
        *,
        z_out: float | None = None,
        r_load: float = math.inf,
        v_out_bias: float | None = None,
        name: str = "follower",
    ) -> "SourceFollower":
        """Size a follower standing ``current`` amps.

        ``z_out`` (ohms) sets the driver transconductance directly
        (gm ~= 1/z_out); when omitted, a default 0.25 V overdrive is
        used.  ``r_load`` derates the gain estimate for resistive loads.
        """
        if current <= 0:
            raise EstimationError(f"{name}: bias current must be positive")
        v_out = v_out_bias if v_out_bias is not None else 0.0
        vsb = v_out - tech.vss
        if z_out is not None:
            if z_out <= 0:
                raise EstimationError(f"{name}: z_out must be positive")
            driver = size_for_gm_id(
                tech.nmos, tech, gm=1.0 / z_out, ids=current,
                vds=tech.vdd - v_out, vsb=vsb,
            )
        else:
            driver = size_for_id_vov(
                tech.nmos, tech, ids=current, vov=DEFAULT_MIRROR_VOV,
                vds=tech.vdd - v_out, vsb=vsb,
            )
        sink = size_for_id_vov(
            tech.nmos, tech, ids=current, vov=DEFAULT_MIRROR_VOV,
            vds=v_out - tech.vss,
        )
        g_load = 0.0 if math.isinf(r_load) else 1.0 / r_load
        g_total = (
            driver.gm + driver.ss.gmb + driver.gds + sink.gds + g_load
        )
        gain = driver.gm / g_total
        zout = 1.0 / (driver.gm + driver.ss.gmb + sink.gds + g_load)
        estimate = PerformanceEstimate(
            gate_area=driver.gate_area + sink.gate_area,
            dc_power=tech.supply_span * current,
            gain=gain,
            current=current,
            zout=zout,
            extras={"v_out_bias": v_out, "r_load": r_load},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"driver": driver, "sink": sink},
            estimate=estimate,
            v_bias_sink=tech.vss + sink.op.vgs,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, out, bias = ports["in"], ports["out"], ports["bias"]
        vdd, vss = ports["vdd"], ports["vss"]
        drv, sink = self.devices["driver"], self.devices["sink"]
        circuit.m(
            vdd, inp, out, vss, drv.device.model, drv.w, drv.l,
            name=f"{prefix}MF",
        )
        circuit.m(
            out, bias, vss, vss, sink.device.model, sink.w, sink.l,
            name=f"{prefix}MS",
        )
        return {"driver": (f"{prefix}MF",), "sink": (f"{prefix}MS",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        ckt = Circuit(f"{self.name}-bench")
        vdd, vss = self._supply_nodes(ckt)
        drv = self.devices["driver"]
        v_out = self.estimate.extras["v_out_bias"]
        v_in = v_out + drv.op.vgs
        ckt.v("in", "0", dc=v_in, ac=1.0, name="VINSRC")
        ckt.v("bias", "0", dc=self.v_bias_sink, name="VBIAS")
        self.place(
            ckt, "X1",
            **{"in": "in", "out": "out", "bias": "bias", "vdd": vdd, "vss": vss},
        )
        r_load = self.estimate.extras["r_load"]
        if math.isfinite(r_load):
            ckt.r("out", "0", r_load, name="RLOAD")
        return ckt, {"out": "out", "in": "in"}
