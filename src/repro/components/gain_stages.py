"""Single-ended gain stages (paper components ``GainNMOS``/``GainCMOS``/
``GainCMOSH``).

* :class:`GainNmos` — NMOS common-source driver with a diode-connected
  NMOS load; gain set by the overdrive (aspect) ratio, modest but
  well-controlled.
* :class:`GainCmos` — NMOS driver with a PMOS current-source load; gain
  set by channel-length modulation, the paper's Eq.-4-driven high-gain
  stage and the second stage of the two-stage op-amp.
* :class:`GainCmosH` — self-biased CMOS push-pull inverter amplifier
  (the paper's low-power "H" variant); both devices amplify, the
  operating point is pinned by the rails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devices import size_for_id_vov
from ..devices.sizing import MIN_OVERDRIVE
from ..errors import EstimationError
from ..spice import Circuit
from ..technology import Technology
from .base import Component, PerformanceEstimate

__all__ = ["GainNmos", "GainCmos", "GainCmosH"]

#: Default driver overdrive [V] for ratio-defined stages.
DEFAULT_DRIVER_VOV = 0.2
#: Default load-device overdrive [V] for current-source loads.
DEFAULT_LOAD_VOV = 0.3
#: Default load capacitance [F] when the spec omits one.
DEFAULT_CL = 1e-12


def _chi(tech: Technology, vsb: float) -> float:
    """Body-effect factor gmb/gm of the NMOS at source-bulk bias vsb."""
    n = tech.nmos
    return n.gamma / (2.0 * math.sqrt(n.phi + max(vsb, 0.0)))


@dataclass
class GainNmos(Component):
    """Diode-loaded NMOS common-source stage.

    Ports for :meth:`place`: ``in``, ``out``, ``vdd``, ``vss``.
    Gain (negative) ~= -gm_driver / (gm_load * (1 + chi)).
    """

    v_in_bias: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        gain: float,
        current: float,
        *,
        cl: float = DEFAULT_CL,
        name: str = "gain_nmos",
    ) -> "GainNmos":
        """Size for voltage gain ``gain`` (|gain| used) at bias ``current``."""
        a_target = abs(gain)
        if a_target < 1.0:
            raise EstimationError(f"{name}: |gain| must be >= 1")
        if current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: current and cl must be positive")
        # Load rides on the output: vsb_load = vout - vss.  Solve the
        # headroom split iteratively: gain fixes vov_l / vov_d.
        vov_d = DEFAULT_DRIVER_VOV
        for _ in range(12):
            v_out_guess = tech.vdd - tech.nmos.vth0 - a_target * vov_d * 1.1
            vsb_l = max(v_out_guess - tech.vss, 0.0)
            chi = _chi(tech, vsb_l)
            vov_l = a_target * vov_d * (1.0 + chi)
            vgs_l = tech.nmos.threshold(vsb_l) + vov_l
            v_out = tech.vdd - vgs_l
            headroom = v_out - (tech.vss + vov_d + 0.1)
            if headroom >= 0:
                break
            vov_d *= 0.75
            if vov_d < MIN_OVERDRIVE:
                raise EstimationError(
                    f"{name}: gain {a_target:g} infeasible for the diode-"
                    "loaded stage in this technology (headroom exhausted)"
                )
        else:
            raise EstimationError(
                f"{name}: gain {a_target:g} headroom iteration failed"
            )
        driver = size_for_id_vov(
            tech.nmos, tech, ids=current, vov=vov_d,
            vds=v_out - tech.vss,
        )
        load = size_for_id_vov(
            tech.nmos, tech, ids=current, vov=vov_l,
            vds=vgs_l, vsb=vsb_l,
        )
        a_est = driver.gm / (load.gm * (1.0 + chi))
        ugf = driver.gm / (2.0 * math.pi * cl)
        bandwidth = load.gm * (1.0 + chi) / (2.0 * math.pi * cl)
        estimate = PerformanceEstimate(
            gate_area=driver.gate_area + load.gate_area,
            dc_power=tech.supply_span * current,
            gain=-a_est,
            ugf=ugf,
            bandwidth=bandwidth,
            current=current,
            zout=1.0 / (load.gm * (1.0 + chi)),
            slew_rate=current / cl,
            extras={"v_out_bias": v_out, "cl": cl},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"driver": driver, "load": load},
            estimate=estimate,
            v_in_bias=tech.vss + driver.op.vgs,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, out = ports["in"], ports["out"]
        vdd, vss = ports["vdd"], ports["vss"]
        drv, load = self.devices["driver"], self.devices["load"]
        circuit.m(
            out, inp, vss, vss, drv.device.model, drv.w, drv.l,
            name=f"{prefix}MD",
        )
        # Enhancement diode load: drain and gate at VDD, source at out.
        circuit.m(
            vdd, vdd, out, vss, load.device.model, load.w, load.l,
            name=f"{prefix}ML",
        )
        return {"driver": (f"{prefix}MD",), "load": (f"{prefix}ML",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        ckt = Circuit(f"{self.name}-bench")
        vdd, vss = self._supply_nodes(ckt)
        ckt.v("in", "0", dc=self.v_in_bias, ac=1.0, name="VINSRC")
        self.place(ckt, "X1", **{"in": "in", "out": "out", "vdd": vdd, "vss": vss})
        ckt.c("out", "0", self.estimate.extras["cl"], name="CLOAD")
        return ckt, {"out": "out", "in": "in"}


@dataclass
class GainCmos(Component):
    """Current-source-loaded common-source stage (active load).

    Two variants via ``driver_polarity``:

    * NMOS driver + PMOS current-source load (the stand-alone gain
      stage of the paper's Table 2),
    * PMOS driver + NMOS current-sink load (the second stage of the
      classic two-stage op-amp — its input bias level matches a
      mirror-loaded first stage's output directly).

    Ports for :meth:`place`: ``in``, ``out``, ``bias_load`` (load
    gate), ``vdd``, ``vss``.  Gain ~= -2 / (vov_d (lambda_n+lambda_p)).
    """

    v_in_bias: float = 0.0
    v_bias_load: float = 0.0
    driver_polarity: "MosPolarity" = None  # type: ignore[assignment]

    @classmethod
    def design(
        cls,
        tech: Technology,
        gain: float,
        current: float,
        *,
        cl: float = DEFAULT_CL,
        load_vov: float = DEFAULT_LOAD_VOV,
        driver_polarity: "MosPolarity" = None,  # type: ignore[assignment]
        name: str = "gain_cmos",
    ) -> "GainCmos":
        from ..technology import MosPolarity

        if driver_polarity is None:
            driver_polarity = MosPolarity.NMOS
        a_target = abs(gain)
        if current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: current and cl must be positive")
        lam_sum = tech.nmos.lambda_ + tech.pmos.lambda_
        if lam_sum <= 0:
            raise EstimationError(f"{name}: zero lambda — gain unbounded")
        vov_d = 2.0 / (a_target * lam_sum)
        vov_max = tech.supply_span / 2.0
        if vov_d > vov_max:
            raise EstimationError(
                f"{name}: gain {a_target:g} too low for an active-load "
                f"stage (needs Vov={vov_d:.2f} V > {vov_max:.2f} V); use "
                "GainNmos instead"
            )
        if vov_d < MIN_OVERDRIVE:
            raise EstimationError(
                f"{name}: gain {a_target:g} exceeds the single-stage limit "
                f"~{2.0 / (MIN_OVERDRIVE * lam_sum):.0f}; cascade stages"
            )
        v_out = 0.5 * (tech.vdd + tech.vss)  # bias output mid-rail
        drv_model = tech.model(driver_polarity)
        load_pol = (
            MosPolarity.PMOS
            if driver_polarity is MosPolarity.NMOS
            else MosPolarity.NMOS
        )
        load_model = tech.model(load_pol)
        # The driver sits against its own rail; the load against the other.
        drv_vds = (
            v_out - tech.vss
            if driver_polarity is MosPolarity.NMOS
            else tech.vdd - v_out
        )
        load_vds = tech.supply_span - drv_vds
        driver = size_for_id_vov(
            drv_model, tech, ids=current, vov=vov_d, vds=drv_vds
        )
        load = size_for_id_vov(
            load_model, tech, ids=current, vov=load_vov, vds=load_vds
        )
        gout = driver.gds + load.gds
        a_est = driver.gm / gout
        estimate = PerformanceEstimate(
            gate_area=driver.gate_area + load.gate_area,
            dc_power=tech.supply_span * current,
            gain=-a_est,
            ugf=driver.gm / (2.0 * math.pi * cl),
            bandwidth=gout / (2.0 * math.pi * cl),
            current=current,
            zout=1.0 / gout,
            slew_rate=current / cl,
            extras={"v_out_bias": v_out, "cl": cl},
        )
        if driver_polarity is MosPolarity.NMOS:
            v_in_bias = tech.vss + driver.op.vgs
            v_bias_load = tech.vdd - load.op.vgs
        else:
            v_in_bias = tech.vdd - driver.op.vgs
            v_bias_load = tech.vss + load.op.vgs
        return cls(
            name=name,
            tech=tech,
            devices={"driver": driver, "load": load},
            estimate=estimate,
            v_in_bias=v_in_bias,
            v_bias_load=v_bias_load,
            driver_polarity=driver_polarity,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        from ..technology import MosPolarity

        inp, out, bias = ports["in"], ports["out"], ports["bias_load"]
        vdd, vss = ports["vdd"], ports["vss"]
        drv, load = self.devices["driver"], self.devices["load"]
        if self.driver_polarity is MosPolarity.NMOS:
            drv_rail, load_rail = vss, vdd
        else:
            drv_rail, load_rail = vdd, vss
        circuit.m(
            out, inp, drv_rail, drv_rail, drv.device.model, drv.w, drv.l,
            name=f"{prefix}MD",
        )
        circuit.m(
            out, bias, load_rail, load_rail, load.device.model, load.w, load.l,
            name=f"{prefix}ML",
        )
        return {"driver": (f"{prefix}MD",), "load": (f"{prefix}ML",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        ckt = Circuit(f"{self.name}-bench")
        vdd, vss = self._supply_nodes(ckt)
        ckt.v("in", "0", dc=self.v_in_bias, ac=1.0, name="VINSRC")
        ckt.v("biasl", "0", dc=self.v_bias_load, name="VBIASL")
        self.place(
            ckt, "X1",
            **{"in": "in", "out": "out", "bias_load": "biasl",
               "vdd": vdd, "vss": vss},
        )
        ckt.c("out", "0", self.estimate.extras["cl"], name="CLOAD")
        return ckt, {"out": "out", "in": "in"}


@dataclass
class GainCmosH(Component):
    """Self-biased CMOS push-pull inverter amplifier.

    Ports for :meth:`place`: ``in``, ``out``, ``vdd``, ``vss``.  Both
    devices amplify (gm_n + gm_p); the rails pin the overdrives, so the
    gain is a *result* of the technology, not a free spec — matching the
    paper's fixed ~-5 gain, low-power "GainCMOSH" row.
    """

    v_in_bias: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        current: float,
        *,
        cl: float = DEFAULT_CL,
        name: str = "gain_cmosh",
    ) -> "GainCmosH":
        if current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: current and cl must be positive")
        vov_total = (
            tech.supply_span - tech.nmos.vth0 - tech.pmos.vth0
        )
        if vov_total < 2 * MIN_OVERDRIVE:
            raise EstimationError(
                f"{name}: rails too low for a self-biased inverter stage"
            )
        # Split the available overdrive so both devices carry `current`
        # at the same input voltage: beta_n vov_n^2 = beta_p vov_p^2 with
        # vov_n + vov_p = vov_total  ->  vov_n/vov_p = sqrt(kp_p/kp_n).
        k = math.sqrt(tech.pmos.kp_effective / tech.nmos.kp_effective)
        vov_n = vov_total * k / (1.0 + k)
        vov_p = vov_total - vov_n
        v_in = tech.vss + tech.nmos.vth0 + vov_n
        nmos = size_for_id_vov(
            tech.nmos, tech, ids=current, vov=vov_n, vds=0.0 - tech.vss
        )
        pmos = size_for_id_vov(
            tech.pmos, tech, ids=current, vov=vov_p, vds=tech.vdd - 0.0
        )
        gm_tot = nmos.gm + pmos.gm
        gout = nmos.gds + pmos.gds
        estimate = PerformanceEstimate(
            gate_area=nmos.gate_area + pmos.gate_area,
            dc_power=tech.supply_span * current,
            gain=-gm_tot / gout,
            ugf=gm_tot / (2.0 * math.pi * cl),
            bandwidth=gout / (2.0 * math.pi * cl),
            current=current,
            zout=1.0 / gout,
            slew_rate=2.0 * current / cl,  # push-pull drives both ways
            extras={"cl": cl, "v_in_bias": v_in},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"nmos": nmos, "pmos": pmos},
            estimate=estimate,
            v_in_bias=v_in,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, out = ports["in"], ports["out"]
        vdd, vss = ports["vdd"], ports["vss"]
        n, p = self.devices["nmos"], self.devices["pmos"]
        circuit.m(
            out, inp, vss, vss, n.device.model, n.w, n.l, name=f"{prefix}MN"
        )
        circuit.m(
            out, inp, vdd, vdd, p.device.model, p.w, p.l, name=f"{prefix}MP"
        )
        return {"nmos": (f"{prefix}MN",), "pmos": (f"{prefix}MP",)}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        ckt = Circuit(f"{self.name}-bench")
        vdd, vss = self._supply_nodes(ckt)
        ckt.v("in", "0", dc=self.v_in_bias, ac=1.0, name="VINSRC")
        self.place(ckt, "X1", **{"in": "in", "out": "out", "vdd": vdd, "vss": vss})
        ckt.c("out", "0", self.estimate.extras["cl"], name="CLOAD")
        return ckt, {"out": "out", "in": "in"}
