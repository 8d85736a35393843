"""Differential amplifiers (paper components ``DiffNMOS``/``DiffCMOS``).

:class:`DiffCmos` is the paper's worked example (§4.2): an NMOS input
pair with a PMOS current-mirror load, single-ended output, modeled by
Eqs. 5-7::

    Adm  ~=  gmi / (gdl + gdi)                       (5)
    Acm  ~= -g0 gdi / (2 gml (gdl + gdi))            (6)
    CMRR ~=  2 gmi gml / (g0 gdi)                    (7)

:class:`DiffNmos` is the diode-loaded variant with a differential
output and ratio-defined gain.

Both components leave the tail current source as a port (``tail``) so
the op-amp level can wire in any of the mirror topologies; the design
equations take the expected tail output conductance ``g0`` (default:
a simple-mirror tail, g0 = lambda_n * Itail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devices import size_for_id_vov
from ..devices.sizing import MIN_OVERDRIVE
from ..errors import EstimationError, TopologyError
from ..spice import Circuit
from ..technology import Technology
from .base import Component, PerformanceEstimate
from .gain_stages import DEFAULT_CL, DEFAULT_LOAD_VOV, _chi

__all__ = ["DiffCmos", "DiffNmos", "diff_pair_by_name"]


def _tail_conductance(tech: Technology, tail_current: float, g0: float | None) -> float:
    if g0 is not None:
        if g0 < 0:
            raise EstimationError("tail conductance must be >= 0")
        return g0
    return tech.nmos.lambda_ * tail_current


@dataclass
class DiffCmos(Component):
    """Mirror-loaded differential amplifier, single-ended output.

    Ports for :meth:`place`: ``inp``, ``inn``, ``out``, ``tail``,
    ``vdd``, ``vss``.  The output follows the ``inp`` input in phase.
    """

    v_cm_in: float = 0.0
    tail_current: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        adm: float,
        tail_current: float,
        *,
        cl: float = DEFAULT_CL,
        g0: float | None = None,
        v_cm_in: float = 0.0,
        load_vov: float = DEFAULT_LOAD_VOV,
        name: str = "diff_cmos",
    ) -> "DiffCmos":
        """Size for differential gain ``adm`` at tail current ``tail_current``.

        Solves paper Eq. 5 for the input-pair transconductance, sizes
        the pair and the mirror load, then evaluates Eqs. 6-7 and the
        dynamic figures from the sized devices.
        """
        if adm <= 0:
            raise EstimationError(f"{name}: Adm must be positive")
        if tail_current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: tail current and cl must be positive")
        id_side = tail_current / 2.0
        lam_sum = tech.nmos.lambda_ + tech.pmos.lambda_
        # Eq. 5 inverted: gmi = Adm (gdl + gdi) = Adm * Id * lam_sum.
        vov_i = 2.0 / (adm * lam_sum)
        if vov_i < MIN_OVERDRIVE:
            raise EstimationError(
                f"{name}: Adm={adm:g} exceeds the one-stage limit "
                f"~{2.0 / (MIN_OVERDRIVE * lam_sum):.0f}; add a gain stage"
            )
        if vov_i > tech.supply_span / 2.0:
            raise EstimationError(
                f"{name}: Adm={adm:g} too low for a mirror-loaded pair "
                f"(Vov would be {vov_i:.2f} V)"
            )
        v_tail = v_cm_in - tech.nmos.threshold(0.35) - vov_i
        vsb_i = max(v_tail - tech.vss, 0.0)
        v_out = 0.5 * (tech.vdd + tech.vss)
        pair = size_for_id_vov(
            tech.nmos, tech, ids=id_side, vov=vov_i,
            vds=v_out - v_tail, vsb=vsb_i,
        )
        load = size_for_id_vov(
            tech.pmos, tech, ids=id_side, vov=load_vov,
            vds=tech.vdd - v_out,
        )
        g0_eff = _tail_conductance(tech, tail_current, g0)
        gmi, gdi = pair.gm, pair.gds
        gml, gdl = load.gm, load.gds
        adm_est = gmi / (gdl + gdi)
        acm_est = (
            -g0_eff * gdi / (2.0 * gml * (gdl + gdi)) if g0_eff > 0 else 0.0
        )
        cmrr_est = (
            2.0 * gmi * gml / (g0_eff * gdi) if g0_eff > 0 else math.inf
        )
        estimate = PerformanceEstimate(
            gate_area=2.0 * pair.gate_area + 2.0 * load.gate_area,
            dc_power=tech.supply_span * tail_current,
            gain=adm_est,
            acm=acm_est,
            cmrr=cmrr_est,
            ugf=gmi / (2.0 * math.pi * cl),
            bandwidth=(gdl + gdi) / (2.0 * math.pi * cl),
            current=tail_current,
            zout=1.0 / (gdl + gdi),
            slew_rate=tail_current / cl,
            extras={"cl": cl, "g0": g0_eff, "v_tail": v_tail},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"pair": pair, "load": load},
            estimate=estimate,
            v_cm_in=v_cm_in,
            tail_current=tail_current,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, inn, out = ports["inp"], ports["inn"], ports["out"]
        tail, vdd, vss = ports["tail"], ports["vdd"], ports["vss"]
        pair, load = self.devices["pair"], self.devices["load"]
        mirror_node = f"{prefix}_mir"
        # The diode-branch gate is the NON-inverting input: raising it
        # raises the mirrored current sourced into the output node.
        circuit.m(
            mirror_node, inp, tail, vss, pair.device.model, pair.w, pair.l,
            name=f"{prefix}M1",
        )
        circuit.m(
            out, inn, tail, vss, pair.device.model, pair.w, pair.l,
            name=f"{prefix}M2",
        )
        circuit.m(
            mirror_node, mirror_node, vdd, vdd,
            load.device.model, load.w, load.l, name=f"{prefix}ML1",
        )
        circuit.m(
            out, mirror_node, vdd, vdd,
            load.device.model, load.w, load.l, name=f"{prefix}ML2",
        )
        return {
            "pair": (f"{prefix}M1", f"{prefix}M2"),
            "load": (f"{prefix}ML1", f"{prefix}ML2"),
        }

    def bench(
        self, mode: str = "differential", v_diff: float = 0.0
    ) -> tuple[Circuit, dict[str, str]]:
        """Bench with an ideal tail emulating the assumed g0.

        ``mode``: ``'differential'`` drives the inputs anti-phase with a
        net 1 V AC differential; ``'common'`` drives both in phase.
        ``v_diff`` adds a DC differential offset (for output balancing).
        """
        if mode not in ("differential", "common"):
            raise EstimationError(f"unknown bench mode {mode!r}")
        ckt = Circuit(f"{self.name}-bench-{mode}")
        vdd, vss = self._supply_nodes(ckt)
        acp, acn = (0.5, -0.5) if mode == "differential" else (1.0, 1.0)
        ckt.v("inp", "0", dc=self.v_cm_in + v_diff / 2, ac=acp, name="VINP")
        ckt.v("inn", "0", dc=self.v_cm_in - v_diff / 2, ac=acn, name="VINN")
        ckt.i("tail", vss, dc=self.tail_current, name="ITAIL")
        g0 = self.estimate.extras["g0"]
        if g0 > 0:
            ckt.r("tail", vss, 1.0 / g0, name="RTAIL")
        self.place(
            ckt, "X1",
            inp="inp", inn="inn", out="out", tail="tail", vdd=vdd, vss=vss,
        )
        ckt.c("out", "0", self.estimate.extras["cl"], name="CLOAD")
        return ckt, {"out": "out"}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return self.bench("differential")


@dataclass
class DiffNmos(Component):
    """Diode-loaded differential amplifier, differential output.

    Ports for :meth:`place`: ``inp``, ``inn``, ``outp``, ``outn``,
    ``tail``, ``vdd``, ``vss``.  Gain is negative (each side is a
    diode-loaded common-source stage).
    """

    v_cm_in: float = 0.0
    tail_current: float = 0.0

    @classmethod
    def design(
        cls,
        tech: Technology,
        adm: float,
        tail_current: float,
        *,
        cl: float = DEFAULT_CL,
        g0: float | None = None,
        v_cm_in: float = 0.0,
        name: str = "diff_nmos",
    ) -> "DiffNmos":
        """Size for |differential gain| ``adm`` (ratio-defined)."""
        a_target = abs(adm)
        if a_target < 1.0:
            raise EstimationError(f"{name}: |Adm| must be >= 1")
        if tail_current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: tail current and cl must be positive")
        id_side = tail_current / 2.0
        vov_i = 0.15
        for _ in range(12):
            v_out_guess = tech.vdd - tech.nmos.vth0 - a_target * vov_i
            vsb_l = max(v_out_guess - tech.vss, 0.0)
            chi = _chi(tech, vsb_l)
            vov_l = a_target * vov_i * (1.0 + chi)
            vgs_l = tech.nmos.threshold(vsb_l) + vov_l
            v_out = tech.vdd - vgs_l
            v_tail = v_cm_in - tech.nmos.threshold(0.35) - vov_i
            if v_out > v_tail + vov_i + 0.1 and vov_l < tech.supply_span:
                break
            vov_i *= 0.75
            if vov_i < MIN_OVERDRIVE:
                raise EstimationError(
                    f"{name}: gain {a_target:g} infeasible for diode loads"
                )
        vsb_i = max(v_tail - tech.vss, 0.0)
        pair = size_for_id_vov(
            tech.nmos, tech, ids=id_side, vov=vov_i,
            vds=v_out - v_tail, vsb=vsb_i,
        )
        load = size_for_id_vov(
            tech.nmos, tech, ids=id_side, vov=vov_l,
            vds=vgs_l, vsb=vsb_l,
        )
        g0_eff = _tail_conductance(tech, tail_current, g0)
        gml_eff = load.gm * (1.0 + chi)
        adm_est = pair.gm / gml_eff
        cmrr_est = 2.0 * pair.gm / g0_eff if g0_eff > 0 else math.inf
        estimate = PerformanceEstimate(
            gate_area=2.0 * pair.gate_area + 2.0 * load.gate_area,
            dc_power=tech.supply_span * tail_current,
            gain=-adm_est,
            cmrr=cmrr_est,
            acm=-g0_eff / (2.0 * gml_eff) if g0_eff > 0 else 0.0,
            ugf=pair.gm / (2.0 * math.pi * cl),
            bandwidth=gml_eff / (2.0 * math.pi * cl),
            current=tail_current,
            zout=1.0 / gml_eff,
            slew_rate=tail_current / cl,
            extras={"cl": cl, "g0": g0_eff, "v_tail": v_tail},
        )
        return cls(
            name=name,
            tech=tech,
            devices={"pair": pair, "load": load},
            estimate=estimate,
            v_cm_in=v_cm_in,
            tail_current=tail_current,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, inn = ports["inp"], ports["inn"]
        outp, outn = ports["outp"], ports["outn"]
        tail, vdd, vss = ports["tail"], ports["vdd"], ports["vss"]
        pair, load = self.devices["pair"], self.devices["load"]
        # Anti-phase: the inp-side drain is outn (inverting per side).
        circuit.m(
            outn, inp, tail, vss, pair.device.model, pair.w, pair.l,
            name=f"{prefix}M1",
        )
        circuit.m(
            outp, inn, tail, vss, pair.device.model, pair.w, pair.l,
            name=f"{prefix}M2",
        )
        # Enhancement diode loads: drain and gate at VDD, sources at the
        # output nodes.
        circuit.m(
            vdd, vdd, outn, vss, load.device.model, load.w, load.l,
            name=f"{prefix}ML1",
        )
        circuit.m(
            vdd, vdd, outp, vss, load.device.model, load.w, load.l,
            name=f"{prefix}ML2",
        )
        return {
            "pair": (f"{prefix}M1", f"{prefix}M2"),
            "load": (f"{prefix}ML1", f"{prefix}ML2"),
        }

    def bench(
        self, mode: str = "differential"
    ) -> tuple[Circuit, dict[str, str]]:
        if mode not in ("differential", "common"):
            raise EstimationError(f"unknown bench mode {mode!r}")
        ckt = Circuit(f"{self.name}-bench-{mode}")
        vdd, vss = self._supply_nodes(ckt)
        acp, acn = (0.5, -0.5) if mode == "differential" else (1.0, 1.0)
        ckt.v("inp", "0", dc=self.v_cm_in, ac=acp, name="VINP")
        ckt.v("inn", "0", dc=self.v_cm_in, ac=acn, name="VINN")
        ckt.i("tail", vss, dc=self.tail_current, name="ITAIL")
        g0 = self.estimate.extras["g0"]
        if g0 > 0:
            ckt.r("tail", vss, 1.0 / g0, name="RTAIL")
        self.place(
            ckt, "X1",
            inp="inp", inn="inn", outp="outp", outn="outn",
            tail="tail", vdd=vdd, vss=vss,
        )
        half_cl = self.estimate.extras["cl"] / 2.0
        if half_cl > 0:
            ckt.c("outp", "0", half_cl, name="CLP")
            ckt.c("outn", "0", half_cl, name="CLN")
        return ckt, {"outp": "outp", "outn": "outn"}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return self.bench("differential")


_PAIRS = {"cmos": DiffCmos, "nmos": DiffNmos}


def diff_pair_by_name(kind: str):
    """Map the paper's diff-amp names (``CMOS``/``NMOS``) to classes."""
    try:
        return _PAIRS[kind.lower()]
    except KeyError:
        raise TopologyError(
            f"unknown differential-pair kind {kind!r}; "
            f"available: {', '.join(sorted(_PAIRS))}"
        ) from None
