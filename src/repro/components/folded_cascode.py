"""Folded-cascode differential amplifier (library extension).

The paper closes §6 noting the hierarchy "allows to easily add new
components ... making use of lower levels in the structure"; this
module exercises that claim with the classic folded-cascode OTA — the
topology designers reach for when a mirror-loaded pair's gain is not
enough but a second stage (and its compensation) is unwelcome.

Structure (NMOS input):

* input pair M1/M2, tail current ``Itail`` (port, like DiffCmos),
* PMOS folding sources M4/M5 from VDD carrying ``Itail/2 + Ibranch``,
* PMOS cascodes M6/M7 from the folding nodes to the outputs,
* NMOS cascode current mirror M8-M11 as the load; single-ended output.

Gain ~ gm1 * [ (gm6 ro6 (ro4 || ro2)) || (gm8 ro8 ro10) ] — one to two
orders beyond the simple mirror load, with a single high-impedance
node (load-compensated, UGF = gm1 / 2 pi CL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devices import size_for_id_vov
from ..errors import EstimationError
from ..spice import Circuit
from ..technology import Technology
from .base import Component, PerformanceEstimate
from .current_sources import DEFAULT_MIRROR_VOV
from .differential import _tail_conductance
from .gain_stages import DEFAULT_CL

__all__ = ["FoldedCascodeDiff"]


@dataclass
class FoldedCascodeDiff(Component):
    """A sized folded-cascode stage.

    Ports for :meth:`place`: ``inp``, ``inn``, ``out``, ``tail``,
    ``vdd``, ``vss`` plus three bias-voltage ports ``bias_p``,
    ``bias_pc``, ``bias_nc`` (the fold sources' and both cascodes'
    gates).  The bias levels to apply are exposed as attributes.
    """

    v_cm_in: float = 0.0
    tail_current: float = 0.0
    branch_current: float = 0.0
    v_bias_p: float = 0.0
    v_bias_pc: float = 0.0
    v_bias_nc: float = 0.0

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
        vov: float = DEFAULT_MIRROR_VOV,
        name: str = "folded_cascode",
    ) -> "FoldedCascodeDiff":
        """Size for at least ``adm`` differential gain.

        The cascode structure's gain is set by the technology (it lands
        at gm/ (lambda^2 V^2) scale); ``adm`` acts as a feasibility
        check, and the achieved value is reported in the estimate.
        """
        if adm <= 0 or tail_current <= 0 or cl <= 0:
            raise EstimationError(f"{name}: adm, tail and cl must be positive")
        id_side = tail_current / 2.0
        # Classic budget: the folding branch carries the same current as
        # a pair side so the cascode stays alive at full slewing.
        i_branch = id_side
        i_fold = id_side + i_branch

        v_tail = v_cm_in - tech.nmos.threshold(0.35) - vov
        vsb_pair = max(v_tail - tech.vss, 0.0)
        pair = size_for_id_vov(
            tech.nmos, tech, ids=id_side, vov=vov, vsb=vsb_pair, vds=0.8
        )
        fold_src = size_for_id_vov(
            tech.pmos, tech, ids=i_fold, vov=vov, vds=vov + 0.2
        )
        casc_p = size_for_id_vov(
            tech.pmos, tech, ids=i_branch, vov=vov,
            vsb=vov + 0.2, vds=vov + 0.2,
        )
        mirror_top = size_for_id_vov(
            tech.nmos, tech, ids=i_branch, vov=vov,
            vsb=tech.nmos.vth0 + vov, vds=vov + 0.2,
        )
        mirror_bot = size_for_id_vov(
            tech.nmos, tech, ids=i_branch, vov=vov, vds=tech.nmos.vth0 + vov
        )
        # Output resistance: PMOS cascode branch || NMOS cascode mirror.
        r_up = casc_p.ss.gm * casc_p.ss.ro * (
            1.0 / (fold_src.gds + pair.gds)
        )
        r_down = mirror_top.ss.gm * mirror_top.ss.ro * mirror_bot.ss.ro
        r_out = r_up * r_down / (r_up + r_down)
        a_est = pair.gm * r_out
        if a_est < adm:
            raise EstimationError(
                f"{name}: folded cascode reaches only {a_est:.0f} < "
                f"requested {adm:.0f} in {tech.name}"
            )
        g0_eff = _tail_conductance(tech, tail_current, g0)
        cmrr_est = 2.0 * pair.gm * r_out * pair.gm / g0_eff if g0_eff else math.inf
        total_current = tail_current + 2.0 * i_fold
        devices = {
            "pair": pair,
            "fold_source": fold_src,
            "cascode_p": casc_p,
            "mirror_top": mirror_top,
            "mirror_bottom": mirror_bot,
        }
        gate_area = (
            2 * pair.gate_area
            + 2 * fold_src.gate_area
            + 2 * casc_p.gate_area
            + 2 * mirror_top.gate_area
            + 2 * mirror_bot.gate_area
        )
        estimate = PerformanceEstimate(
            gate_area=gate_area,
            dc_power=tech.supply_span * total_current,
            gain=a_est,
            cmrr=cmrr_est,
            ugf=pair.gm / (2.0 * math.pi * cl),
            bandwidth=1.0 / (2.0 * math.pi * r_out * cl),
            current=tail_current,
            zout=r_out,
            slew_rate=tail_current / cl,
            extras={"cl": cl, "g0": g0_eff, "i_branch": i_branch,
                    "v_tail": v_tail},
        )
        # Bias levels: fold sources need Vsg, PMOS cascode gates sit a
        # Vsg below the folding-node level, NMOS cascode gates a Vgs
        # above the mirror diode.
        v_bias_p = tech.vdd - fold_src.op.vgs
        v_fold_node = tech.vdd - (vov + 0.2)
        v_bias_pc = v_fold_node - casc_p.op.vgs
        v_bias_nc = tech.vss + mirror_bot.op.vgs + mirror_top.op.vgs
        return cls(
            name=name,
            tech=tech,
            devices=devices,
            estimate=estimate,
            v_cm_in=v_cm_in,
            tail_current=tail_current,
            branch_current=i_branch,
            v_bias_p=v_bias_p,
            v_bias_pc=v_bias_pc,
            v_bias_nc=v_bias_nc,
        )

    def place(
        self, circuit: Circuit, prefix: str, **ports: str
    ) -> dict[str, tuple[str, ...]]:
        inp, inn, out = ports["inp"], ports["inn"], ports["out"]
        tail, vdd, vss = ports["tail"], ports["vdd"], ports["vss"]
        bias_p = ports["bias_p"]
        bias_pc = ports["bias_pc"]
        bias_nc = ports["bias_nc"]
        d = self.devices
        f1, f2 = f"{prefix}_f1", f"{prefix}_f2"
        c1 = f"{prefix}_c1"  # mirror-diode side output
        m1, m2 = f"{prefix}_m1", f"{prefix}_m2"
        pair, fold, cp = d["pair"], d["fold_source"], d["cascode_p"]
        mt, mb = d["mirror_top"], d["mirror_bottom"]
        # Input pair: the fold inverts once more than the mirror path,
        # so the inp-side device drains into the *output* branch fold.
        circuit.m(f1, inp, tail, vss, pair.device.model, pair.w, pair.l,
                  name=f"{prefix}M1")
        circuit.m(f2, inn, tail, vss, pair.device.model, pair.w, pair.l,
                  name=f"{prefix}M2")
        # PMOS folding current sources.
        circuit.m(f1, bias_p, vdd, vdd, fold.device.model, fold.w, fold.l,
                  name=f"{prefix}M4")
        circuit.m(f2, bias_p, vdd, vdd, fold.device.model, fold.w, fold.l,
                  name=f"{prefix}M5")
        # PMOS cascodes from the folding nodes to the output rails.
        circuit.m(c1, bias_pc, f1, vdd, cp.device.model, cp.w, cp.l,
                  name=f"{prefix}M6")
        circuit.m(out, bias_pc, f2, vdd, cp.device.model, cp.w, cp.l,
                  name=f"{prefix}M7")
        # NMOS cascode current mirror (diode side at c1).
        circuit.m(c1, bias_nc, m1, vss, mt.device.model, mt.w, mt.l,
                  name=f"{prefix}M8")
        circuit.m(out, bias_nc, m2, vss, mt.device.model, mt.w, mt.l,
                  name=f"{prefix}M9")
        circuit.m(m1, c1, vss, vss, mb.device.model, mb.w, mb.l,
                  name=f"{prefix}M10")
        circuit.m(m2, c1, vss, vss, mb.device.model, mb.w, mb.l,
                  name=f"{prefix}M11")
        return {
            "pair": (f"{prefix}M1", f"{prefix}M2"),
            "fold_source": (f"{prefix}M4", f"{prefix}M5"),
            "cascode_p": (f"{prefix}M6", f"{prefix}M7"),
            "mirror_top": (f"{prefix}M8", f"{prefix}M9"),
            "mirror_bottom": (f"{prefix}M10", f"{prefix}M11"),
        }

    def bench(
        self, mode: str = "differential", v_diff: float = 0.0
    ) -> tuple[Circuit, dict[str, str]]:
        """Self-contained bench with ideal tail and bias rails."""
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
        ckt.v("biasp", "0", dc=self.v_bias_p, name="VBIASP")
        ckt.v("biaspc", "0", dc=self.v_bias_pc, name="VBIASPC")
        ckt.v("biasnc", "0", dc=self.v_bias_nc, name="VBIASNC")
        self.place(
            ckt, "X1",
            inp="inp", inn="inn", out="out", tail="tail",
            vdd=vdd, vss=vss,
            bias_p="biasp", bias_pc="biaspc", bias_nc="biasnc",
        )
        ckt.c("out", "0", self.estimate.extras["cl"], name="CLOAD")
        return ckt, {"out": "out"}

    def verification_circuit(self) -> tuple[Circuit, dict[str, str]]:
        return self.bench("differential")
