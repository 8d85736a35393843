"""Generic (float-or-interval) APE metric model of a sized op-amp.

:class:`MetricModel` compiles an :class:`~repro.opamp.estimator.OpAmp`
template into one closed-form function from the synthesis engine's
search parameters (device geometries, ``cc``, ``r.ref``, ``r.bias``) to
the APE performance figures — gain, UGF, slew rate, power, area, CMRR,
realised reference current.  The function is written once over the
:data:`~repro.analysis.interval.Num` union:

* with **floats** it is the concrete square-law estimator — the
  reference the soundness property tests sample;
* with **intervals** it is the abstract interpreter — every metric
  bound is guaranteed to contain all concrete values over the box,
  because both evaluations run the exact same branch-free expressions
  and every interval primitive is outward-rounded.

Structure (topology, device multiplicities, frozen bias voltages) comes
from the template; only the search parameters vary.  Threshold voltages
are frozen at each template device's source-bulk bias and the body
factor ``chi = gmb/gm`` at the template operating point — the standard
APE simplification that keeps every expression closed-form.

The bias chain follows the netlist exactly (``place_opamp``): the
reference branch is VDD → ``r.ref`` → tail-mirror diode stack → VSS,
solved in closed form from ``r i + C sqrt(i) = V``; the tail current is
the geometric mirror ratio times the reference current; the stage-2 and
buffer sink currents mirror the ``r.bias``-programmed diode branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, TYPE_CHECKING

from .interval import Interval, Num, imax, imin, isqrt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..opamp.estimator import OpAmp

__all__ = ["MetricModel", "UnsupportedTopologyError", "BOUNDED_METRICS"]

#: Metrics the model bounds.  Constraints on anything else (e.g.
#: ``phase_margin``, ``offset``) are outside the closed-form estimator
#: hierarchy and are reported as un-analyzable, never as infeasible.
BOUNDED_METRICS = (
    "gain",
    "ugf",
    "slew_rate",
    "dc_power",
    "gate_area",
    "i_ref",
    "cmrr",
)

#: Effective channel length floor [m] — keeps ``w / l_eff`` defined for
#: pathological user boxes; problem-generated boxes never reach it.
_L_EFF_FLOOR = 1e-9


class UnsupportedTopologyError(ValueError):
    """The template's topology is outside the closed-form model."""


@dataclass(frozen=True)
class _Device:
    """Per-device constants compiled from the template."""

    #: Parameter-key prefix, e.g. ``"diff.pair"``.
    key: str
    kp: float
    lam: float
    ld: float
    #: Threshold magnitude at the template source-bulk bias [V].
    vth: float
    #: Template geometry — defaults when a key is absent from ``values``.
    w0: float
    l0: float
    #: Placed-device multiplicity (matched pairs count twice).
    count: int = 1
    #: Frozen bias-point corrections: the device model's Level-1 drain
    #: current carries a ``(1 + lambda Vds)`` channel-length-modulation
    #: factor, so at the template operating point the true ``gm`` runs
    #: ``sqrt(1 + lambda Vds)`` above the plain square law and the true
    #: ``gds / Id`` below ``lambda``.  Freezing both ratios at the
    #: template bias (exactly like ``vth`` and ``chi``) keeps every
    #: expression closed-form while matching the estimator's composed
    #: figures at the design point.
    gm_k: float = 1.0
    lam_eff: float = 0.0


def _compile_device(stage: str, role: str, sized: object, count: int) -> _Device:
    model = sized.device.model  # type: ignore[attr-defined]
    ids = sized.op.ids  # type: ignore[attr-defined]
    l_eff = max(sized.l - 2.0 * model.ld, _L_EFF_FLOOR)  # type: ignore[attr-defined]
    gm_sq = math.sqrt(
        max(2.0 * model.kp_effective * (sized.w / l_eff) * ids, 0.0)  # type: ignore[attr-defined]
    )
    gm_k = sized.ss.gm / gm_sq if gm_sq > 0.0 else 1.0  # type: ignore[attr-defined]
    lam_eff = sized.ss.gds / ids if ids > 0.0 else model.lambda_  # type: ignore[attr-defined]
    return _Device(
        key=f"{stage}.{role}",
        kp=model.kp_effective,
        lam=model.lambda_,
        ld=model.ld,
        vth=model.threshold(sized.op.vsb),  # type: ignore[attr-defined]
        w0=sized.w,  # type: ignore[attr-defined]
        l0=sized.l,  # type: ignore[attr-defined]
        count=count,
        gm_k=gm_k,
        lam_eff=lam_eff,
    )


def _solve_bias(r: Num, c: Num, v: float) -> Num:
    """Positive root of ``r i + c sqrt(i) - v = 0`` (diode + resistor).

    The reference branch is a resistor in series with a diode stack
    whose total drop is ``sum(vth) + c sqrt(i)``; with ``v`` the supply
    span net of the (constant) thresholds, the quadratic in ``sqrt(i)``
    has the single positive root ``(-c + sqrt(c^2 + 4 r v)) / (2 r)``.
    Closed-form and monotone — no fixed-point iteration, so the interval
    evaluation needs no widening loop.
    """
    s = (isqrt(c * c + 4.0 * r * v) - c) / (2.0 * r)
    s = imax(s, 0.0)
    return s * s


class MetricModel:
    """Closed-form params → metrics map compiled from a template.

    Raises :class:`UnsupportedTopologyError` for topologies outside the
    square-law composition (currently the folded cascode, whose gain is
    set by cascode structure rather than the overdrive split).
    """

    def __init__(self, template: "OpAmp") -> None:
        from ..components import DiffNmos, SourceFollower
        from ..components.current_sources import (
            CascodeCurrentSource,
            CurrentMirror,
            WilsonCurrentSource,
        )

        tech = template.tech
        self.template = template
        self.vdd = tech.vdd
        self.vss = tech.vss
        self.span = tech.supply_span
        self.lam_sum = tech.nmos.lambda_ + tech.pmos.lambda_
        self.cl = template.spec.cl
        self.two_stage = template.two_stage
        self.has_buffer = template.has_buffer
        self.cc0 = template.cc
        self.r_ref0 = template.r_ref
        self.r_bias0 = template.r_bias

        diff = template.stages.get("diff")
        if diff is None or "tail_source" not in template.stages:
            raise UnsupportedTopologyError(
                f"{template.name}: template lacks a diff/tail stage pair"
            )
        if type(diff).__name__ == "FoldedCascodeDiff":
            raise UnsupportedTopologyError(
                f"{template.name}: the folded-cascode stage's gain is "
                "structural, not closed-form; no interval model available"
            )
        self.diff_is_cmos = not isinstance(diff, DiffNmos)

        tail = template.stages["tail_source"]
        if isinstance(tail, CurrentMirror):
            self.tail_kind = "mirror"
            in_roles, out_roles = ["input"], ["output"]
            self.ratio_roles = ("input", "output")
        elif isinstance(tail, CascodeCurrentSource):
            self.tail_kind = "cascode"
            in_roles = ["input_bottom", "input_top"]
            out_roles = ["output_bottom", "output_top"]
            self.ratio_roles = ("input_bottom", "output_bottom")
        elif isinstance(tail, WilsonCurrentSource):
            self.tail_kind = "wilson"
            # The diode and output device sit in the *output* (tail
            # current) path; the bottom device carries the reference.
            in_roles, out_roles = ["diode", "output"], []
            self.ratio_roles = ("bottom", "diode")
        else:
            raise UnsupportedTopologyError(
                f"{template.name}: unknown tail source "
                f"{type(tail).__name__}"
            )
        #: Tail devices whose diode drops form the reference branch.
        self.tail_stack_roles = in_roles
        self.tail_out_roles = out_roles

        self.devices: dict[str, _Device] = {}
        for stage_name, stage in template.stages.items():
            for role, sized in stage.devices.items():
                count = 2 if stage_name == "diff" else 1
                self.devices[f"{stage_name}.{role}"] = _compile_device(
                    stage_name, role, sized, count
                )

        # Body factor of the diode-loaded diff stage / buffer driver,
        # frozen at the template bias (chi = gmb / gm).
        self.chi_diff_load = 0.0
        if not self.diff_is_cmos:
            load = diff.devices["load"]
            self.chi_diff_load = load.ss.gmb / load.ss.gm if load.ss.gm > 0 else 0.0
        self.chi_buffer = 0.0
        self.g_load = 0.0
        if self.has_buffer:
            buf = template.stages["buffer"]
            assert isinstance(buf, SourceFollower)
            drv = buf.devices["driver"]
            self.chi_buffer = drv.ss.gmb / drv.ss.gm if drv.ss.gm > 0 else 0.0
            r_load = template.topology.z_load
            self.g_load = 0.0 if math.isinf(r_load) else 1.0 / r_load

        # Sink-bias diode branch (fixed geometry — not a search
        # variable; ``place_opamp`` rebuilds it from the technology).
        self.has_sink_bias = "sink_bias" in template.currents
        self.bias_wl = 0.0
        self.bias_c = 0.0
        self.bias_v = 0.0
        self.bias_area = 0.0
        if self.has_sink_bias:
            from ..components.current_sources import DEFAULT_MIRROR_VOV
            from ..devices import size_for_id_vov
            from ..opamp.estimator import SINK_BIAS_CURRENT

            diode = size_for_id_vov(
                tech.nmos, tech, ids=SINK_BIAS_CURRENT, vov=DEFAULT_MIRROR_VOV
            )
            l_eff = max(diode.l - 2.0 * tech.nmos.ld, _L_EFF_FLOOR)
            self.bias_wl = diode.w / l_eff
            self.bias_c = math.sqrt(2.0 / (tech.nmos.kp_effective * self.bias_wl))
            self.bias_v = self.span - tech.nmos.threshold(0.0)
            self.bias_area = diode.w * diode.l

        # Reference-branch constants: supply span net of the (frozen)
        # diode-stack thresholds must be positive or the branch is dead.
        stack_vth = sum(
            self.devices[f"tail_source.{r}"].vth for r in self.tail_stack_roles
        )
        self.ref_v = self.span - stack_vth
        if self.ref_v <= 0.0:
            raise UnsupportedTopologyError(
                f"{template.name}: tail reference stack exceeds the rails"
            )
        if self.has_sink_bias and self.bias_v <= 0.0:
            raise UnsupportedTopologyError(
                f"{template.name}: sink-bias diode exceeds the rails"
            )

        #: Metric intervals of every box :meth:`bounds` has evaluated,
        #: keyed by the box's exact endpoints.  One analysis contracts
        #: the same box once per constraint (C202) and once more for
        #: the report; they all share one evaluation per distinct box.
        self._bounds_memo: dict[
            frozenset[tuple[str, float, float]], dict[str, Interval]
        ] = {}

    # -- per-evaluation helpers ---------------------------------------

    def _geom(self, dev: _Device, values: Mapping[str, Num]) -> tuple[Num, Num, Num]:
        """(w, l, w/l_eff) for one device at the given parameter point."""
        w = values.get(f"{dev.key}.w", dev.w0)
        l = values.get(f"{dev.key}.l", dev.l0)
        l_eff = imax(l - 2.0 * dev.ld, _L_EFF_FLOOR)
        return w, l, w / l_eff

    def _gm(self, dev: _Device, wl: Num, ids: Num) -> Num:
        """Transconductance ``gm_k sqrt(2 kp (W/L) Id)`` (CLM-corrected)."""
        return dev.gm_k * isqrt(2.0 * dev.kp * wl * ids)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values: Mapping[str, Num]) -> dict[str, Num]:
        """APE metrics at a parameter point (floats) or box (intervals).

        Missing keys default to the template's value, matching
        :func:`~repro.synthesis.problems.parameterized_opamp`.
        """
        dev = self.devices
        cc = values.get("cc", self.cc0)
        r_ref = values.get("r.ref", self.r_ref0)
        r_bias = values.get("r.bias", self.r_bias0)

        # ---- reference branch and tail current
        geom = {key: self._geom(d, values) for key, d in dev.items()}
        stack_c: Num = 0.0
        for role in self.tail_stack_roles:
            d = dev[f"tail_source.{role}"]
            wl = geom[d.key][2]
            stack_c = stack_c + isqrt(2.0 / (d.kp * wl))
        ref_key, out_key = self.ratio_roles
        wl_ref = geom[f"tail_source.{ref_key}"][2]
        wl_out = geom[f"tail_source.{out_key}"][2]
        ratio = wl_out / wl_ref
        if self.tail_kind == "wilson":
            # The stacked diodes carry the *tail* current (= ratio x
            # i_ref), so the sqrt(i_ref) coefficient scales by sqrt(ratio).
            stack_c = stack_c * isqrt(ratio)
        i_ref = _solve_bias(r_ref, stack_c, self.ref_v)
        itail = i_ref * ratio

        # ---- sink-bias branch (fixed diode, programmed by r.bias)
        i_bias: Num = 0.0
        if self.has_sink_bias:
            i_bias = _solve_bias(r_bias, self.bias_c, self.bias_v)

        # ---- differential stage
        id1 = itail * 0.5
        d_pair = dev["diff.pair"]
        d_load = dev["diff.load"]
        wl_pair = geom["diff.pair"][2]
        wl_load = geom["diff.load"][2]
        gm1 = self._gm(d_pair, wl_pair, id1)
        if self.diff_is_cmos:
            # Eq. 5 with gdl + gdi = Id (lam_i + lam_l), factored so the
            # current appears once: A1 = gm1 / (Id1 lam_sum1).
            lam_sum1 = d_pair.lam_eff + d_load.lam_eff
            a1 = d_pair.gm_k * isqrt(2.0 * d_pair.kp * wl_pair / id1) / lam_sum1
        else:
            gm_load_eff = self._gm(d_load, wl_load, id1) * (1.0 + self.chi_diff_load)
            # Single-ended pick-off halves the differential gain.
            a1 = (gm1 / gm_load_eff) * 0.5

        # ---- tail output conductance (per mirror topology)
        if self.tail_kind == "mirror":
            d_out = dev["tail_source.output"]
            g0 = d_out.lam_eff * itail
        elif self.tail_kind == "cascode":
            d_top = dev["tail_source.output_top"]
            d_bot = dev["tail_source.output_bottom"]
            gm_top = self._gm(d_top, geom[d_top.key][2], itail)
            g0 = (d_top.lam_eff * itail) * (d_bot.lam_eff * itail) / gm_top
        else:  # wilson: zout = gm ro_top ro_bottom / 2, bottom at i_ref
            d_top = dev["tail_source.output"]
            d_bot = dev["tail_source.bottom"]
            gm_top = self._gm(d_top, geom[d_top.key][2], itail)
            g0 = 2.0 * (d_top.lam_eff * itail) * (d_bot.lam_eff * i_ref) / gm_top

        if self.diff_is_cmos:
            gml = self._gm(d_load, wl_load, id1)
            gdi = d_pair.lam_eff * id1
            cmrr = 2.0 * gm1 * gml / (g0 * gdi)
        else:
            cmrr = 2.0 * gm1 / g0

        # ---- second stage
        a2: Num = 1.0
        i6: Num = 0.0
        if self.two_stage:
            d_drv = dev["stage2.driver"]
            d_l2 = dev["stage2.load"]
            wl_drv = geom["stage2.driver"][2]
            wl_l2 = geom["stage2.load"][2]
            i6 = i_bias * (wl_l2 / self.bias_wl)
            lam_sum2 = d_drv.lam_eff + d_l2.lam_eff
            a2 = d_drv.gm_k * isqrt(2.0 * d_drv.kp * wl_drv / i6) / lam_sum2

        # ---- buffer
        a_buf: Num = 1.0
        i_buf: Num = 0.0
        if self.has_buffer:
            d_bdrv = dev["buffer.driver"]
            d_bsnk = dev["buffer.sink"]
            wl_bdrv = geom["buffer.driver"][2]
            wl_bsnk = geom["buffer.sink"][2]
            i_buf = i_bias * (wl_bsnk / self.bias_wl)
            gm_b = self._gm(d_bdrv, wl_bdrv, i_buf)
            g_tot = (
                gm_b * (1.0 + self.chi_buffer)
                + d_bdrv.lam_eff * i_buf
                + d_bsnk.lam_eff * i_buf
                + self.g_load
            )
            a_buf = gm_b / g_tot

        # ---- composition (mirrors design_opamp exactly)
        gain = a1 * a2 * a_buf
        if self.two_stage:
            ugf = a_buf * gm1 / (2.0 * math.pi * cc)
            slew = imin(itail / cc, i6 / self.cl)
        elif self.cc0 > 0:
            ugf = a_buf * gm1 / (2.0 * math.pi * cc)
            slew = itail / cc
        else:
            ugf = gm1 / (2.0 * math.pi * self.cl)
            slew = itail / self.cl
        cmrr_total = cmrr if self.diff_is_cmos else cmrr * a2

        total_current = i_ref + itail + i6 + i_bias + i_buf
        dc_power = self.span * total_current

        area: Num = self.bias_area
        for key, d in dev.items():
            w, l, _ = geom[key]
            area = area + float(d.count) * (w * l)

        return {
            "gain": gain,
            "ugf": ugf,
            "slew_rate": slew,
            "dc_power": dc_power,
            "gate_area": area,
            "i_ref": i_ref,
            "cmrr": cmrr_total,
        }

    def bounds(self, box: Mapping[str, tuple[float, float]]) -> dict[str, Interval]:
        """Guaranteed metric intervals over a parameter box.

        Each distinct box is evaluated once per model; a repeated box
        is answered from the memo with a fresh dict, so a caller that
        mutates the result cannot change the next answer.
        """
        key = frozenset((name, lo, hi) for name, (lo, hi) in box.items())
        cached = self._bounds_memo.get(key)
        if cached is None:
            values: dict[str, Num] = {
                name: Interval(lo, hi) for name, (lo, hi) in box.items()
            }
            cached = {
                name: Interval.coerce(value)
                for name, value in self.evaluate(values).items()
            }
            self._bounds_memo[key] = cached
        return dict(cached)
