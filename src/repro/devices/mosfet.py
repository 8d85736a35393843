"""MOSFET large- and small-signal models (SPICE Levels 1-3).

The model equations follow the paper (§4.1, Eqs. 1-4) and the classic
SPICE formulations.  All terminal voltages passed to :class:`MosDevice`
are *polarity-normalized*: they are the NMOS-convention voltages for an
NMOS device and the magnitude-equivalent (sign-flipped) voltages for a
PMOS device, so ``vgs``, ``vds`` and currents are positive in normal
operation for both polarities.  The simulator layer performs the flip.

A :class:`DrainLaw` holds one device's law at a fixed ``vds`` and
``vsb``, with every Vgs-independent term resolved once: the sizing
bisection evaluates one law at each step, and
:meth:`MosDevice.linearize` derives a sized device's bias point and
small-signal parameters from one evaluation.

One notational note: the paper prints ``gm = sqrt(4 KP (W/L) |Ids|)``
(its Eq. 2).  With the SPICE convention ``Ids = (KP/2)(W/L)(Vgs-Vth)^2``
used in its Eq. 1 the correct coefficient is 2, not 4; we use the
self-consistent ``gm = sqrt(2 KP (W/L) Id)`` throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import SizingError
from ..technology import MosModelParams

__all__ = ["Region", "OperatingPoint", "SmallSignal", "MosDevice", "DrainLaw"]


class Region(enum.Enum):
    """DC operating region of a MOSFET."""

    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class OperatingPoint:
    """A DC bias point, polarity-normalized (all values NMOS-sign)."""

    vgs: float
    vds: float
    vsb: float
    ids: float
    region: Region

    @property
    def vov(self) -> float:
        """Overdrive voltage Vgs - Vth is not stored; see MosDevice."""
        raise AttributeError(
            "overdrive depends on the model; use MosDevice.overdrive()"
        )


@dataclass(frozen=True)
class SmallSignal:
    """Small-signal parameters at a bias point (paper Eqs. 2-4).

    ``gds`` is the paper's ``gd``; capacitances follow the Meyer model
    plus overlap and junction terms.  All values are >= 0.
    """

    gm: float
    gmb: float
    gds: float
    cgs: float
    cgd: float
    cgb: float
    cdb: float
    csb: float

    @property
    def ro(self) -> float:
        """Output resistance 1/gds [ohm] (inf when gds == 0)."""
        return math.inf if self.gds == 0 else 1.0 / self.gds

    @property
    def intrinsic_gain(self) -> float:
        """gm / gds, the single-device voltage-gain bound."""
        return math.inf if self.gds == 0 else self.gm / self.gds


@dataclass(frozen=True)
class MosDevice:
    """A MOSFET of fixed geometry bound to a model card.

    ``w`` and ``l`` are drawn dimensions in metres.  The effective
    channel length subtracts twice the lateral diffusion ``LD``.
    """

    model: MosModelParams
    w: float
    l: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.l <= 0:
            raise SizingError(
                f"device geometry must be positive (w={self.w}, l={self.l})"
            )
        if self.l_eff <= 0:
            raise SizingError(
                f"effective length <= 0: drawn l={self.l}, LD={self.model.ld}"
            )

    @property
    def l_eff(self) -> float:
        """Effective channel length L - 2*LD [m]."""
        return self.l - 2.0 * self.model.ld

    @property
    def aspect(self) -> float:
        """Effective aspect ratio W / Leff."""
        return self.w / self.l_eff

    @property
    def gate_area(self) -> float:
        """Drawn gate area W*L [m^2] — the area metric the paper reports."""
        return self.w * self.l

    # ------------------------------------------------------------------
    # Large signal
    # ------------------------------------------------------------------

    def threshold(self, vsb: float = 0.0) -> float:
        """Threshold magnitude with body effect at source-bulk ``vsb``."""
        return self.model.threshold(vsb)

    def overdrive(self, vgs: float, vsb: float = 0.0) -> float:
        """Overdrive Vgs - Vth(vsb); negative in cutoff."""
        return vgs - self.threshold(vsb)

    def law(self, vds: float, vsb: float = 0.0) -> "DrainLaw":
        """The drain-current law at fixed ``vds`` and ``vsb``, in Vgs."""
        return DrainLaw(self, vds, vsb)

    def region(self, vgs: float, vds: float, vsb: float = 0.0) -> Region:
        """Operating region for polarity-normalized bias voltages."""
        return self.law(vds, vsb).evaluate(vgs)[0]

    def ids(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Drain current [A] (paper Eq. 1 in saturation).

        ``vds`` must be >= 0 (the simulator swaps terminals for reverse
        operation before calling this).
        """
        return self.law(vds, vsb).ids(vgs)

    # ------------------------------------------------------------------
    # Small signal
    # ------------------------------------------------------------------

    def gm(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Gate transconductance dIds/dVgs [S] (paper Eq. 2)."""
        return self.law(vds, vsb).evaluate(vgs)[2]

    def gmb(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Body transconductance [S] (paper Eq. 3)."""
        law = self.law(vds, vsb)
        return law.body_factor() * law.evaluate(vgs)[2]

    def gds(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Output conductance dIds/dVds [S] (paper Eq. 4)."""
        return self.law(vds, vsb).evaluate(vgs)[3]

    def capacitances(
        self, vgs: float, vds: float, vsb: float = 0.0, vdb: float | None = None
    ) -> dict[str, float]:
        """Meyer gate capacitances + overlap + junction capacitances [F].

        ``vdb`` defaults to ``vds + vsb`` (the drain-bulk reverse bias).
        Junction areas use the technology's default diffusion extension
        via ``AD = AS = W * ext`` and ``PD = PS = W + 2*ext``.
        """
        return self._capacitances(self.region(vgs, vds, vsb), vds, vsb, vdb)

    def _capacitances(
        self, region: Region, vds: float, vsb: float, vdb: float | None = None
    ) -> dict[str, float]:
        """:meth:`capacitances` of a device whose region is known."""
        m = self.model
        cox_area = m.cox * self.w * self.l_eff
        if region is Region.CUTOFF:
            cgs_i = 0.0
            cgd_i = 0.0
            cgb_i = cox_area
        elif region is Region.TRIODE:
            cgs_i = 0.5 * cox_area
            cgd_i = 0.5 * cox_area
            cgb_i = 0.0
        else:
            cgs_i = (2.0 / 3.0) * cox_area
            cgd_i = 0.0
            cgb_i = 0.0
        ext = 1.5e-6  # default diffusion extension; overridden by netlists
        area_j = self.w * ext
        perim_j = self.w + 2.0 * ext
        if vdb is None:
            vdb = vds + vsb

        def junction(v_reverse: float) -> float:
            v = max(v_reverse, 0.0)
            bottom = m.cj * area_j / (1.0 + v / m.pb) ** m.mj
            side = m.cjsw * perim_j / (1.0 + v / m.pb) ** m.mjsw
            return bottom + side

        return {
            "cgs": cgs_i + m.cgso * self.w,
            "cgd": cgd_i + m.cgdo * self.w,
            "cgb": cgb_i + m.cgbo * self.l,
            "cdb": junction(vdb),
            "csb": junction(vsb),
        }

    def small_signal(
        self, vgs: float, vds: float, vsb: float = 0.0
    ) -> SmallSignal:
        """All small-signal parameters at the given bias point."""
        return self.linearize(vgs, vds, vsb)[1]

    def linearize(
        self, vgs: float, vds: float, vsb: float = 0.0
    ) -> tuple[OperatingPoint, SmallSignal]:
        """The bias point and its small-signal parameters, in one pass.

        One :class:`DrainLaw` evaluation gives ids, the region, gm and
        gds; gmb and the capacitances follow from them, so the
        threshold and the other bias-independent terms are derived once.
        """
        law = self.law(vds, vsb)
        region, ids, gm, gds = law.evaluate(vgs)
        op = OperatingPoint(vgs=vgs, vds=vds, vsb=vsb, ids=ids, region=region)
        ss = SmallSignal(
            gm=gm,
            gmb=law.body_factor() * gm,
            gds=gds,
            **self._capacitances(region, vds, vsb),
        )
        return op, ss


class DrainLaw:
    """One device's drain-current law at a fixed ``vds`` and ``vsb``.

    The terms that do not depend on Vgs are resolved once on
    construction: the threshold at ``vsb``, KP_eff and W/Leff, the
    Level-2/3 mobility-degradation THETA, the Level-3 velocity-
    saturation voltage ``vc`` and ``1 + lambda*vds``.  :meth:`ids` and
    :meth:`evaluate` then do only the Vgs-dependent arithmetic.  The
    resolved terms are the same floats a per-call derivation computes,
    and the Vgs-dependent operations keep their order, so each result
    is bit for bit the one deriving every term afresh gives.  A Vgs
    bisection builds one law and evaluates it at every step.
    """

    __slots__ = ("model", "vds", "vsb", "vth", "kp", "aspect", "theta", "vc",
                 "lam", "lam_vds")

    def __init__(self, device: MosDevice, vds: float, vsb: float) -> None:
        model = device.model
        self.model = model
        self.vds = vds
        self.vsb = vsb
        self.vth = model.threshold(vsb)
        self.kp = model.kp_effective
        self.aspect = device.aspect
        # THETA degrades mobility on Level 2/3 cards only.
        self.theta = (
            model.theta if model.level >= 2 and model.theta > 0 else 0.0
        )
        # Level-3 velocity saturation: vc = VMAX * Leff / U0.
        self.vc = (
            model.vmax * device.l_eff / max(model.u0, 1e-12)
            if model.level == 3 and model.vmax > 0
            else None
        )
        self.lam = model.lambda_
        self.lam_vds = 1.0 + self.lam * vds

    def vdsat(self, vov: float) -> float:
        """Saturation voltage at overdrive ``vov`` > 0."""
        return self._current(vov)[1]

    def _current(self, vov: float) -> tuple[float, float, float]:
        """``(beta, vdsat, ids)`` at overdrive ``vov`` > 0: the law itself.

        ``beta`` is KP_eff * W/Leff with the THETA degradation.  Below
        ``vdsat`` the triode expression holds; above it, the saturation
        current is the triode expression at ``vds = vdsat``, which keeps
        I(vds) continuous for the velocity-saturated Level-3 case
        (vdsat < vov); for Level 1/2 (vdsat = vov) this is the familiar
        0.5*beta*vov^2.
        """
        kp = self.kp
        if self.theta > 0:
            kp = kp / (1.0 + self.theta * vov)
        beta = kp * self.aspect
        # Classic Level-3 blend of pinch-off and velocity saturation.
        vc = self.vc
        vdsat = vov if vc is None else vov * vc / (vov + vc)
        vds = self.vds
        ve = vds if vds < vdsat else vdsat
        return beta, vdsat, beta * (vov - ve / 2.0) * ve * self.lam_vds

    def ids(self, vgs: float) -> float:
        """Drain current [A] at ``vgs``."""
        vov = vgs - self.vth
        if vov <= 0:
            return 0.0
        return self._current(vov)[2]

    def evaluate(self, vgs: float) -> tuple[Region, float, float, float]:
        """``(region, ids, gm, gds)`` at ``vgs``, from one set of terms."""
        vov = vgs - self.vth
        if vov <= 0:
            return Region.CUTOFF, 0.0, 0.0, 0.0
        beta, vdsat, ids = self._current(vov)
        vds = self.vds
        lam = self.lam
        lam_vds = self.lam_vds
        if vds < vdsat:
            # gds = d/dVds of beta*(vov - vds/2)*vds*(1+lam*vds)
            return (
                Region.TRIODE,
                ids,
                beta * vds * lam_vds,
                beta * ((vov - vds) * lam_vds + (vov - vds / 2.0) * vds * lam),
            )
        # Differentiate I = beta(vov) * (vov - vdsat/2) * vdsat with the
        # chain rule through beta (theta) and vdsat (velocity
        # saturation); reduces to beta*vov (= sqrt(2 beta I)) on Level 1.
        core = (vov - vdsat / 2.0) * vdsat
        theta = self.theta
        dbeta = -theta * beta / (1.0 + theta * vov) if theta > 0 else 0.0
        vc = self.vc
        dvdsat = 1.0 if vc is None else (vc / (vov + vc)) ** 2
        dcore = (1.0 - dvdsat / 2.0) * vdsat + (vov - vdsat / 2.0) * dvdsat
        return (
            Region.SATURATION,
            ids,
            (dbeta * core + beta * dcore) * lam_vds,
            lam * ids / lam_vds,
        )

    def body_factor(self) -> float:
        """gmb / gm = gamma / (2 sqrt(phi + vsb)) (paper Eq. 3)."""
        model = self.model
        return model.gamma / (2.0 * math.sqrt(model.phi + max(self.vsb, 0.0)))
