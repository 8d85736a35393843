"""The per-call MOSFET equations: the device model's oracle.

Each function derives every term it needs (the threshold at ``vsb``,
KP_eff, W/Leff, the saturation voltage) from the device afresh, in
the readable form of the SPICE Level-1/2/3 formulas (paper Eqs. 1-4),
and :func:`solve_vgs_for_id` runs all 80 bisection steps.
:class:`repro.devices.MosDevice` resolves the bias-independent terms
once per ``(vds, vsb)`` in a :class:`~repro.devices.mosfet.DrainLaw`
and the sizing bisection stops once its bracket stalls;
``tests/test_device_oracle.py`` holds both to these functions bit for
bit (``==``, not a tolerance).
"""

from __future__ import annotations

import math

from repro.devices import MosDevice, Region, SmallSignal


def overdrive(device: MosDevice, vgs: float, vsb: float = 0.0) -> float:
    return vgs - device.model.threshold(vsb)


def _beta(device: MosDevice, vov: float) -> float:
    kp = device.model.kp_effective
    if device.model.level >= 2 and device.model.theta > 0 and vov > 0:
        kp = kp / (1.0 + device.model.theta * vov)
    return kp * device.aspect


def _vdsat(device: MosDevice, vov: float) -> float:
    if vov <= 0:
        return 0.0
    vmax = device.model.vmax
    if device.model.level == 3 and vmax > 0:
        vc = vmax * device.l_eff / max(device.model.u0, 1e-12)
        return vov * vc / (vov + vc)
    return vov


def _dvdsat(device: MosDevice, vov: float) -> float:
    if vov <= 0:
        return 0.0
    vmax = device.model.vmax
    if device.model.level == 3 and vmax > 0:
        vc = vmax * device.l_eff / max(device.model.u0, 1e-12)
        return (vc / (vov + vc)) ** 2
    return 1.0


def region(device: MosDevice, vgs: float, vds: float, vsb: float = 0.0) -> Region:
    vov = overdrive(device, vgs, vsb)
    if vov <= 0:
        return Region.CUTOFF
    if vds < _vdsat(device, vov):
        return Region.TRIODE
    return Region.SATURATION


def ids(device: MosDevice, vgs: float, vds: float, vsb: float = 0.0) -> float:
    vov = overdrive(device, vgs, vsb)
    if vov <= 0:
        return 0.0
    beta = _beta(device, vov)
    lam = device.model.lambda_
    vdsat = _vdsat(device, vov)
    if vds < vdsat:
        return beta * (vov - vds / 2.0) * vds * (1.0 + lam * vds)
    return beta * (vov - vdsat / 2.0) * vdsat * (1.0 + lam * vds)


def gm(device: MosDevice, vgs: float, vds: float, vsb: float = 0.0) -> float:
    vov = overdrive(device, vgs, vsb)
    if vov <= 0:
        return 0.0
    beta = _beta(device, vov)
    lam = device.model.lambda_
    vdsat = _vdsat(device, vov)
    if vds < vdsat:
        return beta * vds * (1.0 + lam * vds)
    core = (vov - vdsat / 2.0) * vdsat
    theta = device.model.theta if device.model.level >= 2 else 0.0
    dbeta = -theta * beta / (1.0 + theta * vov) if theta > 0 else 0.0
    dvdsat = _dvdsat(device, vov)
    dcore = (1.0 - dvdsat / 2.0) * vdsat + (vov - vdsat / 2.0) * dvdsat
    return (dbeta * core + beta * dcore) * (1.0 + lam * vds)


def gmb(device: MosDevice, vgs: float, vds: float, vsb: float = 0.0) -> float:
    chi = device.model.gamma / (
        2.0 * math.sqrt(device.model.phi + max(vsb, 0.0))
    )
    return chi * gm(device, vgs, vds, vsb)


def gds(device: MosDevice, vgs: float, vds: float, vsb: float = 0.0) -> float:
    vov = overdrive(device, vgs, vsb)
    if vov <= 0:
        return 0.0
    beta = _beta(device, vov)
    lam = device.model.lambda_
    vdsat = _vdsat(device, vov)
    if vds < vdsat:
        return beta * (
            (vov - vds) * (1.0 + lam * vds)
            + (vov - vds / 2.0) * vds * lam
        )
    current = ids(device, vgs, vds, vsb)
    return lam * current / (1.0 + lam * vds)


def capacitances(
    device: MosDevice,
    vgs: float,
    vds: float,
    vsb: float = 0.0,
    vdb: float | None = None,
) -> dict[str, float]:
    m = device.model
    cox_area = m.cox * device.w * device.l_eff
    where = region(device, vgs, vds, vsb)
    if where is Region.CUTOFF:
        cgs_i = 0.0
        cgd_i = 0.0
        cgb_i = cox_area
    elif where is Region.TRIODE:
        cgs_i = 0.5 * cox_area
        cgd_i = 0.5 * cox_area
        cgb_i = 0.0
    else:
        cgs_i = (2.0 / 3.0) * cox_area
        cgd_i = 0.0
        cgb_i = 0.0
    ext = 1.5e-6
    area_j = device.w * ext
    perim_j = device.w + 2.0 * ext
    if vdb is None:
        vdb = vds + vsb

    def junction(v_reverse: float) -> float:
        v = max(v_reverse, 0.0)
        bottom = m.cj * area_j / (1.0 + v / m.pb) ** m.mj
        side = m.cjsw * perim_j / (1.0 + v / m.pb) ** m.mjsw
        return bottom + side

    return {
        "cgs": cgs_i + m.cgso * device.w,
        "cgd": cgd_i + m.cgdo * device.w,
        "cgb": cgb_i + m.cgbo * device.l,
        "cdb": junction(vdb),
        "csb": junction(vsb),
    }


def small_signal(
    device: MosDevice, vgs: float, vds: float, vsb: float = 0.0
) -> SmallSignal:
    caps = capacitances(device, vgs, vds, vsb)
    return SmallSignal(
        gm=gm(device, vgs, vds, vsb),
        gmb=gmb(device, vgs, vds, vsb),
        gds=gds(device, vgs, vds, vsb),
        **caps,
    )


def solve_vgs_for_id(
    device: MosDevice, target: float, vds: float, vsb: float
) -> float:
    """The sizing bisection for Vgs, all 80 steps, on :func:`ids`."""
    vth = device.model.threshold(vsb)
    lo = vth + 1e-6
    hi = vth + 20.0
    if ids(device, hi, vds, vsb) < target:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ids(device, mid, vds, vsb) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
