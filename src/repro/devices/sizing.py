"""Analytical transistor sizing (paper §4.1).

"The transistor sizing process consists in solving these symbolic
equations such that the constraints are met.  For example, if a
transistor is specified by a given transconductance gm and a drain
current, APE estimates the transistor size, the output drain conductance
and the parasite capacitances."

The inversions implemented here:

* ``(gm, Id)``  ->  ``W/L = gm^2 / (2 KP Id)``, ``Vov = 2 Id / gm``
* ``(Id, Vov)`` ->  ``W/L = 2 Id / (KP Vov^2)``
* ``(Id, J)``   ->  ``W = Id / J`` at a chosen L (current-density rule)

After geometry is clamped to the technology's layout rules, the actual
operating point is re-derived from the final geometry so the returned
:class:`SizedMos` is always self-consistent even when a clamp bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SizingError
from ..technology import MosModelParams, Technology
from .mosfet import MosDevice, OperatingPoint, SmallSignal

__all__ = [
    "SizedMos",
    "size_for_gm_id",
    "size_for_id_vov",
    "size_for_current_density",
]

#: Below this overdrive [V] the square-law inversion is unreliable.
MIN_OVERDRIVE = 0.05
#: Default drawn-L multiple of the process minimum for analog devices
#: (longer than digital minimum for better matching and output resistance).
ANALOG_LENGTH_FACTOR = 2.0
#: Layout grid for drawn dimensions [m].
GRID = 0.05e-6


@dataclass(frozen=True)
class SizedMos:
    """A sized transistor with its bias point and small-signal estimate.

    This is the paper's level-1 "object which contains the size and
    performance parameters"; higher levels of the hierarchy compose
    these objects.
    """

    device: MosDevice
    op: OperatingPoint
    ss: SmallSignal

    @property
    def w(self) -> float:
        return self.device.w

    @property
    def l(self) -> float:
        return self.device.l

    @property
    def gate_area(self) -> float:
        """Drawn gate area [m^2]."""
        return self.device.gate_area

    @property
    def gm(self) -> float:
        return self.ss.gm

    @property
    def gds(self) -> float:
        return self.ss.gds

    @property
    def ids(self) -> float:
        return self.op.ids

    @property
    def vov(self) -> float:
        """Achieved overdrive at the bias point [V]."""
        return self.device.overdrive(self.op.vgs, self.op.vsb)

    def scaled(self, ratio: float, *, w_min: float | None = None) -> "SizedMos":
        """A copy with W (and Id) scaled by ``ratio`` — mirror branches.

        The bias voltages are unchanged; current and small-signal
        conductances scale linearly with W, which is exactly how a
        current-mirror output branch relates to its diode device.

        ``w_min`` keeps the result manufacturable: if the scaled width
        falls below it, both W and L grow by the same factor so W/L (and
        therefore the branch current) is preserved while the drawn
        geometry stays inside the technology's layout rules.
        """
        if ratio <= 0:
            raise SizingError(f"scale ratio must be positive, got {ratio}")
        w = self.device.w * ratio
        l = self.device.l
        if w_min is not None and w < w_min:
            l *= w_min / w
            w = w_min
        device = MosDevice(self.device.model, w, l)
        return _finish(device, self.op.vgs, self.op.vds, self.op.vsb)


def _snap(value: float, minimum: float, maximum: float) -> float:
    """Clamp to [minimum, maximum] and snap up to the layout grid."""
    clamped = min(max(value, minimum), maximum)
    return math.ceil(clamped / GRID - 1e-9) * GRID


def _finish(
    device: MosDevice, vgs: float, vds: float, vsb: float
) -> SizedMos:
    op, ss = device.linearize(vgs, vds, vsb)
    return SizedMos(device=device, op=op, ss=ss)


def _solve_vgs_for_id(device: MosDevice, ids: float, vds: float, vsb: float) -> float:
    """Invert the drain-current equation for Vgs at fixed geometry.

    Bisection on the exact model (monotone in Vgs), so Level-2/3
    mobility degradation and velocity saturation are handled without
    approximation.  The law is resolved once at the fixed ``vds`` and
    ``vsb``.  At most 80 halvings; the loop stops after the first step
    whose midpoint lands on an end of the bracket, because that step
    leaves a bracket every later step would leave unchanged, so the
    result is the one 80 full steps return.
    """
    law = device.law(vds, vsb)
    current = law.ids
    lo = law.vth + 1e-6
    hi = law.vth + 20.0  # far beyond any realistic overdrive
    if current(hi) < ids:
        # Spec unreachable at this geometry; return the ceiling.
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        stalled = mid == lo or mid == hi
        if current(mid) < ids:
            lo = mid
        else:
            hi = mid
        if stalled:
            break
    return 0.5 * (lo + hi)


def _choose_length(tech: Technology, l: float | None) -> float:
    if l is None:
        return _snap(ANALOG_LENGTH_FACTOR * tech.l_min, tech.l_min, math.inf)
    if l < tech.l_min:
        raise SizingError(
            f"requested L={l:.3g} m is below the process minimum "
            f"{tech.l_min:.3g} m"
        )
    return _snap(l, tech.l_min, math.inf)


def _geometry_for_aspect(
    model: MosModelParams, tech: Technology, aspect: float, length: float
) -> MosDevice:
    """Realise an aspect ratio W/Leff within layout rules.

    If the width at the requested length would violate ``w_min``, the
    channel is *lengthened* to preserve the aspect ratio — silently
    changing the ratio would break every ratio-defined gain in the
    component library.  Very large aspects are built at ``w_max`` (the
    spec is then out of reach and the caller's re-derived operating
    point reflects that).
    """
    l_eff = length - 2.0 * model.ld
    width = aspect * l_eff
    if width < tech.w_min:
        width = tech.w_min
        l_eff = width / aspect
        length = _snap(l_eff + 2.0 * model.ld, tech.l_min, math.inf)
        l_eff = length - 2.0 * model.ld
    width = _snap(width, tech.w_min, tech.w_max)
    return MosDevice(model, width, length)


def size_for_gm_id(
    model: MosModelParams,
    tech: Technology,
    gm: float,
    ids: float,
    *,
    l: float | None = None,
    vds: float | None = None,
    vsb: float = 0.0,
) -> SizedMos:
    """Size a device to realise transconductance ``gm`` at current ``ids``.

    This is APE's canonical level-1 inversion: the square law gives
    ``W/L = gm^2 / (2 KP Id)`` and ``Vov = 2 Id / gm``.  The overdrive
    must stay above :data:`MIN_OVERDRIVE` (strong inversion) and below
    half the supply span; otherwise the spec is declared infeasible.
    """
    if gm <= 0 or ids <= 0:
        raise SizingError(f"gm and ids must be positive (gm={gm}, ids={ids})")
    vov = 2.0 * ids / gm
    vov_max = tech.supply_span / 2.0
    if vov < MIN_OVERDRIVE:
        raise SizingError(
            f"gm/Id spec implies Vov={vov * 1e3:.1f} mV < "
            f"{MIN_OVERDRIVE * 1e3:.0f} mV: weak inversion is outside the "
            "square-law model; lower gm or raise Id"
        )
    if vov > vov_max:
        raise SizingError(
            f"gm/Id spec implies Vov={vov:.2f} V > {vov_max:.2f} V "
            "(half the supply span); raise gm or lower Id"
        )
    length = _choose_length(tech, l)
    kp = model.kp_effective
    aspect = gm * gm / (2.0 * kp * ids)
    device = _geometry_for_aspect(model, tech, aspect, length)
    if vds is None:
        vds = vov + 0.2  # comfortably in saturation
    vgs = _solve_vgs_for_id(device, ids, vds, vsb)
    return _finish(device, vgs, vds, vsb)


def size_for_id_vov(
    model: MosModelParams,
    tech: Technology,
    ids: float,
    vov: float,
    *,
    l: float | None = None,
    vds: float | None = None,
    vsb: float = 0.0,
) -> SizedMos:
    """Size a device to carry ``ids`` at overdrive ``vov``.

    Used for bias devices and mirrors where the designer picks the
    overdrive (headroom) rather than a transconductance.
    """
    if ids <= 0:
        raise SizingError(f"ids must be positive, got {ids}")
    if not MIN_OVERDRIVE <= vov <= tech.supply_span:
        raise SizingError(
            f"overdrive {vov:.3f} V outside [{MIN_OVERDRIVE}, "
            f"{tech.supply_span:.2f}] V"
        )
    length = _choose_length(tech, l)
    kp = model.kp_effective
    aspect = 2.0 * ids / (kp * vov * vov)
    device = _geometry_for_aspect(model, tech, aspect, length)
    if vds is None:
        vds = vov + 0.2
    vgs = _solve_vgs_for_id(device, ids, vds, vsb)
    return _finish(device, vgs, vds, vsb)


def size_for_current_density(
    model: MosModelParams,
    tech: Technology,
    ids: float,
    density: float,
    *,
    l: float | None = None,
    vds: float | None = None,
    vsb: float = 0.0,
) -> SizedMos:
    """Size a device by current density ``density`` = Id / W [A/m].

    A common rule for output stages where W is set by current-handling
    rather than transconductance.
    """
    if ids <= 0 or density <= 0:
        raise SizingError("ids and density must be positive")
    length = _choose_length(tech, l)
    width = _snap(ids / density, tech.w_min, tech.w_max)
    device = MosDevice(model, width, length)
    vgs = _solve_vgs_for_id(device, ids, vds if vds is not None else 0.5, vsb)
    vov = device.overdrive(vgs, vsb)
    if vds is None:
        vds = vov + 0.2
        vgs = _solve_vgs_for_id(device, ids, vds, vsb)
    return _finish(device, vgs, vds, vsb)
