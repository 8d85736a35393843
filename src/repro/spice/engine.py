"""Stamp-compiled MNA assembly — the solver hot path.

The naive assembly in :mod:`repro.spice.mna` walks the netlist in pure
Python at every Newton iteration, every AC frequency point and every
transient step, even though all *linear* elements (R, L, V, E, G, I, C)
contribute exactly the same stamps every time.  This module compiles
those stamps once per circuit revision into dense cached matrices built
with one vectorized ``np.add.at`` scatter, so per-call work reduces to:

* copy the cached linear skeleton (one ``ndarray.copy``),
* one matmul for the linear residual,
* re-stamp only the MOSFETs (the sole nonlinear devices).

The compiled linear parts are exact algebra, not an approximation: the
DC residual is ``(G_lin + gmin·diag) x + source_scale · s`` plus MOSFET
terms, AC is ``Y(ω) = G + jωC`` with a constant RHS, and the transient
companion models factor into per-``(h, gmin)`` constant matrices plus a
per-step matrix that depends only on the previous-step bias.  The A/B
suite in ``tests/test_engine_equivalence.py`` holds the two paths to
``rtol=1e-12`` on every fixture.

Caches hang off :class:`~repro.spice.mna.System` and are invalidated by
the circuit's monotonic edit revision, so in-place ``Circuit.replace``
edits (DC sweeps, bisection loops) recompile automatically while pure
re-solves pay nothing.

Set :func:`set_compiled` (or use the :func:`naive_assembly` context
manager) to fall back to the reference implementations — that is how
the benchmark measures its own baseline.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import linalg
from .mna import (
    System,
    assemble_ac_naive,
    assemble_dc_naive,
    assemble_tran_naive,
    capacitance_matrix_naive,
    evaluate_mosfet,
)
from .netlist import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)

__all__ = [
    "CompiledStamps",
    "stamps_for",
    "assemble_dc",
    "assemble_ac",
    "assemble_tran",
    "capacitance_matrix",
    "linearize_ac",
    "ac_rhs",
    "solve_assembled",
    "sparse_pattern_for",
    "set_compiled",
    "compiled_enabled",
    "naive_assembly",
]

_COMPILED = True


def set_compiled(enabled: bool) -> bool:
    """Switch the compiled fast path on/off; returns the previous state."""
    global _COMPILED
    previous = _COMPILED
    _COMPILED = bool(enabled)
    return previous


def compiled_enabled() -> bool:
    return _COMPILED


@contextmanager
def naive_assembly():
    """Run the enclosed block on the naive reference assembly."""
    previous = set_compiled(False)
    try:
        yield
    finally:
        set_compiled(previous)


class _Scatter:
    """Triplet accumulator densified with one ``np.add.at`` call."""

    __slots__ = ("n", "rows", "cols", "vals")

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(value)

    def dense(self) -> np.ndarray:
        matrix = np.zeros((self.n, self.n))
        if self.rows:
            np.add.at(
                matrix,
                (np.asarray(self.rows), np.asarray(self.cols)),
                np.asarray(self.vals, dtype=float),
            )
        return matrix


def _stamp_pair(matrix: np.ndarray, a: int, b: int, value: float) -> None:
    """Two-terminal admittance stamp with ground (-1) guards."""
    if a >= 0:
        matrix[a, a] += value
        if b >= 0:
            matrix[a, b] -= value
            matrix[b, a] -= value
            matrix[b, b] += value
    elif b >= 0:
        matrix[b, b] += value


def _eval_at(x, mos, device, i_d, i_g, i_s, i_b):
    return evaluate_mosfet(
        mos,
        device,
        float(x[i_d]) if i_d >= 0 else 0.0,
        float(x[i_g]) if i_g >= 0 else 0.0,
        float(x[i_s]) if i_s >= 0 else 0.0,
        float(x[i_b]) if i_b >= 0 else 0.0,
    )


class _MosVectors:
    """Vectorized channel-current linearization for all MOSFETs at once.

    Replicates :func:`~repro.spice.mna.evaluate_mosfet` (polarity
    normalization, drain/source swap, Level 1-3 equations) with one
    numpy expression per quantity across every device, then scatters
    the residual/Jacobian stamps with a single ``np.add.at`` call.
    The arithmetic mirrors the scalar model term for term so the two
    paths agree to rounding.
    """

    def __init__(self, mosfets) -> None:
        m = len(mosfets)
        self.count = m
        raw = np.empty((4, m), dtype=np.intp)
        par = np.empty((11, m))
        vel = np.empty(m, dtype=bool)
        for k, (mos, device, i_d, i_g, i_s, i_b) in enumerate(mosfets):
            model = mos.model
            raw[:, k] = (i_d, i_g, i_s, i_b)
            # theta enters beta and gm only for Level >= 2 cards.
            theta = model.theta if model.level >= 2 else 0.0
            vc = 0.0
            if model.level == 3 and model.vmax > 0:
                vc = model.vmax * device.l_eff / max(model.u0, 1e-12)
                vel[k] = True
            else:
                vel[k] = False
            par[:, k] = (
                model.polarity.sign,
                device.aspect,
                model.kp_effective,
                theta,
                model.lambda_,
                model.gamma,
                model.phi,
                math.sqrt(model.phi),
                model.vth0,
                vc,
                1.0,
            )
        self.raw_d, self.raw_g, self.raw_s, self.raw_b = raw
        # Ground (-1) reads map to a zero slot appended to the vector.
        self.aug = np.where(raw >= 0, raw, -1)
        (self.sign, self.aspect, self.kp_eff, self.theta, self.lam,
         self.gamma, self.phi, self.sqrt_phi, self.vth0, self.vc,
         _) = par
        self.theta_on = self.theta > 0.0
        self.vel = vel
        # Level-1 cards make beta bias-independent and collapse the
        # theta/velocity-saturation branches entirely.
        self.has_theta = bool(self.theta_on.any())
        self.has_vel = bool(vel.any())
        self.beta0 = self.kp_eff * self.aspect
        # Reusable scatter buffers: rows/cols/vals laid out as 8 blocks
        # of m entries — (dp, sp) rows times (dp, g, sp, b) columns.
        self._rows = np.empty(8 * m, dtype=np.intp)
        self._cols = np.empty(8 * m, dtype=np.intp)
        self._vals = np.empty(8 * m)
        self._xa = np.empty(0)
        # Precompiled scatter pattern for the common no-swap case: the
        # row/column layout is then bias-independent, so the ground
        # filtering happens once here instead of on every call.
        rows0 = self._rows.copy()
        cols0 = self._cols.copy()
        rows0.reshape(8, m)[:4] = self.raw_d
        rows0.reshape(8, m)[4:] = self.raw_s
        chalf = cols0.reshape(2, 4, m)
        chalf[0, 0] = self.raw_d
        chalf[0, 1] = self.raw_g
        chalf[0, 2] = self.raw_s
        chalf[0, 3] = self.raw_b
        chalf[1] = chalf[0]
        live0 = (rows0 >= 0) & (cols0 >= 0)
        self._j0_rows = rows0[live0]
        self._j0_cols = cols0[live0]
        self._j0_live = None if live0.all() else live0
        d_live = self.raw_d >= 0
        self._res_d_idx = self.raw_d[d_live]
        self._res_d_live = None if d_live.all() else d_live
        s_live = self.raw_s >= 0
        self._res_s_idx = self.raw_s[s_live]
        self._res_s_live = None if s_live.all() else s_live
        # Capacitance-stamp precomputes (see MosDevice.capacitances):
        # oxide area for the Meyer split, overlap totals, and the
        # junction bottom/sidewall prefactors with the default
        # diffusion extension.
        ext = 1.5e-6
        cpar = np.empty((9, m))
        for k, (mos, device, _i_d, _i_g, _i_s, _i_b) in enumerate(mosfets):
            model = mos.model
            cpar[:, k] = (
                model.cox * device.w * device.l_eff,
                model.cgso * device.w,
                model.cgdo * device.w,
                model.cgbo * device.l,
                model.cj * (device.w * ext),
                model.cjsw * (device.w + 2.0 * ext),
                model.pb,
                model.mj,
                model.mjsw,
            )
        (self.cox_area, self.cgs_ov, self.cgd_ov, self.cgb_ov,
         self.cj_area, self.cjsw_perim, self.pb, self.mj,
         self.mjsw) = cpar
        # Fixed scatter pattern for the forward-operation case: the
        # five (a, b) pairs of _mos_cap_pairs laid out as blocks of m.
        a0 = np.concatenate(
            [self.raw_g, self.raw_g, self.raw_g, self.raw_d, self.raw_s]
        )
        b0 = np.concatenate(
            [self.raw_s, self.raw_d, self.raw_b, self.raw_b, self.raw_b]
        )
        self._cap_a0 = a0
        self._cap_b0 = b0
        self._cap_live_a0 = a0 >= 0
        self._cap_live_b0 = b0 >= 0
        self._cap_live_ab0 = self._cap_live_a0 & self._cap_live_b0

    def linearize(self, x: np.ndarray):
        """Per-device stamp arrays at bias ``x``.

        Returns ``(dp, sp, i_dp, g_dd, g_dg, g_ds, g_db, no_swap)``;
        ``no_swap`` reports that no device is in reverse operation, so
        the precompiled scatter pattern applies.
        """
        if self._xa.shape[0] != x.shape[0] + 1:
            self._xa = np.zeros(x.shape[0] + 1)
        xa = self._xa
        xa[:-1] = x
        vd, vg, vs, vb = xa[self.aug]
        sign = self.sign
        d = sign * (vd - vs)
        swapped = d < 0.0
        no_swap = not swapped.any()
        if no_swap:
            vsp = vs
            vds = d
            dp = self.raw_d
            sp = self.raw_s
        else:
            vsp = np.where(swapped, vd, vs)
            vdp = np.where(swapped, vs, vd)
            vds = sign * (vdp - vsp)
            dp = np.where(swapped, self.raw_s, self.raw_d)
            sp = np.where(swapped, self.raw_d, self.raw_s)
        vgs = sign * (vg - vsp)
        vsb = sign * (vsp - vb)
        vsb0 = np.maximum(vsb, 0.0)
        sq = np.sqrt(self.phi + vsb0)
        vth = self.vth0 + self.gamma * (sq - self.sqrt_phi)
        vov = vgs - vth
        on = vov > 0.0
        all_on = bool(on.all())
        if self.has_theta:
            theta_live = self.theta_on & on
            beta_den = np.where(theta_live, 1.0 + self.theta * vov, 1.0)
            kp = np.where(theta_live, self.kp_eff / beta_den, self.kp_eff)
            beta = kp * self.aspect
        else:
            beta = self.beta0
        if self.has_vel:
            vel_live = self.vel & on
            sat_den = np.where(vel_live, vov + self.vc, 1.0)
            vdsat = np.where(vel_live, vov * self.vc / sat_den, vov)
        else:
            # Pinch-off at the overdrive; cutoff rows carry vov <= 0,
            # which keeps ``triode`` False there (vds >= 0) and is
            # masked out of every current below.
            vdsat = vov
        triode = vds < vdsat
        any_tri = bool(triode.any())
        lam = self.lam
        lam_vds = 1.0 + lam * vds
        ve = np.where(triode, vds, vdsat) if any_tri else vdsat
        core_t = vov - 0.5 * ve
        ids = beta * core_t
        ids *= ve
        ids *= lam_vds
        if self.has_theta or self.has_vel:
            half_vdsat = 0.5 * vdsat
            core = (vov - half_vdsat) * vdsat
            if self.has_theta:
                dbeta = np.where(
                    theta_live, -self.theta * beta / beta_den, 0.0
                )
            else:
                dbeta = 0.0
            if self.has_vel:
                dvdsat = np.where(vel_live, (self.vc / sat_den) ** 2, 1.0)
            else:
                dvdsat = 1.0
            dcore = (1.0 - 0.5 * dvdsat) * vdsat
            dcore += (vov - half_vdsat) * dvdsat
            gm = (dbeta * core + beta * dcore) * lam_vds
            if any_tri:
                gm = np.where(triode, beta * vds * lam_vds, gm)
        else:
            # Level 1: dbeta = 0 and dvdsat = 1 collapse the saturation
            # transconductance to beta*vov (the halving in dcore is
            # exact, so this matches the scalar model bit for bit).
            gm = beta * (np.where(triode, vds, vov) if any_tri else vov)
            gm *= lam_vds
        gds = lam * ids
        gds /= lam_vds
        if any_tri:
            t1 = (vov - vds) * lam_vds
            t2 = core_t * vds
            t2 *= lam
            gds = np.where(triode, beta * (t1 + t2), gds)
        if not all_on:
            ids = np.where(on, ids, 0.0)
            gm = np.where(on, gm, 0.0)
            gds = np.where(on, gds, 0.0)
        chi = self.gamma / (2.0 * sq)
        gmb = chi * gm
        return dp, sp, sign * ids, gds, gm, -(gm + gds + gmb), gmb, no_swap

    def stamp(self, x: np.ndarray, res: np.ndarray, jac: np.ndarray) -> None:
        """Add every device's conduction stamp at bias ``x``."""
        dp, sp, i_dp, g_dd, g_dg, g_ds, g_db, no_swap = self.linearize(x)
        m = self.count
        vals = self._vals
        vhalf = vals.reshape(2, 4, m)
        vhalf[0, 0] = g_dd
        vhalf[0, 1] = g_dg
        vhalf[0, 2] = g_ds
        vhalf[0, 3] = g_db
        np.negative(vhalf[0], out=vhalf[1])
        if no_swap:
            d_live = self._res_d_live
            np.add.at(
                res, self._res_d_idx,
                i_dp if d_live is None else i_dp[d_live],
            )
            s_live = self._res_s_live
            np.add.at(
                res, self._res_s_idx,
                -i_dp if s_live is None else -i_dp[s_live],
            )
            j_live = self._j0_live
            np.add.at(
                jac, (self._j0_rows, self._j0_cols),
                vals if j_live is None else vals[j_live],
            )
            return
        live = dp >= 0
        np.add.at(res, dp[live], i_dp[live])
        live = sp >= 0
        np.add.at(res, sp[live], -i_dp[live])
        rows = self._rows
        cols = self._cols
        rows.reshape(8, m)[:4] = dp
        rows.reshape(8, m)[4:] = sp
        half = cols.reshape(2, 4, m)
        half[0, 0] = dp
        half[0, 1] = self.raw_g
        half[0, 2] = sp
        half[0, 3] = self.raw_b
        half[1] = half[0]
        live = (rows >= 0) & (cols >= 0)
        np.add.at(jac, (rows[live], cols[live]), vals[live])

    def stamp_caps(self, x: np.ndarray, cmat: np.ndarray) -> None:
        """Add every device's Meyer + junction capacitance stamp.

        Vectorizes :meth:`MosDevice.capacitances` and
        :func:`_mos_cap_pairs` across all devices (same region rules
        and junction law as the scalar model, term for term).
        """
        if self._xa.shape[0] != x.shape[0] + 1:
            self._xa = np.zeros(x.shape[0] + 1)
        xa = self._xa
        xa[:-1] = x
        vd, vg, vs, vb = xa[self.aug]
        sign = self.sign
        d = sign * (vd - vs)
        swapped = d < 0.0
        no_swap = not swapped.any()
        if no_swap:
            vsp = vs
            vds = d
        else:
            vsp = np.where(swapped, vd, vs)
            vdp = np.where(swapped, vs, vd)
            vds = sign * (vdp - vsp)
        vgs = sign * (vg - vsp)
        vsb = sign * (vsp - vb)
        vsb0 = np.maximum(vsb, 0.0)
        sq = np.sqrt(self.phi + vsb0)
        vth = self.vth0 + self.gamma * (sq - self.sqrt_phi)
        vov = vgs - vth
        on = vov > 0.0
        if self.has_vel:
            vel_live = self.vel & on
            sat_den = np.where(vel_live, vov + self.vc, 1.0)
            vdsat = np.where(vel_live, vov * self.vc / sat_den, vov)
        else:
            vdsat = vov
        triode = on & (vds < vdsat)
        sat = on & ~triode
        cox = self.cox_area
        cgs = np.where(
            triode, 0.5 * cox, np.where(sat, (2.0 / 3.0) * cox, 0.0)
        ) + self.cgs_ov
        cgd = np.where(triode, 0.5 * cox, 0.0) + self.cgd_ov
        cgb = np.where(on, 0.0, cox) + self.cgb_ov
        vdb = np.maximum(vds + vsb, 0.0)
        den_d = 1.0 + vdb / self.pb
        cdb = (self.cj_area / den_d**self.mj
               + self.cjsw_perim / den_d**self.mjsw)
        den_s = 1.0 + vsb0 / self.pb
        csb = (self.cj_area / den_s**self.mj
               + self.cjsw_perim / den_s**self.mjsw)
        vals = np.concatenate([cgs, cgd, cgb, cdb, csb])
        if no_swap:
            a, b = self._cap_a0, self._cap_b0
            live_a = self._cap_live_a0
            live_b = self._cap_live_b0
            live_ab = self._cap_live_ab0
        else:
            dp = np.where(swapped, self.raw_s, self.raw_d)
            sp = np.where(swapped, self.raw_d, self.raw_s)
            a = np.concatenate([self.raw_g, self.raw_g, self.raw_g, dp, sp])
            b = np.concatenate([sp, dp, self.raw_b, self.raw_b, self.raw_b])
            live_a = a >= 0
            live_b = b >= 0
            live_ab = live_a & live_b
        np.add.at(cmat, (a[live_a], a[live_a]), vals[live_a])
        np.add.at(cmat, (b[live_b], b[live_b]), vals[live_b])
        neg = -vals[live_ab]
        np.add.at(cmat, (a[live_ab], b[live_ab]), neg)
        np.add.at(cmat, (b[live_ab], a[live_ab]), neg)


def _mos_cap_pairs(ev, caps, i_d, i_g, i_s, i_b):
    """The five Meyer/junction pairs in effective-terminal indices."""
    dp, sp = (i_s, i_d) if ev.swapped else (i_d, i_s)
    return (
        (i_g, sp, caps["cgs"]),
        (i_g, dp, caps["cgd"]),
        (i_g, i_b, caps["cgb"]),
        (dp, i_b, caps["cdb"]),
        (sp, i_b, caps["csb"]),
    )


class CompiledStamps:
    """All linear stamps of one circuit revision, densified once.

    Matrix roles (``n`` unknowns, node rows first):

    ``g_lin``
        DC/AC linear conductance matrix *without* gmin — the DC linear
        residual is exactly ``g_lin @ x + source_scale * src_dc``.
    ``cap_couple`` / ``c_lin``
        Explicit capacitor stamps (raw farads); ``c_lin`` adds the
        inductor ``-L`` branch diagonal, giving the AC/AWE C matrix
        minus the bias-dependent MOSFET part.
    ``tran_g`` / ``tran_ih`` / ``tran_pv`` / ``tran_ps``
        Transient companion decomposition: the linear Jacobian at step
        ``h`` is ``tran_g + (2/h)·cap_couple + h·tran_ih (+ gmin·diag)``
        and the previous-state matrix is
        ``(2/h)·cap_couple + h·tran_pv + tran_ps``, so each ``(h,
        gmin)`` pair is assembled once per circuit and cached.
    """

    def __init__(self, system: System) -> None:
        circuit = system.circuit
        self.revision = circuit.revision
        n = system.size
        self.n = n
        self.node_diag = np.arange(system.n_nodes)
        idx = system.index
        branch = system.branch_index

        g = _Scatter(n)
        cap = _Scatter(n)
        tran_g = _Scatter(n)
        tran_ih = _Scatter(n)
        tran_pv = _Scatter(n)
        tran_ps = _Scatter(n)
        src = np.zeros(n)
        ac_b = np.zeros(n, dtype=complex)
        tran_src = np.zeros(n)
        l_diag: list[tuple[int, float]] = []
        cap_hist: list[tuple[str, int, int]] = []
        wave_v: list[tuple[int, VoltageSource]] = []
        wave_i: list[tuple[int, int, CurrentSource]] = []
        mosfets = []

        # Per-element scatter positions for the value-only refresh fast
        # path: name -> ("R"|"C", slot tuple) or ("M", mosfet index).
        value_slots: dict[str, tuple] = {}

        for element in circuit:
            if isinstance(element, Resistor):
                a, b = idx(element.n1), idx(element.n2)
                conductance = 1.0 / element.value
                r_slots: list[tuple[int, int, float]] = []
                for mat_id, mat in ((0, g), (1, tran_g)):
                    for row, col, sgn in (
                        (a, a, 1.0), (a, b, -1.0), (b, a, -1.0), (b, b, 1.0)
                    ):
                        if row >= 0 and col >= 0:
                            r_slots.append((mat_id, len(mat.vals), sgn))
                            mat.add(row, col, sgn * conductance)
                value_slots[element.name] = ("R", tuple(r_slots))
            elif isinstance(element, Capacitor):
                if element.value <= 0.0:
                    value_slots[element.name] = ("C", ())
                    continue
                a, b = idx(element.n1), idx(element.n2)
                c_slots: list[tuple[int, float]] = []
                for row, col, sgn in (
                    (a, a, 1.0), (a, b, -1.0), (b, a, -1.0), (b, b, 1.0)
                ):
                    if row >= 0 and col >= 0:
                        c_slots.append((len(cap.vals), sgn))
                        cap.add(row, col, sgn * element.value)
                cap_hist.append((element.name, a, b))
                value_slots[element.name] = ("C", tuple(c_slots))
            elif isinstance(element, Inductor):
                a, b = idx(element.n1), idx(element.n2)
                br = branch[element.name]
                for mat in (g, tran_g):
                    mat.add(a, br, 1.0)
                    mat.add(b, br, -1.0)
                # DC: short — branch row enforces v(a) - v(b) = 0.
                g.add(br, a, 1.0)
                g.add(br, b, -1.0)
                l_diag.append((br, -element.value))
                # Transient trapezoidal companion:
                #   i_n - i_prev - (h/2L)(v_n + v_prev) = 0.
                coeff = 1.0 / (2.0 * element.value)
                tran_g.add(br, br, 1.0)
                tran_ih.add(br, a, -coeff)
                tran_ih.add(br, b, coeff)
                tran_pv.add(br, a, coeff)
                tran_pv.add(br, b, -coeff)
                tran_ps.add(br, br, 1.0)
            elif isinstance(element, VoltageSource):
                a, b = idx(element.np), idx(element.nn)
                br = branch[element.name]
                for mat in (g, tran_g):
                    mat.add(a, br, 1.0)
                    mat.add(b, br, -1.0)
                    mat.add(br, a, 1.0)
                    mat.add(br, b, -1.0)
                src[br] -= element.dc
                if element.ac:
                    ac_b[br] += element.ac
                if element.wave is None:
                    tran_src[br] -= element.dc
                else:
                    wave_v.append((br, element))
            elif isinstance(element, CurrentSource):
                a, b = idx(element.np), idx(element.nn)
                if a >= 0:
                    src[a] += element.dc
                if b >= 0:
                    src[b] -= element.dc
                if element.ac:
                    if a >= 0:
                        ac_b[a] -= element.ac
                    if b >= 0:
                        ac_b[b] += element.ac
                if element.wave is None:
                    if a >= 0:
                        tran_src[a] += element.dc
                    if b >= 0:
                        tran_src[b] -= element.dc
                else:
                    wave_i.append((a, b, element))
            elif isinstance(element, Vcvs):
                a, b = idx(element.np), idx(element.nn)
                c, d = idx(element.cp), idx(element.cn)
                br = branch[element.name]
                for mat in (g, tran_g):
                    mat.add(a, br, 1.0)
                    mat.add(b, br, -1.0)
                    mat.add(br, a, 1.0)
                    mat.add(br, b, -1.0)
                    mat.add(br, c, -element.gain)
                    mat.add(br, d, element.gain)
            elif isinstance(element, Vccs):
                a, b = idx(element.np), idx(element.nn)
                c, d = idx(element.cp), idx(element.cn)
                for mat in (g, tran_g):
                    mat.add(a, c, element.gm)
                    mat.add(a, d, -element.gm)
                    mat.add(b, c, -element.gm)
                    mat.add(b, d, element.gm)
            elif isinstance(element, Mosfet):
                value_slots[element.name] = ("M", len(mosfets))
                mosfets.append(
                    (
                        element,
                        system.device(element.name),
                        idx(element.nd),
                        idx(element.ng),
                        idx(element.ns),
                        idx(element.nb),
                    )
                )
            else:  # pragma: no cover - exhaustive over Element union
                raise TypeError(
                    f"unknown element type {type(element).__name__}"
                )

        self.g_lin = g.dense()
        self.cap_couple = cap.dense()
        self.c_lin = self.cap_couple.copy()
        for br, value in l_diag:
            self.c_lin[br, br] += value
        self.tran_g = tran_g.dense()
        self.tran_ih = tran_ih.dense()
        self.tran_pv = tran_pv.dense()
        self.tran_ps = tran_ps.dense()
        self.src_dc = src
        self.has_src = bool(src.any())
        self.ac_b = ac_b
        self.tran_src = tran_src
        self.cap_hist = cap_hist
        self.wave_v = wave_v
        self.wave_i = wave_i
        self.mosfets = mosfets
        self.mos_vec = _MosVectors(mosfets) if mosfets else None
        self._tran_lin_cache: dict[tuple[float, float], tuple] = {}
        self._step_ctx: tuple | None = None
        self._g_scatter = g
        self._cap_scatter = cap
        self._tran_g_scatter = tran_g
        self._tran_ih_scatter = tran_ih
        self._l_diag = l_diag
        self._value_slots = value_slots
        self._elements_snapshot = circuit.elements
        #: The circuit object these stamps were compiled from.  Each
        #: Circuit counts revisions from zero, so a revision match
        #: proves freshness only together with an identity match —
        #: System.rebind swaps in sibling circuits whose counters can
        #: coincide.
        self._circuit_ref = circuit
        self._sparse_pattern: linalg.SparsePattern | None = None
        self._sparse_factors: dict[tuple, linalg.SparseFactor] = {}

    def refresh(self, system: System) -> bool:
        """Value-only update for a mutated but structurally identical circuit.

        The synthesis inner loop swaps device geometries and R/C values
        on one reused bench, which bumps the revision every candidate;
        re-walking the netlist there dominates the per-candidate cost.
        When every edit since compilation is a value swap (same element
        class, same wiring), this rewrites the recorded scatter slots
        and re-densifies only the touched matrices — bit-identical to a
        fresh compile, since the same values land in the same positions
        in the same order.  Independent-source ``dc`` retargets rebuild
        only the compiled source vectors and keep every matrix (and its
        sparse factorizations) untouched.  Returns False when any edit
        is structural (or of an element kind without a value fast
        path), in which case the caller must rebuild.
        """
        circuit = system.circuit
        old_elems = self._elements_snapshot
        new_elems = circuit.elements
        if len(new_elems) != len(old_elems):
            return False
        g_dirty = False
        cap_dirty = False
        src_changes = False
        r_changes: list = []
        c_changes: list = []
        mos_changes: list = []
        for old, new in zip(old_elems, new_elems):
            if new is old:
                continue
            if type(new) is not type(old) or new.nodes != old.nodes:
                return False
            if isinstance(new, Resistor):
                if new.value != old.value:
                    r_changes.append(new)
            elif isinstance(new, Capacitor):
                if new.value == old.value:
                    continue
                if (new.value <= 0.0) != (old.value <= 0.0):
                    # Stamped-vs-skipped flips the scatter layout.
                    return False
                if new.value > 0.0:
                    c_changes.append(new)
            elif isinstance(new, Mosfet):
                if new != old:
                    mos_changes.append(new)
            elif isinstance(new, (VoltageSource, CurrentSource)):
                # Bias retargeting: only the ``dc`` field may move; an
                # AC magnitude or waveform edit changes which compiled
                # vectors an element lands in, so it rebuilds.
                if replace(new, dc=old.dc) != old:
                    return False
                if new.dc != old.dc:
                    src_changes = True
            elif new != old:
                # Controlled sources and inductors spread into matrix
                # and companion state; rebuild rather than track it.
                return False
        for elem in r_changes:
            _, slots = self._value_slots[elem.name]
            conductance = 1.0 / elem.value
            mats = (self._g_scatter, self._tran_g_scatter)
            for mat_id, pos, sgn in slots:
                mats[mat_id].vals[pos] = sgn * conductance
            g_dirty = True
        for elem in c_changes:
            _, slots = self._value_slots[elem.name]
            for pos, sgn in slots:
                self._cap_scatter.vals[pos] = sgn * elem.value
            cap_dirty = True
        for elem in mos_changes:
            _, k = self._value_slots[elem.name]
            _, _, i_d, i_g, i_s, i_b = self.mosfets[k]
            self.mosfets[k] = (
                elem, system.device(elem.name), i_d, i_g, i_s, i_b
            )
        if mos_changes:
            self.mos_vec = _MosVectors(self.mosfets)
        if src_changes:
            self._refresh_sources(system)
        if g_dirty:
            self.g_lin = self._g_scatter.dense()
            self.tran_g = self._tran_g_scatter.dense()
        if cap_dirty:
            self.cap_couple = self._cap_scatter.dense()
            self.c_lin = self.cap_couple.copy()
            for br, value in self._l_diag:
                self.c_lin[br, br] += value
        if g_dirty or cap_dirty:
            self._tran_lin_cache.clear()
        self._step_ctx = None
        if g_dirty or cap_dirty or mos_changes:
            # Values moved, positions did not: keep the sparsity
            # pattern, drop numeric factorizations built on the old
            # values.  A source-only retarget touches no matrix, so its
            # factorizations stay valid.
            self._sparse_factors.clear()
        self.revision = circuit.revision
        self._elements_snapshot = new_elems
        self._circuit_ref = circuit
        return True

    def _refresh_sources(self, system: System) -> None:
        """Rebuild the compiled source vectors from the current circuit.

        Walks the elements in compile order, so every value lands in
        the same position via the same float operations as a fresh
        :class:`CompiledStamps` — bit-identical by construction.
        """
        n = self.n
        src = np.zeros(n)
        ac_b = np.zeros(n, dtype=complex)
        tran_src = np.zeros(n)
        wave_v: list[tuple[int, VoltageSource]] = []
        wave_i: list[tuple[int, int, CurrentSource]] = []
        idx = system.index
        branch = system.branch_index
        for element in system.circuit:
            if isinstance(element, VoltageSource):
                br = branch[element.name]
                src[br] -= element.dc
                if element.ac:
                    ac_b[br] += element.ac
                if element.wave is None:
                    tran_src[br] -= element.dc
                else:
                    wave_v.append((br, element))
            elif isinstance(element, CurrentSource):
                a, b = idx(element.np), idx(element.nn)
                if a >= 0:
                    src[a] += element.dc
                if b >= 0:
                    src[b] -= element.dc
                if element.ac:
                    if a >= 0:
                        ac_b[a] -= element.ac
                    if b >= 0:
                        ac_b[b] += element.ac
                if element.wave is None:
                    if a >= 0:
                        tran_src[a] += element.dc
                    if b >= 0:
                        tran_src[b] -= element.dc
                else:
                    wave_i.append((a, b, element))
        self.src_dc = src
        self.has_src = bool(src.any())
        self.ac_b = ac_b
        self.tran_src = tran_src
        self.wave_v = wave_v
        self.wave_i = wave_i

    # -- sparse backend ------------------------------------------------

    def sparse_pattern(self) -> linalg.SparsePattern:
        """Union sparsity structure of every matrix this circuit builds.

        Collected once per compiled revision from the scatter positions
        the compiler already recorded, plus the node diagonal (gmin),
        the inductor branch diagonal (AC ``c_lin``) and the MOSFET
        conduction/capacitance blocks.  MOSFET positions are
        swap-invariant — both operating orientations stay inside the
        raw-terminal rows and columns — so one structure covers the
        DC, AC, noise and transient matrices at every bias.
        """
        pattern = self._sparse_pattern
        if pattern is None:
            rows: list[int] = list(self._g_scatter.rows)
            cols: list[int] = list(self._g_scatter.cols)
            for scatter in (
                self._cap_scatter,
                self._tran_g_scatter,
                self._tran_ih_scatter,
            ):
                rows += scatter.rows
                cols += scatter.cols
            for br, _value in self._l_diag:
                rows.append(br)
                cols.append(br)
            diag = list(range(self.node_diag.shape[0]))
            rows += diag
            cols += diag
            for _mos, _dev, i_d, i_g, i_s, i_b in self.mosfets:
                live = [i for i in (i_d, i_g, i_s, i_b) if i >= 0]
                for a in live:
                    for b in live:
                        rows.append(a)
                        cols.append(b)
            pattern = linalg.SparsePattern(rows, cols, self.n)
            self._sparse_pattern = pattern
        return pattern

    def sparse_solve(
        self,
        jac: np.ndarray,
        rhs: np.ndarray,
        *,
        factor_key: tuple | None = None,
    ) -> np.ndarray:
        """SuperLU solve of an assembled system through the shared pattern.

        ``factor_key`` opts into numeric-factorization reuse and must
        only be passed when ``jac`` is a constant for that key — true
        for MOSFET-free circuits, whose DC Jacobian depends only on
        gmin and whose transient Jacobian only on ``(h, gmin)``.
        """
        if factor_key is not None:
            factor = self._sparse_factors.get(factor_key)
            if factor is None:
                pattern = self.sparse_pattern()
                factor = linalg.SparseFactor(
                    pattern.csc(pattern.gather(jac))
                )
                # Mirrors the transient-cache bound: step halving and
                # gmin stepping visit few distinct keys.
                if len(self._sparse_factors) >= 16:
                    self._sparse_factors.clear()
                self._sparse_factors[factor_key] = factor
            return factor.solve(rhs)
        pattern = self.sparse_pattern()
        return linalg.sparse_solve(
            pattern.csc(pattern.gather(jac)), rhs
        )

    # -- per-call assembly pieces --------------------------------------

    def stamp_mosfet_conduction(
        self, x: np.ndarray, res: np.ndarray, jac: np.ndarray
    ) -> None:
        """Add the nonlinear (channel-current) stamps at bias ``x``."""
        if self.mos_vec is not None:
            self.mos_vec.stamp(x, res, jac)

    def tran_linear(
        self, h: float, gmin: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Constant (Jacobian, previous-state) matrices for step ``h``."""
        key = (h, gmin)
        cached = self._tran_lin_cache.get(key)
        if cached is None:
            jac = self.tran_g + (2.0 / h) * self.cap_couple
            jac += h * self.tran_ih
            jac[self.node_diag, self.node_diag] += gmin
            prev = (2.0 / h) * self.cap_couple + h * self.tran_pv
            prev += self.tran_ps
            # Step halving visits few distinct h values; keep the cache
            # tiny so pathological runs cannot hoard memory.
            if len(self._tran_lin_cache) >= 16:
                self._tran_lin_cache.clear()
            cached = (jac, prev)
            self._tran_lin_cache[key] = cached
        return cached

    def tran_step(
        self,
        x_prev: np.ndarray,
        cap_currents: dict[str, float],
        t: float,
        h: float,
        gmin: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-constant system matrix and constant vector.

        The MOSFET backward-Euler capacitor companions depend only on
        the previous-step bias, so within one time step every Newton
        iteration shares the same ``(A, const)`` with
        ``res = A @ x + const`` for the linear + capacitive part.
        """
        ctx = self._step_ctx
        key = (t, h, gmin)
        if (
            ctx is not None
            and ctx[0] == key
            and np.array_equal(ctx[1], x_prev)
            and ctx[2] == cap_currents
        ):
            return ctx[3], ctx[4]
        jac_lin, prev = self.tran_linear(h, gmin)
        a_step = jac_lin.copy()
        total_prev = prev.copy()
        for mos, device, i_d, i_g, i_s, i_b in self.mosfets:
            ev = _eval_at(x_prev, mos, device, i_d, i_g, i_s, i_b)
            caps = device.capacitances(ev.vgs, ev.vds, ev.vsb)
            for a, b, cval in _mos_cap_pairs(ev, caps, i_d, i_g, i_s, i_b):
                if cval == 0.0:
                    continue
                geq = cval / h
                _stamp_pair(a_step, a, b, geq)
                _stamp_pair(total_prev, a, b, geq)
        const = -(total_prev @ x_prev)
        const += self.tran_src
        for br, element in self.wave_v:
            const[br] -= element.value_at(t)
        for a, b, element in self.wave_i:
            value = element.value_at(t)
            if a >= 0:
                const[a] += value
            if b >= 0:
                const[b] -= value
        for name, a, b in self.cap_hist:
            i_old = cap_currents.get(name, 0.0)
            if i_old:
                if a >= 0:
                    const[a] -= i_old
                if b >= 0:
                    const[b] += i_old
        self._step_ctx = (key, x_prev.copy(), dict(cap_currents), a_step, const)
        return a_step, const


def stamps_for(system: System) -> CompiledStamps:
    """The compiled stamps for ``system``, rebuilt when the circuit moved.

    Value-only edits (R/C value or MOSFET geometry swaps on unchanged
    wiring) take the in-place :meth:`CompiledStamps.refresh` path; any
    structural edit falls back to a full recompile.
    """
    system._sync_devices()
    st = system._compiled
    circuit = system.circuit
    if st is None or (
        (st._circuit_ref is not circuit or st.revision != circuit.revision)
        and not st.refresh(system)
    ):
        st = CompiledStamps(system)
        system._compiled = st
    return st


# -- dispatching entry points ------------------------------------------


def solve_assembled(
    system: System,
    jac: np.ndarray,
    rhs: np.ndarray,
    *,
    kind: str = "dc",
    key: tuple = (),
) -> np.ndarray:
    """Backend-dispatched linear solve for an assembled Newton system.

    Dense mode (and the naive-assembly fallback, which has no scatter
    patterns to reuse) is exactly ``np.linalg.solve``; sparse mode
    routes through the compiled stamps' shared CSC pattern.  ``kind``
    and ``key`` name the matrix for numeric-factorization reuse on
    linear circuits — e.g. ``("dc", gmin)`` or ``("tran", h, gmin)``;
    nonlinear circuits re-factor every call (the Jacobian moves with
    the bias) but still skip the symbolic work.
    """
    if not (_COMPILED and linalg.use_sparse(jac.shape[0])):
        return np.linalg.solve(jac, rhs)
    st = stamps_for(system)
    factor_key = (kind, *key) if not st.mosfets else None
    return st.sparse_solve(jac, rhs, factor_key=factor_key)


def sparse_pattern_for(system: System) -> linalg.SparsePattern:
    """The shared sparsity pattern of ``system``'s compiled stamps."""
    return stamps_for(system).sparse_pattern()


def assemble_dc(
    system: System,
    x: np.ndarray,
    *,
    gmin: float = 1e-12,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Jacobian of the DC equations (compiled fast path)."""
    if not _COMPILED:
        system._sync_devices()
        return assemble_dc_naive(
            system, x, gmin=gmin, source_scale=source_scale
        )
    st = stamps_for(system)
    jac = st.g_lin.copy()
    jac[st.node_diag, st.node_diag] += gmin
    res = jac @ x
    if st.has_src and source_scale != 0.0:
        res += source_scale * st.src_dc
    st.stamp_mosfet_conduction(x, res, jac)
    return res, jac


def capacitance_matrix(system: System, x_op: np.ndarray) -> np.ndarray:
    """The C matrix of ``Y = G + sC`` linearized at ``x_op``."""
    if not _COMPILED:
        system._sync_devices()
        return capacitance_matrix_naive(system, x_op)
    st = stamps_for(system)
    cmat = st.c_lin.copy()
    if st.mos_vec is not None:
        st.mos_vec.stamp_caps(x_op, cmat)
    return cmat


def ac_rhs(system: System) -> np.ndarray:
    """The frequency-independent AC source vector ``b``."""
    if _COMPILED:
        return stamps_for(system).ac_b.copy()
    b = np.zeros(system.size, dtype=complex)
    idx = system.index
    for element in system.circuit:
        if isinstance(element, VoltageSource):
            if element.ac:
                b[system.branch_index[element.name]] += element.ac
        elif isinstance(element, CurrentSource):
            if element.ac:
                a, c = idx(element.np), idx(element.nn)
                if a >= 0:
                    b[a] -= element.ac
                if c >= 0:
                    b[c] += element.ac
    return b


def linearize_ac(
    system: System, x_op: np.ndarray, *, gmin: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G, C, b)`` such that ``(G + jωC) v = b`` for every ω.

    This is the sweep-level cache: AC analysis linearizes the circuit
    once at the operating point and then assembles each frequency point
    with one scale-and-add instead of re-walking the netlist.
    """
    _, g = assemble_dc(system, x_op, gmin=gmin)
    c = capacitance_matrix(system, x_op)
    b = ac_rhs(system)
    return g, c, b


def assemble_ac(
    system: System, x_op: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Complex system ``Y(ω) v = b`` at one frequency."""
    if not _COMPILED:
        system._sync_devices()
        return assemble_ac_naive(system, x_op, omega)
    g, c, b = linearize_ac(system, x_op)
    return g + (1j * omega) * c, b


def assemble_tran(
    system: System,
    x: np.ndarray,
    x_prev: np.ndarray,
    cap_currents: dict[str, float],
    t: float,
    h: float,
    gmin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Transient residual and Jacobian at time ``t`` with step ``h``."""
    if not _COMPILED:
        system._sync_devices()
        return assemble_tran_naive(
            system, x, x_prev, cap_currents, t, h, gmin
        )
    st = stamps_for(system)
    a_step, const = st.tran_step(x_prev, cap_currents, t, h, gmin)
    jac = a_step.copy()
    res = a_step @ x + const
    st.stamp_mosfet_conduction(x, res, jac)
    return res, jac
