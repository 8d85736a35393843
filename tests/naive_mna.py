"""The naive per-element MNA assembly: the compiled engine's oracle.

Each function walks the netlist element by element, in pure Python,
and stamps every element's contribution into a fresh matrix: the
readable reference semantics of DC, AC, the capacitance matrix and the
transient companion models.  :mod:`repro.spice.engine` compiles the
linear stamps once and re-stamps only the MOSFETs;
``tests/test_engine_equivalence.py`` holds the two to ``rtol=1e-12``
and runs whole analyses on these loops.

Conventions: the residual ``f`` is the sum of currents *leaving* each
node (KCL) plus one row per branch element (voltage sources, VCVS,
inductors) enforcing its branch equation.  The Jacobian ``J`` is exact
for all elements including MOSFETs, whose partial derivatives come from
the analytic small-signal model.
"""

from __future__ import annotations

import numpy as np

from repro.spice.mna import System, evaluate_mosfet
from repro.spice.netlist import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)


def _add(matrix: np.ndarray, row: int, col: int, value: float) -> None:
    if row >= 0 and col >= 0:
        matrix[row, col] += value


def _addf(vector: np.ndarray, row: int, value: float) -> None:
    if row >= 0:
        vector[row] += value


def assemble_dc_naive(
    system: System,
    x: np.ndarray,
    *,
    gmin: float = 1e-12,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``f(x)`` and Jacobian ``J(x)`` for the DC equations.

    ``gmin`` adds a small conductance from every node to ground
    (convergence aid); ``source_scale`` multiplies every independent
    source (source-stepping homotopy).
    """
    n = system.size
    jac = np.zeros((n, n))
    res = np.zeros(n)
    idx = system.index
    for k in range(system.n_nodes):
        jac[k, k] += gmin
        res[k] += gmin * x[k]
    for element in system.circuit:
        if isinstance(element, Resistor):
            g = 1.0 / element.value
            a, b = idx(element.n1), idx(element.n2)
            va = x[a] if a >= 0 else 0.0
            vb = x[b] if b >= 0 else 0.0
            current = g * (va - vb)
            _addf(res, a, current)
            _addf(res, b, -current)
            _add(jac, a, a, g)
            _add(jac, a, b, -g)
            _add(jac, b, a, -g)
            _add(jac, b, b, g)
        elif isinstance(element, Capacitor):
            continue  # open at DC
        elif isinstance(element, Inductor):
            # Short at DC, modelled through its branch current.
            a, b = idx(element.n1), idx(element.n2)
            br = system.branch_index[element.name]
            i_br = x[br]
            _addf(res, a, i_br)
            _addf(res, b, -i_br)
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            va = x[a] if a >= 0 else 0.0
            vb = x[b] if b >= 0 else 0.0
            res[br] += va - vb
            _add(jac, br, a, 1.0)
            _add(jac, br, b, -1.0)
        elif isinstance(element, VoltageSource):
            a, b = idx(element.np), idx(element.nn)
            br = system.branch_index[element.name]
            i_br = x[br]
            _addf(res, a, i_br)
            _addf(res, b, -i_br)
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            va = x[a] if a >= 0 else 0.0
            vb = x[b] if b >= 0 else 0.0
            res[br] += va - vb - source_scale * element.dc
            _add(jac, br, a, 1.0)
            _add(jac, br, b, -1.0)
        elif isinstance(element, CurrentSource):
            a, b = idx(element.np), idx(element.nn)
            value = source_scale * element.dc
            _addf(res, a, value)
            _addf(res, b, -value)
        elif isinstance(element, Vcvs):
            a, b = idx(element.np), idx(element.nn)
            c, d = idx(element.cp), idx(element.cn)
            br = system.branch_index[element.name]
            i_br = x[br]
            _addf(res, a, i_br)
            _addf(res, b, -i_br)
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            va = x[a] if a >= 0 else 0.0
            vb = x[b] if b >= 0 else 0.0
            vc = x[c] if c >= 0 else 0.0
            vd = x[d] if d >= 0 else 0.0
            res[br] += va - vb - element.gain * (vc - vd)
            _add(jac, br, a, 1.0)
            _add(jac, br, b, -1.0)
            _add(jac, br, c, -element.gain)
            _add(jac, br, d, element.gain)
        elif isinstance(element, Vccs):
            a, b = idx(element.np), idx(element.nn)
            c, d = idx(element.cp), idx(element.cn)
            vc = x[c] if c >= 0 else 0.0
            vd = x[d] if d >= 0 else 0.0
            current = element.gm * (vc - vd)
            _addf(res, a, current)
            _addf(res, b, -current)
            _add(jac, a, c, element.gm)
            _add(jac, a, d, -element.gm)
            _add(jac, b, c, -element.gm)
            _add(jac, b, d, element.gm)
        elif isinstance(element, Mosfet):
            ev = evaluate_mosfet(
                element,
                system.device(element.name),
                system.voltage(x, element.nd),
                system.voltage(x, element.ng),
                system.voltage(x, element.ns),
                system.voltage(x, element.nb),
            )
            dp, sp = idx(ev.dprime), idx(ev.sprime)
            g, bk = idx(ev.gate), idx(ev.bulk)
            _addf(res, dp, ev.i_dprime)
            _addf(res, sp, -ev.i_dprime)
            for col, gval in (
                (dp, ev.g_dd),
                (g, ev.g_dg),
                (sp, ev.g_ds),
                (bk, ev.g_db),
            ):
                _add(jac, dp, col, gval)
                _add(jac, sp, col, -gval)
        else:  # pragma: no cover - exhaustive over Element union
            raise TypeError(f"unknown element type {type(element).__name__}")
    return res, jac


def assemble_ac_naive(
    system: System, x_op: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Complex system ``Y(omega) v = b`` linearized at the OP ``x_op``.

    ``Y = G + j*omega*C`` where ``G`` is the DC Jacobian at the operating
    point and ``C`` collects explicit capacitors, MOSFET Meyer/junction
    capacitances and inductor branch equations.  ``b`` holds the AC
    source magnitudes.
    """
    _, g_matrix = assemble_dc_naive(system, x_op)
    n = system.size
    y = g_matrix.astype(complex)
    b = np.zeros(n, dtype=complex)
    idx = system.index
    jw = 1j * omega
    for element in system.circuit:
        if isinstance(element, Capacitor):
            a, c = idx(element.n1), idx(element.n2)
            yc = jw * element.value
            _add(y, a, a, yc)
            _add(y, a, c, -yc)
            _add(y, c, a, -yc)
            _add(y, c, c, yc)
        elif isinstance(element, Inductor):
            br = system.branch_index[element.name]
            y[br, br] += -jw * element.value
        elif isinstance(element, VoltageSource):
            if element.ac:
                b[system.branch_index[element.name]] += element.ac
        elif isinstance(element, CurrentSource):
            if element.ac:
                a, c = idx(element.np), idx(element.nn)
                _addf(b, a, -element.ac)
                _addf(b, c, element.ac)
        elif isinstance(element, Mosfet):
            ev = evaluate_mosfet(
                element,
                system.device(element.name),
                system.voltage(x_op, element.nd),
                system.voltage(x_op, element.ng),
                system.voltage(x_op, element.ns),
                system.voltage(x_op, element.nb),
            )
            caps = system.device(element.name).capacitances(
                ev.vgs, ev.vds, ev.vsb
            )
            pairs = [
                (ev.gate, ev.sprime, caps["cgs"]),
                (ev.gate, ev.dprime, caps["cgd"]),
                (ev.gate, ev.bulk, caps["cgb"]),
                (ev.dprime, ev.bulk, caps["cdb"]),
                (ev.sprime, ev.bulk, caps["csb"]),
            ]
            for n1, n2, cval in pairs:
                a, c = idx(n1), idx(n2)
                yc = jw * cval
                _add(y, a, a, yc)
                _add(y, a, c, -yc)
                _add(y, c, a, -yc)
                _add(y, c, c, yc)
    return y, b


def capacitance_matrix_naive(system: System, x_op: np.ndarray) -> np.ndarray:
    """The real C matrix such that ``Y = G + s*C`` (AWE needs it alone).

    Inductor branch rows get ``-L`` on the diagonal, matching
    :func:`assemble_ac_naive`.
    """
    n = system.size
    cmat = np.zeros((n, n))
    idx = system.index
    for element in system.circuit:
        if isinstance(element, Capacitor):
            a, b = idx(element.n1), idx(element.n2)
            _add(cmat, a, a, element.value)
            _add(cmat, a, b, -element.value)
            _add(cmat, b, a, -element.value)
            _add(cmat, b, b, element.value)
        elif isinstance(element, Inductor):
            br = system.branch_index[element.name]
            cmat[br, br] += -element.value
        elif isinstance(element, Mosfet):
            ev = evaluate_mosfet(
                element,
                system.device(element.name),
                system.voltage(x_op, element.nd),
                system.voltage(x_op, element.ng),
                system.voltage(x_op, element.ns),
                system.voltage(x_op, element.nb),
            )
            caps = system.device(element.name).capacitances(
                ev.vgs, ev.vds, ev.vsb
            )
            pairs = [
                (ev.gate, ev.sprime, caps["cgs"]),
                (ev.gate, ev.dprime, caps["cgd"]),
                (ev.gate, ev.bulk, caps["cgb"]),
                (ev.dprime, ev.bulk, caps["cdb"]),
                (ev.sprime, ev.bulk, caps["csb"]),
            ]
            for n1, n2, cval in pairs:
                a, b = idx(n1), idx(n2)
                _add(cmat, a, a, cval)
                _add(cmat, a, b, -cval)
                _add(cmat, b, a, -cval)
                _add(cmat, b, b, cval)
    return cmat


def assemble_tran_naive(
    system: System,
    x: np.ndarray,
    x_prev: np.ndarray,
    cap_currents: dict[str, float],
    t: float,
    h: float,
    gmin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Jacobian at time ``t`` with step ``h``.

    Explicit capacitors use the trapezoidal companion model; MOSFET
    parasitic capacitances use backward Euler at the previous-step bias;
    inductors use the trapezoidal branch companion.
    """
    n = system.size
    jac = np.zeros((n, n))
    res = np.zeros(n)
    idx = system.index

    def volt(vec: np.ndarray, node_idx: int) -> float:
        return float(vec[node_idx]) if node_idx >= 0 else 0.0

    for k in range(system.n_nodes):
        jac[k, k] += gmin
        res[k] += gmin * x[k]
    for element in system.circuit:
        if isinstance(element, Resistor):
            g = 1.0 / element.value
            a, b = idx(element.n1), idx(element.n2)
            current = g * (volt(x, a) - volt(x, b))
            _addf(res, a, current)
            _addf(res, b, -current)
            _add(jac, a, a, g)
            _add(jac, a, b, -g)
            _add(jac, b, a, -g)
            _add(jac, b, b, g)
        elif isinstance(element, Capacitor):
            if element.value <= 0.0:
                continue
            a, b = idx(element.n1), idx(element.n2)
            geq = 2.0 * element.value / h
            v_now = volt(x, a) - volt(x, b)
            v_old = volt(x_prev, a) - volt(x_prev, b)
            i_old = cap_currents.get(element.name, 0.0)
            current = geq * (v_now - v_old) - i_old
            _addf(res, a, current)
            _addf(res, b, -current)
            _add(jac, a, a, geq)
            _add(jac, a, b, -geq)
            _add(jac, b, a, -geq)
            _add(jac, b, b, geq)
        elif isinstance(element, Inductor):
            a, b = idx(element.n1), idx(element.n2)
            br = system.branch_index[element.name]
            i_br = x[br]
            _addf(res, a, i_br)
            _addf(res, b, -i_br)
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            # Trapezoidal: i_n = i_prev + (h/2L)(v_n + v_prev).
            v_now = volt(x, a) - volt(x, b)
            v_old = volt(x_prev, a) - volt(x_prev, b)
            i_old = x_prev[br]
            coeff = h / (2.0 * element.value)
            res[br] += i_br - i_old - coeff * (v_now + v_old)
            jac[br, br] += 1.0
            _add(jac, br, a, -coeff)
            _add(jac, br, b, coeff)
        elif isinstance(element, VoltageSource):
            a, b = idx(element.np), idx(element.nn)
            br = system.branch_index[element.name]
            i_br = x[br]
            _addf(res, a, i_br)
            _addf(res, b, -i_br)
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            res[br] += volt(x, a) - volt(x, b) - element.value_at(t)
            _add(jac, br, a, 1.0)
            _add(jac, br, b, -1.0)
        elif isinstance(element, CurrentSource):
            a, b = idx(element.np), idx(element.nn)
            value = element.value_at(t)
            _addf(res, a, value)
            _addf(res, b, -value)
        elif isinstance(element, Vcvs):
            a, b = idx(element.np), idx(element.nn)
            c, d = idx(element.cp), idx(element.cn)
            br = system.branch_index[element.name]
            _addf(res, a, x[br])
            _addf(res, b, -x[br])
            _add(jac, a, br, 1.0)
            _add(jac, b, br, -1.0)
            res[br] += (
                volt(x, a)
                - volt(x, b)
                - element.gain * (volt(x, c) - volt(x, d))
            )
            _add(jac, br, a, 1.0)
            _add(jac, br, b, -1.0)
            _add(jac, br, c, -element.gain)
            _add(jac, br, d, element.gain)
        elif isinstance(element, Vccs):
            a, b = idx(element.np), idx(element.nn)
            c, d = idx(element.cp), idx(element.cn)
            current = element.gm * (volt(x, c) - volt(x, d))
            _addf(res, a, current)
            _addf(res, b, -current)
            _add(jac, a, c, element.gm)
            _add(jac, a, d, -element.gm)
            _add(jac, b, c, -element.gm)
            _add(jac, b, d, element.gm)
        elif isinstance(element, Mosfet):
            device = system.device(element.name)
            ev = evaluate_mosfet(
                element,
                device,
                system.voltage(x, element.nd),
                system.voltage(x, element.ng),
                system.voltage(x, element.ns),
                system.voltage(x, element.nb),
            )
            dp, sp = idx(ev.dprime), idx(ev.sprime)
            g, bk = idx(ev.gate), idx(ev.bulk)
            _addf(res, dp, ev.i_dprime)
            _addf(res, sp, -ev.i_dprime)
            for col, gval in (
                (dp, ev.g_dd),
                (g, ev.g_dg),
                (sp, ev.g_ds),
                (bk, ev.g_db),
            ):
                _add(jac, dp, col, gval)
                _add(jac, sp, col, -gval)
            # Backward-Euler companions for the bias-dependent caps,
            # evaluated at the previous-step bias for stability.
            ev_prev = evaluate_mosfet(
                element,
                device,
                system.voltage(x_prev, element.nd),
                system.voltage(x_prev, element.ng),
                system.voltage(x_prev, element.ns),
                system.voltage(x_prev, element.nb),
            )
            caps = device.capacitances(ev_prev.vgs, ev_prev.vds, ev_prev.vsb)
            pairs = [
                (ev_prev.gate, ev_prev.sprime, caps["cgs"]),
                (ev_prev.gate, ev_prev.dprime, caps["cgd"]),
                (ev_prev.gate, ev_prev.bulk, caps["cgb"]),
                (ev_prev.dprime, ev_prev.bulk, caps["cdb"]),
                (ev_prev.sprime, ev_prev.bulk, caps["csb"]),
            ]
            for n1, n2, cval in pairs:
                if cval == 0.0:
                    continue
                a, b = idx(n1), idx(n2)
                geq = cval / h
                v_now = volt(x, a) - volt(x, b)
                v_old = volt(x_prev, a) - volt(x_prev, b)
                current = geq * (v_now - v_old)
                _addf(res, a, current)
                _addf(res, b, -current)
                _add(jac, a, a, geq)
                _add(jac, a, b, -geq)
                _add(jac, b, a, -geq)
                _add(jac, b, b, geq)
    return res, jac
