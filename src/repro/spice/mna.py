"""Modified nodal analysis assembly (reference implementations).

The :class:`System` maps circuit nodes and branch elements to unknown
indices; the assembly functions build the Newton residual/Jacobian for
DC and transient and the complex admittance system for AC.

Conventions: the residual ``f`` is the sum of currents *leaving* each
node (KCL) plus one row per branch element (voltage sources, VCVS,
inductors) enforcing its branch equation.  The Jacobian ``J`` is exact
for all elements including MOSFETs, whose partial derivatives come from
the analytic small-signal model.

This module holds the *naive* per-element stamping loops.  They are the
readable reference semantics and the A/B baseline; the production hot
path lives in :mod:`repro.spice.engine`, which precompiles all linear
stamps once per circuit and re-stamps only the MOSFETs per call.  The
dispatching :func:`assemble_dc` / :func:`assemble_ac` /
:func:`capacitance_matrix` / :func:`assemble_tran` names (re-exported
here for backwards compatibility) pick the compiled path unless it has
been disabled via :func:`repro.spice.engine.set_compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..devices import MosDevice
from ..errors import SimulationError
from .netlist import (
    Capacitor,
    Circuit,
    CurrentSource,
    GROUND_NAMES,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)

__all__ = [
    "System",
    "MosEval",
    "evaluate_mosfet",
    "system_for_op",
    "assemble_dc",
    "assemble_ac",
    "capacitance_matrix",
    "assemble_tran",
    "assemble_dc_naive",
    "assemble_ac_naive",
    "capacitance_matrix_naive",
    "assemble_tran_naive",
]


class System:
    """Unknown-index bookkeeping for one circuit.

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage-defined element (V, E, L), in netlist order.

    A ``System`` is intended to be built once per circuit *topology* and
    reused across solves: the compiled stamp cache (see
    :mod:`repro.spice.engine`) hangs off it and tracks the circuit's
    edit revision, and :meth:`rebind` lets optimization loops move an
    existing system onto a structurally identical circuit without
    re-validating and re-indexing the netlist.  Each transistor's
    :class:`~repro.devices.MosDevice` is built once and rebuilt only
    when that transistor's element object changes, so a sizing loop
    that edits one device pays for one.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(circuit.nodes())
        }
        self.n_nodes = len(self.node_index)
        self.branch_index: dict[str, int] = {
            e.name: self.n_nodes + k
            for k, e in enumerate(circuit.branch_elements())
        }
        self.size = self.n_nodes + len(self.branch_index)
        # MosDevice objects are immutable: one per transistor, kept
        # with the element object it was built from.
        self._devices: dict[str, MosDevice] = {}
        self._device_sources: dict[str, Mosfet] = {}
        self._bind_devices()
        #: Compiled stamp cache, managed by :mod:`repro.spice.engine`.
        self._compiled = None

    def index(self, node: str) -> int:
        """Unknown index of a node; -1 for ground."""
        if node in GROUND_NAMES:
            return -1
        try:
            return self.node_index[node]
        except KeyError:
            raise SimulationError(
                f"{self.circuit.title}: unknown node {node!r}"
            ) from None

    def voltage(self, x: np.ndarray, node: str) -> float:
        idx = self.index(node)
        return 0.0 if idx < 0 else float(x[idx])

    def device(self, name: str) -> MosDevice:
        return self._devices[name]

    # -- reuse ----------------------------------------------------------

    def _sync_devices(self) -> None:
        """Refresh the device cache after in-place circuit edits.

        ``Circuit.replace`` on a MOSFET bumps the topology revision;
        the cached :class:`MosDevice` objects must follow or stamps
        would keep using the old geometry.
        """
        if self._topo_revision != self.circuit.topology_revision:
            self._bind_devices()

    def _bind_devices(self) -> None:
        """Point the device cache at the current circuit's transistors.

        Builds a :class:`MosDevice` only for a transistor whose element
        object is not the one its cached device was built from; a
        device is a pure function of its element, so the others stand.
        """
        devices = self._devices
        sources = self._device_sources
        for m in self.circuit.mosfets():
            if sources.get(m.name) is not m:
                devices[m.name] = m.device
                sources[m.name] = m
        self._topo_revision = self.circuit.topology_revision

    def structure_matches(self, circuit: Circuit) -> bool:
        """True when ``circuit`` shares this system's element structure.

        Structure means: same element names, classes and node wiring in
        the same order — exactly what the node/branch indexing depends
        on.  Element *values* (including MOSFET geometry) may differ.
        """
        ours = self.circuit.elements
        theirs = circuit.elements
        if len(ours) != len(theirs):
            return False
        for a, b in zip(ours, theirs):
            if a is b:
                continue
            if (
                type(a) is not type(b)
                or a.name != b.name
                or a.nodes != b.nodes
            ):
                return False
        return True

    def rebind(self, circuit: Circuit) -> "System":
        """Reuse this system for a structurally identical circuit.

        Returns ``self`` (devices refreshed) when the structure
        matches, else a freshly built :class:`System`.  This is the
        optimizer fast path: candidate circuits in a sizing loop share
        one topology, so validation and node indexing happen once
        instead of per evaluation.  Compiled stamps are kept — the next
        ``stamps_for`` call routes value-only edits (R/C values, MOSFET
        geometry, source ``dc`` retargets) through
        :meth:`~repro.spice.engine.CompiledStamps.refresh`, which falls
        back to a full recompile for anything it cannot prove
        bit-identical.
        """
        if circuit is self.circuit:
            return self
        if not self.structure_matches(circuit):
            return System(circuit)
        self.circuit = circuit
        self._bind_devices()
        return self


def system_for_op(circuit: Circuit, op_system: System) -> System:
    """The system a small-signal analysis should assemble ``circuit`` with.

    When the operating point was solved on this very circuit object,
    the solver's system (with its compiled-stamp caches) is reused.
    Otherwise the bias vector is only meaningful if ``circuit`` is
    structurally identical — same element classes, names and wiring —
    to the circuit it was solved on; a matching unknown-vector *size*
    alone proves nothing, and assembling a different same-size topology
    at a foreign bias silently produces wrong sweeps.  Raises
    :class:`~repro.errors.SimulationError` on a structure mismatch.

    The returned system is always freshly built in the mismatching-
    object case (never ``rebind``), so the caller's operating point
    keeps its own system untouched.
    """
    if op_system.circuit is circuit:
        return op_system
    if not op_system.structure_matches(circuit):
        raise SimulationError(
            f"{circuit.title}: operating point was solved on a "
            f"structurally different circuit "
            f"({op_system.circuit.title}); re-solve the DC point for "
            "this circuit",
            context={
                "circuit": circuit.title,
                "op_circuit": op_system.circuit.title,
            },
        )
    return System(circuit)


@dataclass(frozen=True)
class MosEval:
    """One MOSFET's linearization at a bias point.

    ``i_dprime`` is the current entering the *effective* drain terminal
    ``dprime`` (after polarity normalization and source/drain swap);
    the g-values are its partial derivatives with respect to the
    effective drain, gate, effective source and bulk node voltages.
    """

    dprime: str
    sprime: str
    gate: str
    bulk: str
    i_dprime: float
    g_dd: float
    g_dg: float
    g_ds: float
    g_db: float
    ids_normalized: float
    vgs: float
    vds: float
    vsb: float
    swapped: bool


def evaluate_mosfet(
    mos: Mosfet, device: MosDevice, vd: float, vg: float, vs: float, vb: float
) -> MosEval:
    """Linearize a MOSFET at the given terminal voltages.

    Handles polarity (PMOS voltages are sign-flipped into NMOS
    convention) and reverse operation (drain/source swap when
    ``sign*(vd-vs) < 0``); the returned stamp is expressed directly in
    terms of the effective terminals so the caller needs no sign logic.
    """
    sign = mos.model.polarity.sign
    if sign * (vd - vs) >= 0:
        dprime, sprime = mos.nd, mos.ns
        vdp, vsp = vd, vs
        swapped = False
    else:
        dprime, sprime = mos.ns, mos.nd
        vdp, vsp = vs, vd
        swapped = True
    vgs = sign * (vg - vsp)
    vds = sign * (vdp - vsp)
    vsb = sign * (vsp - vb)
    ids = device.ids(vgs, vds, vsb)
    gm = device.gm(vgs, vds, vsb)
    gds = device.gds(vgs, vds, vsb)
    gmb = device.gmb(vgs, vds, vsb)
    # I(D') = sign * ids(vgs, vds, vsb); chain rule collapses the signs:
    #   dI/dVd' = gds, dI/dVg = gm, dI/dVb = gmb,
    #   dI/dVs' = -(gm + gds + gmb).
    return MosEval(
        dprime=dprime,
        sprime=sprime,
        gate=mos.ng,
        bulk=mos.nb,
        i_dprime=sign * ids,
        g_dd=gds,
        g_dg=gm,
        g_ds=-(gm + gds + gmb),
        g_db=gmb,
        ids_normalized=ids,
        vgs=vgs,
        vds=vds,
        vsb=vsb,
        swapped=swapped,
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
    :func:`assemble_ac`.
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


# The dispatching entry points (compiled fast path with a naive
# fallback) live in the engine module; re-export them lazily so
# existing ``from repro.spice.mna import assemble_dc`` imports keep
# working without creating an import cycle (engine imports this
# module's naive implementations at load time).
_ENGINE_EXPORTS = frozenset(
    {"assemble_dc", "assemble_ac", "capacitance_matrix", "assemble_tran"}
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
