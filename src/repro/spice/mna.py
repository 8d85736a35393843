"""Modified nodal analysis bookkeeping.

The :class:`System` maps circuit nodes and branch elements to unknown
indices, and :func:`evaluate_mosfet` linearizes one transistor at a
bias point.  The assembly itself — the DC/transient residual and
Jacobian, the linearization ``G + jωC`` for AC — lives in
:mod:`repro.spice.engine`, which compiles every linear stamp once per
circuit and re-stamps only the MOSFETs per call.

Conventions: the residual ``f`` is the sum of currents *leaving* each
node (KCL) plus one row per branch element (voltage sources, VCVS,
inductors) enforcing its branch equation.  The Jacobian ``J`` is exact
for all elements including MOSFETs, whose partial derivatives come from
the analytic small-signal model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..devices import MosDevice, Region
from ..errors import SimulationError
from .netlist import GROUND_NAMES, Circuit, Mosfet

__all__ = [
    "System",
    "MosEval",
    "evaluate_mosfet",
    "system_for_op",
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
    ``region`` is the operating region the drain law took at the
    polarity-normalized ``vgs``, ``vds`` and ``vsb``.
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
    region: Region


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
    law = device.law(vds, vsb)
    region, ids, gm, gds = law.evaluate(vgs)
    gmb = law.body_factor() * gm
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
        region=region,
    )
