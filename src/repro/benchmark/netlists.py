"""Parametric benchmark netlist generators (100-2000 MNA unknowns).

The sparse-solver scaling curve needs circuits whose size is an input,
not an artifact of whatever op-amp happens to be lying around.  Two
families cover the structures module-level analog netlists exhibit:

* :func:`ladder_circuit` — a driven RC ladder: series resistors with
  shunt capacitors, the near-banded (tridiagonal) pattern of
  interconnect and filter chains, which
  ``benchmarks/bench_sparse_ac.py`` times at 50, 200 and 1000 unknowns.
* :func:`module_chain_circuit` — a cascade of linear gain modules
  (transconductance stage into an RC load, resistively coupled to the
  next stage), the slightly denser block-bidiagonal pattern of
  system-level analog signal paths (APE's module-chain use case).
  Linear controlled sources keep Newton iteration counts flat, so a
  2000-unknown chain still solves in one step per frequency point.

Both generators take the *total MNA unknown count* and hit it exactly
(nodes plus the driving source's branch current), so benchmark sizes
read directly as matrix dimensions.  ``benchmarks/gen_netlists.py``
wraps them in a CLI that writes SPICE decks for external tools.
"""

from __future__ import annotations

__all__ = [
    "LADDER_R_OHMS",
    "LADDER_C_FARADS",
    "ladder_circuit",
    "module_chain_circuit",
]

#: Per-section values of the RC ladder: 100 ohm series, 1 pF shunt
#: puts the interesting corner of the sweep inside the benchmark's
#: 1 kHz - 1 GHz window.
LADDER_R_OHMS = 100.0
LADDER_C_FARADS = 1e-12

#: MNA unknowns contributed by every module-chain gain stage: the
#: stage's output node and the coupling node feeding the next stage.
_NODES_PER_MODULE = 2


def ladder_circuit(n_unknowns: int):
    """A driven RC ladder with exactly ``n_unknowns`` MNA unknowns.

    One voltage source adds one node and one branch unknown, so the
    ladder gets ``n_unknowns - 2`` internal nodes (one per RC
    section).  Requires ``n_unknowns >= 3``.
    """
    from ..spice import Circuit

    if n_unknowns < 3:
        raise ValueError(
            f"RC ladder needs >= 3 unknowns, got {n_unknowns}"
        )
    sections = n_unknowns - 2
    ckt = Circuit(f"rc-ladder-{n_unknowns}")
    ckt.v("in", "0", dc=1.0, ac=1.0)
    prev = "in"
    for k in range(1, sections + 1):
        node = f"m{k}"
        ckt.r(prev, node, LADDER_R_OHMS)
        ckt.c(node, "0", LADDER_C_FARADS)
        prev = node
    return ckt


def module_chain_circuit(
    n_unknowns: int,
    *,
    gm: float = 1e-3,
    r_load: float = 800.0,
    c_load: float = 2e-12,
    r_couple: float = 500.0,
):
    """A cascade of linear gain modules with ``n_unknowns`` unknowns.

    Each module is a transconductance stage (:class:`~repro.spice`
    VCCS, adds no extra unknowns) driving an RC-loaded output node,
    resistively coupled into the next module's input node — two nodes
    per module.  The drive source contributes two unknowns, and a
    plain RC section pads the chain when the requested size is odd, so
    any ``n_unknowns >= 4`` is hit exactly.

    The default per-stage DC gain ``gm * r_load = 0.8`` keeps node
    voltages bounded for arbitrarily long chains (a gain above one
    would grow geometrically and wreck the Newton residual scale by
    stage ~50), and linearity keeps the DC operating point a single
    Newton step.
    """
    from ..spice import Circuit

    if n_unknowns < 4:
        raise ValueError(
            f"module chain needs >= 4 unknowns, got {n_unknowns}"
        )
    modules, pad = divmod(n_unknowns - 2, _NODES_PER_MODULE)
    ckt = Circuit(f"module-chain-{n_unknowns}")
    ckt.v("in", "0", dc=0.1, ac=1.0)
    prev = "in"
    for k in range(1, modules + 1):
        out, coup = f"o{k}", f"x{k}"
        # gm stage: current into the output node, inverting (SPICE
        # convention: positive gm sinks current from np when cp rises).
        ckt.g(out, "0", prev, "0", gm)
        ckt.r(out, "0", r_load)
        ckt.c(out, "0", c_load)
        ckt.r(out, coup, r_couple)
        ckt.c(coup, "0", c_load)
        prev = coup
    if pad:
        ckt.r(prev, "pad", LADDER_R_OHMS)
        ckt.c("pad", "0", LADDER_C_FARADS)
    return ckt
