"""DC operating-point solution.

Newton-Raphson with per-step voltage damping; when plain Newton fails it
falls back to gmin stepping and then source stepping, the same ladder a
production SPICE walks.  On top of the ladder an optional
:class:`~repro.runtime.retry.RetryPolicy` re-runs the whole ladder from
deterministically jittered initial guesses with an exponentially more
forgiving gmin relaxation, so transient non-convergence inside a
synthesis loop is retried instead of aborting the run.  The solved
point is returned as an :class:`OperatingPointResult` exposing node
voltages, branch currents and per-MOSFET bias details.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConvergenceError
from ..runtime import faults
from ..runtime.retry import RetryPolicy
from .engine import assemble_dc, solve_assembled
from .mna import System, evaluate_mosfet
from .netlist import Circuit, Mosfet, VoltageSource

__all__ = ["OperatingPointResult", "dc_operating_point", "dc_sweep"]

#: Maximum Newton voltage update per iteration [V].
MAX_STEP = 0.5
#: Convergence thresholds.
VOLTAGE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
#: Step-stall admission for the residual gate: an ill-conditioned
#: Jacobian pins |dx| at an amplified noise floor that can sit just
#: above ``VOLTAGE_TOL``; steps below this (still microvolt-tight)
#: bound may converge on the residual test alone.
DX_STALL_TOL = 1e-6


@dataclass
class MosfetOp:
    """Per-transistor bias summary at the solved operating point."""

    name: str
    ids: float
    vgs: float
    vds: float
    vsb: float
    region: str
    gm: float
    gds: float
    swapped: bool


@dataclass
class OperatingPointResult:
    """Solved DC operating point of a circuit."""

    system: System
    x: np.ndarray
    iterations: int
    gmin_used: float
    voltages: dict[str, float] = field(default_factory=dict)
    branch_currents: dict[str, float] = field(default_factory=dict)
    _mosfet_ops: dict[str, MosfetOp] | None = field(default=None, repr=False)

    @property
    def mosfet_ops(self) -> dict[str, MosfetOp]:
        """Per-transistor bias summaries, linearized on first access.

        Building the table costs four device-model evaluations per
        MOSFET, so the synthesis inner loop (which only reads node
        voltages and hands the solved ``x`` to AWE) never pays for it.
        """
        if self._mosfet_ops is None:
            self._mosfet_ops = _mosfet_op_table(self.system, self.x)
        return self._mosfet_ops

    def v(self, node: str) -> float:
        """Voltage of a node [V] (ground -> 0)."""
        return self.system.voltage(self.x, node)

    def i(self, source_name: str) -> float:
        """Branch current through a V/E/L element [A]."""
        return self.branch_currents[source_name]

    def supply_current(self, source_name: str) -> float:
        """Magnitude of the current delivered by a supply source [A]."""
        return abs(self.branch_currents[source_name])

    def saturation_fraction(self) -> float:
        """Fraction of MOSFETs in saturation — a design-health metric."""
        if not self.mosfet_ops:
            return 1.0
        sat = sum(1 for op in self.mosfet_ops.values() if op.region == "saturation")
        return sat / len(self.mosfet_ops)


@dataclass(frozen=True)
class Border:
    """The extra unknown and equation of a bordered Newton solve.

    The unknown is a drive ``v`` that enters the DC residual affinely,
    as ``v * column``; the equation pins unknown ``index`` to
    ``target``.  The drive moves at most ``max_step`` per iteration and
    must stay within ``±span``.
    """

    column: np.ndarray
    index: int
    target: float
    span: float
    max_step: float

    def step(
        self,
        system: System,
        jac: np.ndarray,
        res: np.ndarray,
        x: np.ndarray,
        gmin: float,
    ) -> np.ndarray:
        """The undamped step ``(dx, dv)`` by block elimination.

        One factorization of the plain Jacobian solves ``J a = -F`` and
        ``J b = column`` together; the border row then fixes ``dv`` and
        ``dx = a - dv b``, so either solver backend serves the solve.
        """
        rhs = np.column_stack((-res, self.column))
        a, b = solve_assembled(system, jac, rhs, kind="dc", key=(gmin,)).T
        slope = float(b[self.index])
        if slope == 0.0:
            raise np.linalg.LinAlgError("border row is singular")
        dv = (x[self.index] + a[self.index] - self.target) / slope
        return np.append(a - dv * b, dv)


def _newton(
    system: System,
    x0: np.ndarray,
    *,
    gmin: float,
    source_scale: float = 1.0,
    max_iter: int = 150,
    border: Border | None = None,
) -> tuple[np.ndarray, int] | None:
    """One Newton run; returns (solution, iterations) or None.

    With a ``border`` the unknown vector (``x0`` and the solution)
    carries the border's drive as one entry after the MNA unknowns.
    The drive is damped and gated like a node voltage, with its step
    measured against ``border.max_step``, and the run fails as soon as
    the drive leaves ``±border.span``.
    """
    x = x0.copy()
    mna = x if border is None else x[:-1]
    for iteration in range(1, max_iter + 1):
        res, jac = assemble_dc(
            system, mna, gmin=gmin, source_scale=source_scale
        )
        try:
            if border is None:
                dx = solve_assembled(system, jac, -res, kind="dc", key=(gmin,))
            else:
                res += x[-1] * border.column
                dx = border.step(system, jac, res, mna, gmin)
        except np.linalg.LinAlgError:
            return None
        # Reductions go through ndarray methods: the same ufunc reduce
        # as the np.max/np.all functions, without their wrapper cost.
        if not np.isfinite(dx).all():
            return None
        max_dx = float(np.abs(dx[: system.n_nodes]).max(initial=0.0))
        if border is not None:
            max_dx = max(max_dx, abs(dx[-1]) * (MAX_STEP / border.max_step))
        if max_dx > MAX_STEP:
            dx *= MAX_STEP / max_dx
        x += dx
        if border is not None and abs(x[-1]) > border.span:
            return None
        # SPICE-style reltol·|v| + abstol step gate: an ill-conditioned
        # Jacobian amplifies the floating-point residual floor into a
        # fixed dx noise floor proportional to the solution scale, so a
        # purely absolute tolerance can stall on circuits that are in
        # fact converged.
        v_scale = float(np.abs(x[: system.n_nodes]).max(initial=0.0))
        tight = max_dx < VOLTAGE_TOL * (1.0 + v_scale)
        if tight or max_dx < DX_STALL_TOL * (1.0 + v_scale):
            res_norm = float(np.abs(res).max())
            # Relative residual check against the circuit's own current
            # scale: |J|·|x| bounds the largest stamped current, so a
            # kiloamp circuit is not held to nanoamp residuals (and a
            # nanoamp circuit keeps the absolute RESIDUAL_TOL floor).
            i_scale = float((np.abs(jac) @ np.abs(mna)).max(initial=0.0))
            if res_norm < RESIDUAL_TOL * (1.0 + i_scale):
                # The residual is the ground truth (KCL satisfied at
                # x); a dx held just above VOLTAGE_TOL by a badly
                # conditioned Jacobian (e.g. megaohm-by-ohm resistor
                # spreads) must not veto a machine-precision residual,
                # hence the looser DX_STALL_TOL admission above.
                return x, iteration
            if not tight:
                continue
            # A small full-vector step with a modest absolute residual
            # also counts as converged (branch currents included); the
            # node-voltage check above already implies the gate.
            x_scale = float(np.abs(x).max(initial=0.0))
            if res_norm < 1e-6 and float(
                np.abs(dx).max()
            ) < VOLTAGE_TOL * (1.0 + x_scale):
                return x, iteration
    return None


def _initial_guess(system: System) -> np.ndarray:
    """Start from zero volts with sources' DC values on their own nodes."""
    x = np.zeros(system.size)
    for element in system.circuit:
        if isinstance(element, VoltageSource):
            a = system.index(element.np)
            b = system.index(element.nn)
            if a >= 0 and b < 0:
                x[a] = element.dc
            elif b >= 0 and a < 0:
                x[b] = -element.dc
    return x


def _solve_ladder(
    system: System,
    start: np.ndarray,
    gmin: float,
    *,
    gmin_start_exponent: int = 3,
) -> tuple[np.ndarray, int, float] | None:
    """Plain Newton, then gmin stepping, then source stepping.

    Returns ``(x, iterations, gmin_used)`` or ``None`` when the whole
    ladder fails.  ``gmin_start_exponent`` sets where the gmin ladder
    begins (smaller = leakier = easier); retries lower it to relax the
    solve exponentially.
    """
    if faults.fires("spice.dc.newton"):
        solved = None  # injected: skip plain Newton, exercise the ladder
    else:
        solved = _newton(system, start, gmin=gmin)
    gmin_used = gmin
    if solved is None:
        # gmin stepping: solve an easy (leaky) circuit, tighten gradually.
        x = start
        for exponent in range(gmin_start_exponent, 13):
            step_gmin = 10.0 ** (-exponent)
            attempt = _newton(system, x, gmin=max(step_gmin, gmin))
            if attempt is None:
                break
            x, _ = attempt
            gmin_used = max(step_gmin, gmin)
            if step_gmin <= gmin:
                solved = attempt
                break
    if solved is None:
        # Source stepping: ramp sources 0 -> 100 %.
        x = np.zeros(system.size)
        ok = True
        for scale in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            attempt = _newton(system, x, gmin=gmin, source_scale=scale)
            if attempt is None:
                ok = False
                break
            x, _ = attempt
        if ok:
            solved = (x, -1)
            gmin_used = gmin
    if solved is None:
        return None
    x, iterations = solved
    return x, iterations, gmin_used


def _perturbed_guess(
    start: np.ndarray, system: System, retry: RetryPolicy, attempt: int
) -> np.ndarray:
    """Deterministically jitter the node voltages of an initial guess."""
    rng = retry.rng(attempt)
    scale = retry.scale(attempt)
    perturbed = start.copy()
    for i in range(system.n_nodes):
        perturbed[i] += rng.gauss(0.0, scale)
    return perturbed


def dc_operating_point(
    circuit: Circuit,
    *,
    x0: np.ndarray | None = None,
    gmin: float = 1e-12,
    retry: RetryPolicy | None = None,
    system: System | None = None,
) -> OperatingPointResult:
    """Solve the DC operating point of ``circuit``.

    Tries plain Newton first, then gmin stepping (relaxing every node to
    ground through a decreasing conductance), then source stepping
    (ramping all independent sources from zero).  When a ``retry``
    policy is given, a failed ladder is re-run from deterministically
    jittered initial guesses (jitter and gmin relaxation both grow
    exponentially per attempt) up to ``retry.max_attempts`` times.
    Raises :class:`~repro.errors.ConvergenceError` when everything
    fails.

    Passing an existing ``system`` (for this circuit or a structurally
    identical one) skips netlist validation and re-indexing — the hot
    path for sweeps and optimization loops that solve thousands of
    same-topology circuits.
    """
    faults.check("spice.dc")
    if system is None:
        system = System(circuit)
    elif system.circuit is not circuit:
        system = system.rebind(circuit)
    base = x0.copy() if x0 is not None else _initial_guess(system)
    attempts = 1 if retry is None else max(retry.max_attempts, 1)
    solution: tuple[np.ndarray, int, float] | None = None
    for attempt in range(attempts):
        if attempt == 0:
            start = base
            exponent = 3
        else:
            assert retry is not None
            retry.note_retry()
            start = _perturbed_guess(base, system, retry, attempt)
            # Exponential backoff on the ladder: start leakier each retry.
            exponent = max(3 - attempt, 1)
        if faults.fires("spice.dc.attempt"):
            continue  # injected: void this whole attempt
        solution = _solve_ladder(
            system, start, gmin, gmin_start_exponent=exponent
        )
        if solution is not None:
            break
    if solution is None:
        raise ConvergenceError(
            f"{circuit.title}: DC operating point did not converge "
            "(Newton, gmin stepping and source stepping all failed)",
            context={
                "circuit": circuit.title,
                "attempts": attempts,
                "gmin": gmin,
                "nodes": system.n_nodes,
            },
        )
    x, iterations, gmin_used = solution
    result = OperatingPointResult(
        system=system, x=x, iterations=iterations, gmin_used=gmin_used
    )
    result.voltages = {n: float(x[i]) for n, i in system.node_index.items()}
    result.branch_currents = {
        name: float(x[i]) for name, i in system.branch_index.items()
    }
    return result


def _mosfet_op_table(system: System, x: np.ndarray) -> dict[str, MosfetOp]:
    """Linearize every MOSFET at the solved bias (see ``mosfet_ops``)."""
    table: dict[str, MosfetOp] = {}
    for mos in system.circuit.mosfets():
        ev = evaluate_mosfet(
            mos,
            system.device(mos.name),
            system.voltage(x, mos.nd),
            system.voltage(x, mos.ng),
            system.voltage(x, mos.ns),
            system.voltage(x, mos.nb),
        )
        device = system.device(mos.name)
        table[mos.name] = MosfetOp(
            name=mos.name,
            ids=ev.ids_normalized,
            vgs=ev.vgs,
            vds=ev.vds,
            vsb=ev.vsb,
            region=device.region(ev.vgs, ev.vds, ev.vsb).value,
            gm=device.gm(ev.vgs, ev.vds, ev.vsb),
            gds=device.gds(ev.vgs, ev.vds, ev.vsb),
            swapped=ev.swapped,
        )
    return table


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: np.ndarray | list[float],
    *,
    gmin: float = 1e-12,
    retry: RetryPolicy | None = None,
) -> tuple[np.ndarray, list[OperatingPointResult]]:
    """Sweep the DC value of a voltage/current source.

    Each point starts Newton from the previous solution (continuation),
    which is how SPICE keeps sweeps fast and convergent.  ``gmin`` and
    ``retry`` are forwarded to every per-point solve, so tolerant-mode
    callers keep their retry budget inside sweeps.  One
    :class:`System` is shared across all points (the sweep only changes
    a source value, never the topology).  Returns the swept values and
    the per-point results.
    """
    values = np.asarray(values, dtype=float)
    results: list[OperatingPointResult] = []
    x_prev: np.ndarray | None = None
    original = circuit.element(source_name)
    system = System(circuit)
    try:
        for value in values:
            circuit.replace(replace(original, dc=float(value)))  # type: ignore[arg-type]
            result = dc_operating_point(
                circuit, x0=x_prev, gmin=gmin, retry=retry, system=system
            )
            results.append(result)
            x_prev = result.x
    finally:
        circuit.replace(original)
    return values, results
