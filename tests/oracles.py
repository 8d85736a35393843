"""Reference implementations the library replaced, kept as test oracles.

Each one is the body the library ran before a leaner path replaced it,
kept here so the tests can show the new path returns the same thing:

* :func:`probe_bench_map` discovers, by building benches, the
  variable -> ``(element, field)`` map that
  :func:`~repro.opamp.benches.place_opamp` now declares;
* :func:`factory_evaluate` evaluates a candidate on benches built from
  scratch — one ``OpAmp`` and one bench per candidate and per drive —
  where :class:`~repro.synthesis.problems.OpAmpSizingProblem` applies
  it to its one in-place bench;
* :func:`perturbed_circuit` draws each Monte Carlo card directly,
  where :func:`repro.variation.montecarlo.perturbed_circuit` draws the
  normals first and derives the card from them;
* :func:`mosfet_op_table` makes four device-model evaluations per
  MOSFET, where :attr:`~repro.spice.dc.OperatingPointResult.mosfet_ops`
  makes one.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import SimulationError
from repro.lint import lint_circuit
from repro.opamp.benches import open_loop_bench
from repro.spice import Circuit, Mosfet, dc_operating_point
from repro.spice.analysis import _drive_column, balance_differential
from repro.spice.dc import MosfetOp
from repro.spice.mna import System, evaluate_mosfet
from repro.synthesis.problems import (
    BALANCE_SPAN,
    RAIL,
    parameterized_opamp,
)
from repro.variation.montecarlo import MismatchModel


def probe_bench_map(template, variables, params, factory=open_loop_bench):
    """The variable -> ``(element, field)`` map benches show, or ``None``.

    Builds the bench once at ``params`` and once per variable with that
    variable nudged, and accepts only *identity* mappings: a changed
    field's old and new values must equal the variable's old and new
    values exactly.  ``None`` for anything else: derived values,
    changed structure or non-positive parameters.
    """
    base = factory(parameterized_opamp(template, params), v_diff=0.0)
    base_elements = base.elements
    base_sig = [(type(e), e.name, e.nodes) for e in base_elements]
    mapping: dict[str, tuple[tuple[str, str], ...]] = {}
    for variable in variables:
        name = variable.name
        value = params[name]
        if value <= 0.0:
            return None
        probe_value = value * 1.0625
        probe = factory(
            parameterized_opamp(template, {**params, name: probe_value}),
            v_diff=0.0,
        )
        probe_elements = probe.elements
        if [(type(e), e.name, e.nodes) for e in probe_elements] != base_sig:
            return None
        entries: list[tuple[str, str]] = []
        for e0, e1 in zip(base_elements, probe_elements):
            if e0 == e1:
                continue
            for f in dataclasses.fields(e0):
                v0 = getattr(e0, f.name)
                v1 = getattr(e1, f.name)
                if v0 == v1:
                    continue
                if v0 == value and v1 == probe_value:
                    entries.append((e0.name, f.name))
                else:
                    return None
        mapping[name] = tuple(entries)
    return mapping


def factory_evaluate(problem, params, factory=open_loop_bench, *, warm=False):
    """``problem``'s metrics for ``params``, on benches built from scratch.

    ``factory(amp, v_diff=...)`` builds the candidate's bench and every
    drive of its balance; the drive column comes from its builds at
    zero and at :data:`~repro.synthesis.problems.BALANCE_SPAN`.  The
    full lint runs on the zero-drive bench (a rejection is ``None``).
    Without ``warm`` every solve starts cold, as a problem without
    shared state would.  With it the solves start from ``problem``'s
    run-constant starting vectors, which exist once ``problem`` has
    evaluated a candidate: the template's zero-drive point, or, when
    the template rails, its balanced point.  A
    :class:`~repro.errors.SimulationError` is ``None``; the sizing
    checks raise.
    """
    template = problem.template
    tech = template.tech
    amp = parameterized_opamp(template, params)
    bench = factory(amp, v_diff=0.0)
    if not lint_circuit(bench, tech=tech).ok:
        return None
    x0, balanced = (
        (problem._warm_x0, problem._balanced_x0) if warm else (None, None)
    )
    system = System(bench)
    try:
        if balanced is None:
            op = dc_operating_point(bench, x0=x0, system=system)
            x0 = op.x
        else:
            op, x0 = None, balanced
        if op is None or abs(op.v("out")) > RAIL:

            def build(v):
                return factory(amp, v_diff=v)

            column = _drive_column(
                system, bench, build(BALANCE_SPAN), BALANCE_SPAN
            )
            _, bench, op = balance_differential(
                build,
                "out",
                target=0.0,
                v_span=BALANCE_SPAN,
                tol=problem.balance_tolerance,
                max_bisections=16,
                system=system,
                x0=x0,
                column=column,
            )
            if abs(op.v("out")) > 1.0:
                return problem._dead_metrics(bench, op, tech)
        return problem._measure(
            bench, op, tech, params.get("r.ref", template.r_ref)
        )
    except SimulationError:
        return None


def mismatch_factory(seed, mismatch):
    """A Monte Carlo sample's bench factory: one realization per seed.

    Every build perturbs a fresh bench with a fresh
    :class:`random.Random` seeded ``seed``.
    """

    def factory(amp, v_diff=0.0):
        return perturbed_circuit(
            open_loop_bench(amp, v_diff=v_diff), random.Random(seed), mismatch
        )

    return factory


def perturbed_circuit(
    circuit: Circuit,
    rng: random.Random,
    mismatch: MismatchModel | None = None,
) -> Circuit:
    """A copy of ``circuit`` with every MOSFET's model perturbed.

    Each MOSFET in circuit order draws its threshold shift and then its
    current-factor scale straight from ``rng`` at its own Pelgrom
    sigma.
    """
    if mismatch is None:
        mismatch = MismatchModel()
    dup = circuit.copy(title=f"{circuit.title}-mc")
    for element in circuit:
        if not isinstance(element, Mosfet):
            continue
        model = element.model
        d_vt = rng.gauss(0.0, mismatch.sigma_vt(element.w, element.l))
        d_beta = rng.gauss(0.0, mismatch.sigma_beta(element.w, element.l))
        sign = 1.0 if model.vto >= 0 else -1.0
        new_vto = sign * max(abs(model.vto) + d_vt, 1e-3)
        new_model = model.with_(
            vto=new_vto,
            kp=model.kp_effective * max(1.0 + d_beta, 0.01),
        )
        dup.replace(dataclasses.replace(element, model=new_model))
    return dup


def mosfet_op_table(system: System, x) -> dict[str, MosfetOp]:
    """Every MOSFET linearized at ``x``, with region, gm and gds each
    taken from a device-model evaluation of its own."""
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
