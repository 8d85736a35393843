"""The shipped electrical/static rule catalog.

Codes are stable API: ``E0xx`` core structural rules (the
``Circuit.validate()`` subset), ``E1xx`` MNA rank/topology rules,
``E2xx`` naming, ``E3xx`` device geometry, ``W4xx`` analysis-specific
topology warnings, ``W5xx`` unit/value sanity warnings and ``I2xx``
informational notes.  See ``docs/LINTING.md`` for the catalog with
examples and fixes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import SimulationError
from ..spice.netlist import (
    Capacitor,
    CurrentSource,
    GROUND_NAMES,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from .core import Finding, LintContext, Rule, register_rule
from .graph import GROUND, alias, loop_closing_elements

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..technology import Technology

__all__ = ["CORE_RULES", "CANDIDATE_RULES", "candidate_error"]

#: Codes of the fast subset ``Circuit.validate()`` runs (kept in sync
#: by the ``core=True`` registrations below; exported for callers that
#: want to extend the set explicitly).
CORE_RULES = ("E001", "E002", "E003", "E004", "E201")

#: Value and geometry rules, whose verdict can change with every
#: proposed sizing; the synthesis gate checks them per candidate and
#: every other rule once per problem (the structure never changes).
CANDIDATE_RULES = ("E004", "E301", "E302", "W504")


def candidate_error(element: object, tech: "Technology | None") -> bool:
    """True when a :data:`CANDIDATE_RULES` rule reports ``element`` as an error.

    Each of those findings depends on its own element alone (E004, E301
    and E302 are errors, W504 only warns), so a caller that edits a few
    elements can track this flag per element and run the rules only
    when some element is flagged.  noqa tags are not consulted here:
    :func:`~repro.lint.core.lint_circuit` applies them.
    """
    if isinstance(element, Capacitor):
        return _nonpositive_capacitance(element)
    if isinstance(element, Mosfet):
        return _nonpositive_leff(element) or (
            tech is not None and bool(_outside_tech(element, tech))
        )
    return False


def _nonpositive_capacitance(element: Capacitor) -> bool:
    return element.value <= 0.0


def _nonpositive_leff(element: Mosfet) -> bool:
    return element.l <= 2.0 * element.model.ld


def _outside_tech(element: Mosfet, tech: "Technology") -> list[str]:
    problems: list[str] = []
    if element.w < tech.w_min:
        problems.append(f"W={element.w:g} < w_min={tech.w_min:g}")
    if element.w > tech.w_max:
        problems.append(f"W={element.w:g} > w_max={tech.w_max:g}")
    if element.l < tech.l_min:
        problems.append(f"L={element.l:g} < l_min={tech.l_min:g}")
    return problems


# ----------------------------------------------------------------------
# E0xx — core structural rules (the Circuit.validate() subset)
# ----------------------------------------------------------------------


@register_rule(
    "E001",
    "empty-circuit",
    summary="the circuit contains no elements",
    fix_hint="add at least one element before analyzing",
    core=True,
)
def _check_empty(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    if len(ctx.circuit) == 0:
        yield rule.finding("empty circuit")


@register_rule(
    "E002",
    "no-ground",
    summary="no element touches a ground node ('0'/'gnd')",
    fix_hint="reference one net to node '0' so node voltages are defined",
    core=True,
)
def _check_ground(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    if len(ctx.circuit) and not ctx.ground_present:
        yield rule.finding("no ground node")


@register_rule(
    "E003",
    "dangling-node",
    summary="a node with fewer than two element connections",
    fix_hint="connect the node to a second element or remove the stub",
    core=True,
)
def _check_dangling(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    degree: dict[str, int] = {}
    for element in ctx.circuit:
        for node in set(element.nodes):
            if node not in GROUND_NAMES:
                degree[node] = degree.get(node, 0) + 1
    dangling = sorted(n for n, d in degree.items() if d < 2)
    if dangling:
        yield rule.finding(
            f"dangling nodes {', '.join(dangling)} "
            "(each node needs >= 2 connections)",
            nodes=tuple(dangling),
        )


@register_rule(
    "E004",
    "nonpositive-capacitor",
    summary="a capacitor with value <= 0 (inconsistent transient stamps)",
    fix_hint="drop the element instead of setting it to zero",
    exception=SimulationError,
    core=True,
)
def _check_capacitors(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(element, Capacitor) and _nonpositive_capacitance(element):
            yield rule.finding(
                f"capacitor {element.name} has non-positive value "
                f"{element.value:g} F; every simulated capacitor must "
                "be > 0 (drop the element instead of setting it to zero)",
                element=element.name,
                nodes=element.nodes,
            )


@register_rule(
    "E201",
    "duplicate-name",
    summary="element names that collide case-insensitively",
    fix_hint="rename one of the colliding elements (SPICE decks are "
    "case-insensitive, so they would merge on export)",
    core=True,
)
def _check_duplicate_names(
    rule: Rule, ctx: LintContext
) -> Iterator[Finding]:
    by_folded: dict[str, list[str]] = {}
    for element in ctx.circuit:
        by_folded.setdefault(element.name.upper(), []).append(element.name)
    for names in by_folded.values():
        if len(names) > 1:
            yield rule.finding(
                f"duplicate element names {', '.join(names)} "
                "(case-insensitive collision)",
                element=names[1],
            )


# ----------------------------------------------------------------------
# E1xx — MNA rank / topology rules (graph analysis, no matrix)
# ----------------------------------------------------------------------


@register_rule(
    "E101",
    "floating-gate",
    summary="a MOSFET gate with no DC path to ground or any source",
    fix_hint="add a DC bias path (resistor/divider) to the gate node, or "
    "tag the device with noqa('E101') for an intentionally "
    "AC-coupled gate",
)
def _check_floating_gate(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    if not ctx.ground_present:
        return  # E002 already reports the real problem
    for element in ctx.circuit:
        if not isinstance(element, Mosfet):
            continue
        gate = alias(element.ng)
        if not ctx.conduction.connected(gate, GROUND):
            yield rule.finding(
                f"gate of {element.name} (node {element.ng!r}) has no DC "
                "path to ground — its bias is undefined at DC",
                element=element.name,
                nodes=(element.ng,),
            )


@register_rule(
    "E102",
    "source-loop",
    summary="a loop of voltage sources/inductors (KVL over-determined, "
    "structurally singular MNA)",
    fix_hint="break the loop or add series resistance to one branch",
)
def _check_source_loops(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in loop_closing_elements(ctx.circuit):
        kind = (
            "voltage source"
            if isinstance(element, VoltageSource)
            else "inductor"
        )
        yield rule.finding(
            f"{kind} {element.name} closes a loop of voltage "
            "sources/inductors between "
            f"{element.nodes[0]!r} and {element.nodes[1]!r}; the branch "
            "currents are underdetermined (singular MNA matrix)",
            element=element.name,
            nodes=element.nodes[:2],
        )


@register_rule(
    "E103",
    "current-source-cutset",
    summary="current sources feeding a subcircuit with no DC return path "
    "(KCL over-determined, structurally singular MNA)",
    fix_hint="give the island a DC return path to ground (resistor or "
    "source), or remove the current source",
)
def _check_current_cutsets(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    if not ctx.ground_present:
        return
    for island in ctx.islands:
        sources = sorted(
            {
                name
                for node in island
                for name in ctx.current_attachments.get(node, ())
            }
        )
        if sources:
            yield rule.finding(
                f"current source(s) {', '.join(sources)} drive node(s) "
                f"{', '.join(sorted(island))} which have no DC path to "
                "ground; the injected current has no return path "
                "(singular MNA matrix)",
                element=sources[0],
                nodes=tuple(sorted(island)),
            )


@register_rule(
    "E104",
    "shorted-source",
    summary="a voltage source with both terminals on the same node",
    fix_hint="remove the source or rewire one terminal; the branch "
    "current is undefined",
)
def _check_shorted_sources(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(element, (VoltageSource, Vcvs)) and alias(
            element.np
        ) == alias(element.nn):
            yield rule.finding(
                f"voltage source {element.name} is shorted (both "
                f"terminals on node {element.np!r}); its branch current "
                "is undefined (singular MNA matrix)",
                element=element.name,
                nodes=(element.np, element.nn),
            )


@register_rule(
    "W401",
    "no-dc-path",
    severity="warning",
    summary="nodes isolated from ground at DC (capacitor-coupled or "
    "sensing-only islands)",
    fix_hint="expected for switched-capacitor/AC-coupled nets; otherwise "
    "add a DC path — the operating point there is set only by "
    "the solver's gmin leakage",
)
def _check_no_dc_path(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    if not ctx.ground_present:
        return
    for island in ctx.islands:
        # Current-source-fed islands are the harder E103 error; islands
        # containing a MOS gate are already the E101 error.
        if any(ctx.current_attachments.get(node) for node in island):
            continue
        if island & ctx.gate_nodes:
            continue
        caps = sorted(
            {
                name
                for node in island
                for name in ctx.capacitor_attachments.get(node, ())
            }
        )
        coupling = (
            f"coupled only through capacitor(s) {', '.join(caps)}"
            if caps
            else "connected to no conducting element"
        )
        yield rule.finding(
            f"node(s) {', '.join(sorted(island))} have no DC path to "
            f"ground ({coupling}); their DC voltage is defined only by "
            "gmin leakage",
            element=caps[0] if caps else None,
            nodes=tuple(sorted(island)),
        )


@register_rule(
    "W402",
    "degenerate-element",
    severity="warning",
    summary="an element wired so it has no electrical effect",
    fix_hint="remove the element or fix the wiring",
)
def _check_degenerate(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(
            element, (Resistor, Capacitor, Inductor, CurrentSource)
        ):
            n1, n2 = element.nodes[0], element.nodes[1]
            if alias(n1) == alias(n2):
                yield rule.finding(
                    f"{type(element).__name__.lower()} {element.name} has "
                    f"both terminals on node {n1!r} and does nothing",
                    element=element.name,
                    nodes=(n1, n2),
                )
        elif isinstance(element, Mosfet):
            if alias(element.nd) == alias(element.ns):
                yield rule.finding(
                    f"MOSFET {element.name} has drain and source on the "
                    f"same node {element.nd!r}; the channel is shorted",
                    element=element.name,
                    nodes=(element.nd, element.ns),
                )


# ----------------------------------------------------------------------
# I2xx — naming notes
# ----------------------------------------------------------------------

_CANONICAL_LETTER = {
    Resistor: "R",
    Capacitor: "C",
    Inductor: "L",
    VoltageSource: "V",
    CurrentSource: "I",
    Vcvs: "E",
    Vccs: "G",
    Mosfet: "M",
}


@register_rule(
    "I202",
    "misleading-name",
    severity="info",
    summary="an element whose name starts with a *different* element "
    "type's SPICE letter",
    fix_hint="rename the element so its leading letter matches its type "
    "(deck export renames it to avoid type confusion)",
)
def _check_name_letters(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    letters = frozenset(_CANONICAL_LETTER.values())
    for element in ctx.circuit:
        letter = _CANONICAL_LETTER[type(element)]
        lead = element.name[:1].upper()
        # Hierarchical prefixes ("X1RREF") are fine; only a leading
        # letter that *is* another element type's letter misleads.
        if lead != letter and lead in letters:
            yield rule.finding(
                f"{type(element).__name__.lower()} {element.name!r} "
                f"starts with {lead!r}, the SPICE letter of a different "
                f"element type; deck export will rename it to "
                f"{letter}_{element.name}",
                element=element.name,
            )


# ----------------------------------------------------------------------
# E3xx — device geometry vs. the active technology/model card
# ----------------------------------------------------------------------


@register_rule(
    "E301",
    "geometry-out-of-tech",
    summary="MOS W/L outside the technology's min/max drawn dimensions",
    fix_hint="clamp the geometry into [w_min, w_max] x [l_min, ...] of "
    "the active technology",
)
def _check_tech_geometry(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    tech = ctx.tech
    if tech is None:
        return  # no technology bound: rule not applicable
    for element in ctx.circuit:
        if not isinstance(element, Mosfet):
            continue
        problems = _outside_tech(element, tech)
        if problems:
            yield rule.finding(
                f"{element.name}: {'; '.join(problems)} for technology "
                f"{tech.name!r}",
                element=element.name,
            )


@register_rule(
    "E302",
    "nonpositive-leff",
    summary="drawn L <= 2*LD of the model card (effective length <= 0)",
    fix_hint="increase the drawn length above twice the model's lateral "
    "diffusion LD",
)
def _check_leff(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if not isinstance(element, Mosfet):
            continue
        ld = element.model.ld
        if _nonpositive_leff(element):
            yield rule.finding(
                f"{element.name}: drawn L={element.l:g} m <= 2*LD="
                f"{2.0 * ld:g} m of model {element.model.name!r}; the "
                "effective channel length is non-positive",
                element=element.name,
            )


# ----------------------------------------------------------------------
# W5xx — unit/value sanity
# ----------------------------------------------------------------------

#: Plausibility windows for integrated-circuit element values (SI).
_R_RANGE = (1e-2, 1e10)
_C_RANGE = (1e-18, 1e-5)
_L_RANGE = (1e-12, 10.0)
_GEOMETRY_RANGE = (1e-8, 1e-2)
_V_MAX = 1e3
_I_MAX = 1e2


@register_rule(
    "W501",
    "implausible-resistance",
    severity="warning",
    summary="a resistance far outside the plausible IC range",
    fix_hint="check the units — values parse as SI ohms (use '1k', "
    "'2.2Meg' engineering notation)",
)
def _check_resistances(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(element, Resistor) and not (
            _R_RANGE[0] <= element.value <= _R_RANGE[1]
        ):
            yield rule.finding(
                f"resistor {element.name} = {element.value:g} ohm is "
                f"outside the plausible range [{_R_RANGE[0]:g}, "
                f"{_R_RANGE[1]:g}]",
                element=element.name,
            )


@register_rule(
    "W502",
    "implausible-capacitance",
    severity="warning",
    summary="a capacitance far outside the plausible IC range",
    fix_hint="check the units — values parse as SI farads (use '10p', "
    "'1.5n' engineering notation)",
)
def _check_capacitances(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if (
            isinstance(element, Capacitor)
            and element.value > 0.0
            and not (_C_RANGE[0] <= element.value <= _C_RANGE[1])
        ):
            yield rule.finding(
                f"capacitor {element.name} = {element.value:g} F is "
                f"outside the plausible range [{_C_RANGE[0]:g}, "
                f"{_C_RANGE[1]:g}]",
                element=element.name,
            )


@register_rule(
    "W503",
    "implausible-inductance",
    severity="warning",
    summary="an inductance far outside the plausible range",
    fix_hint="check the units — values parse as SI henries (use '10u', "
    "'1m' engineering notation)",
)
def _check_inductances(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(element, Inductor) and not (
            _L_RANGE[0] <= element.value <= _L_RANGE[1]
        ):
            yield rule.finding(
                f"inductor {element.name} = {element.value:g} H is "
                f"outside the plausible range [{_L_RANGE[0]:g}, "
                f"{_L_RANGE[1]:g}]",
                element=element.name,
            )


@register_rule(
    "W504",
    "implausible-geometry",
    severity="warning",
    summary="MOS W/L that look like microns passed as metres (or vice "
    "versa)",
    fix_hint="geometries are SI metres: 10 um is 10e-6, not 10",
)
def _check_geometry_units(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    lo, hi = _GEOMETRY_RANGE
    for element in ctx.circuit:
        if not isinstance(element, Mosfet):
            continue
        odd = [
            f"{label}={value:g} m"
            for label, value in (("W", element.w), ("L", element.l))
            if not lo <= value <= hi
        ]
        if odd:
            yield rule.finding(
                f"{element.name}: {', '.join(odd)} outside "
                f"[{lo:g}, {hi:g}] — geometry is expressed in metres",
                element=element.name,
            )


@register_rule(
    "W505",
    "implausible-source-value",
    severity="warning",
    summary="an independent source with an extreme DC value",
    fix_hint="check the units of the source's DC value",
)
def _check_source_values(rule: Rule, ctx: LintContext) -> Iterator[Finding]:
    for element in ctx.circuit:
        if isinstance(element, VoltageSource) and abs(element.dc) > _V_MAX:
            yield rule.finding(
                f"voltage source {element.name} DC value {element.dc:g} V "
                f"exceeds {_V_MAX:g} V",
                element=element.name,
            )
        elif isinstance(element, CurrentSource) and abs(element.dc) > _I_MAX:
            yield rule.finding(
                f"current source {element.name} DC value {element.dc:g} A "
                f"exceeds {_I_MAX:g} A",
                element=element.name,
            )
