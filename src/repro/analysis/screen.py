"""Topology pre-screen: rank structural choices by static feasibility.

ROADMAP item 4 wants topology search pruned by APE feasibility before
any annealing budget is spent.  :func:`screen_topologies` runs the
interval analysis (:func:`~repro.analysis.core.analyze_problem`) for
each candidate :class:`~repro.opamp.topology.OpAmpTopology` and returns
verdicts ordered best-first: provably infeasible candidates sink to the
bottom so a search loop can simply stop at the first rejected entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import AnalysisReport, analyze_problem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..opamp.topology import OpAmpSpec, OpAmpTopology
    from ..synthesis.specs import SynthesisSpec
    from ..technology import Technology

__all__ = ["TopologyVerdict", "default_topology_choices", "screen_topologies"]


@dataclass(frozen=True)
class TopologyVerdict:
    """One screened candidate with its analysis report."""

    topology: "OpAmpTopology"
    report: AnalysisReport

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    @property
    def label(self) -> str:
        t = self.topology
        parts = [t.current_source, t.diff_pair]
        if t.gain_stage:
            parts.append("2stage")
        if t.output_buffer:
            parts.append("buffer")
        return "+".join(parts)

    def to_dict(self) -> dict[str, object]:
        t = self.topology
        return {
            "topology": {
                "current_source": t.current_source,
                "diff_pair": t.diff_pair,
                "gain_stage": t.gain_stage,
                "output_buffer": t.output_buffer,
                "z_load": t.z_load if t.z_load != float("inf") else "inf",
                "compensated": t.compensated,
            },
            "label": self.label,
            "feasible": self.feasible,
            "error_codes": list(self.report.error_codes),
            "report": self.report.to_dict(),
        }


def default_topology_choices() -> list["OpAmpTopology"]:
    """The screened structural catalog: tail source x diff-pair type.

    The folded-cascode diff stage is outside the closed-form interval
    model (its verdict would be vacuous), so it is not enumerated here;
    ``gain_stage=None`` lets the estimator pick per the gain target.
    """
    from ..opamp.topology import CURRENT_SOURCES, OpAmpTopology

    choices: list["OpAmpTopology"] = []
    for current_source in CURRENT_SOURCES:
        for diff_pair in ("cmos", "nmos"):
            choices.append(
                OpAmpTopology(
                    current_source=current_source, diff_pair=diff_pair
                )
            )
    return choices


def screen_topologies(
    tech: "Technology",
    spec: "OpAmpSpec",
    topologies: Sequence["OpAmpTopology"] | None = None,
    *,
    synthesis_spec: "SynthesisSpec | None" = None,
    mode: str = "ape",
    range_factor: float = 0.2,
    name: str = "opamp",
) -> list[TopologyVerdict]:
    """Analyze each candidate topology; verdicts ordered best-first.

    Feasible candidates come first (fewest warnings wins ties, then
    catalog order for determinism); provably infeasible ones follow,
    most-violated last.  The report's final box contraction is skipped,
    since the screen only needs verdicts.  Rule C202 still contracts
    the box once per constraint, so a feasible candidate costs a few
    hundred interval evaluations: the default catalog of six takes
    about 2500 for OpAmp1, over a second in all.
    """
    candidates = (
        list(topologies) if topologies is not None else default_topology_choices()
    )
    verdicts: list[TopologyVerdict] = []
    for index, topology in enumerate(candidates):
        report = analyze_problem(
            tech,
            spec,
            topology,
            synthesis_spec,
            mode=mode,
            range_factor=range_factor,
            contract=False,
            name=f"{name}.t{index}",
        )
        verdicts.append(TopologyVerdict(topology=topology, report=report))

    order = {id(v): i for i, v in enumerate(verdicts)}
    verdicts.sort(
        key=lambda v: (
            not v.feasible,
            v.report.counts()["error"],
            v.report.counts()["warning"],
            order[id(v)],
        )
    )
    return verdicts
