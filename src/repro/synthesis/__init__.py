"""Optimization-based circuit sizing (the ASTRX/OBLX substrate).

The paper's baseline synthesis tool is re-implemented from its
published algorithmic skeleton (Ochotta et al., summarized in §3):

* a *specification* of objectives and constraints
  (:mod:`repro.synthesis.specs`) is compiled into a scalar cost
  function (:mod:`repro.synthesis.cost`),
* unknowns (device geometries, compensation) carry allowable ranges
  (:class:`Variable`) — "the user provides intervals to establish
  ranges of allowable values for the unknowns.  If the intervals are
  smaller, the search will converge faster",
* candidate circuits are evaluated with the fast AWE reduced-order
  model plus DC solutions (:mod:`repro.synthesis.problems`),
* a simulated-annealing engine drives the search
  (:mod:`repro.synthesis.annealing`).

The two operating modes of the paper's experiments:
:func:`standalone_ranges` (wide, uninformed intervals — Table 1) and
:func:`ape_ranges` (APE estimate +/- 20 % — Table 4).  A run's
parameters (spec, topology, mode, budget, seed, ...) are declared once,
in :class:`RunConfig`.
"""

from .specs import Constraint, Objective, SynthesisSpec, opamp_synthesis_spec
from .cost import CostFunction, RobustCost, worst_case_metrics
from .annealing import AnnealingSchedule, Annealer, AnnealResult
from .robust import RobustEvaluator, RobustSpec, retarget_opamp
from .problems import (
    OpAmpSizingProblem,
    SizingProblem,
    Variable,
    ape_ranges,
    parameterized_opamp,
    standalone_ranges,
)
from .config import RunConfig
from .engine import SynthesisResult, synthesize_opamp
from .sensitivity import SensitivityTable, sensitivity_analysis

__all__ = [
    "Constraint",
    "Objective",
    "SynthesisSpec",
    "opamp_synthesis_spec",
    "CostFunction",
    "RobustCost",
    "RobustSpec",
    "RobustEvaluator",
    "retarget_opamp",
    "worst_case_metrics",
    "Annealer",
    "AnnealingSchedule",
    "AnnealResult",
    "Variable",
    "SizingProblem",
    "OpAmpSizingProblem",
    "parameterized_opamp",
    "standalone_ranges",
    "ape_ranges",
    "RunConfig",
    "SynthesisResult",
    "synthesize_opamp",
    "SensitivityTable",
    "sensitivity_analysis",
]
