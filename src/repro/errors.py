"""Exception hierarchy for the APE reproduction library.

Every error raised by this package derives from :class:`ApeError`, so
callers can catch one type at the API boundary.  The subtypes mirror the
major subsystems: unit parsing, technology data, device sizing, circuit
simulation and synthesis.

:class:`ApeError` carries a structured ``context`` dict so raise sites
can attach (component, parameter, value) payloads once instead of
string-formatting them into the message; the runtime's diagnostics
layer (:mod:`repro.runtime.diagnostics`) lifts the same payload into
:class:`~repro.runtime.diagnostics.Diagnostic` records.
"""

from __future__ import annotations


class ApeError(Exception):
    """Base class for all errors raised by this package.

    ``context`` is an optional structured payload rendered into
    ``str(error)`` as ``message [key=value, ...]``.
    """

    def __init__(self, *args: object, context: dict | None = None) -> None:
        super().__init__(*args)
        self.context: dict = dict(context or {})

    def with_context(self, **entries: object) -> "ApeError":
        """Attach more context in-flight; returns ``self`` for re-raise."""
        self.context.update(entries)
        return self

    def __str__(self) -> str:
        message = super().__str__()
        if not self.context:
            return message
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        return f"{message} [{rendered}]" if message else f"[{rendered}]"


class UnitError(ApeError, ValueError):
    """A quantity string could not be parsed (e.g. ``'1.3Qz'``)."""


class TechnologyError(ApeError):
    """Missing or inconsistent technology process data."""


class ModelCardError(TechnologyError):
    """A SPICE ``.MODEL`` card could not be parsed."""


class SizingError(ApeError):
    """Analytical device sizing failed (infeasible spec, bad region)."""


class EstimationError(ApeError):
    """A performance estimate could not be produced for a component."""


class TopologyError(ApeError):
    """An unknown or inconsistent circuit topology was requested."""


class NetlistError(ApeError):
    """Malformed netlist: dangling nodes, duplicate names, bad values."""


class SimulationError(ApeError):
    """The circuit simulator failed (singular matrix, no convergence)."""


class ConvergenceError(SimulationError):
    """Newton iteration did not converge for the DC operating point."""


class SynthesisError(ApeError):
    """The optimization-based sizing engine failed to produce a result."""


class SpecificationError(SynthesisError):
    """A synthesis specification is malformed or self-contradictory."""
