"""One synthesis run's configuration, declared once.

:class:`RunConfig` holds every parameter that decides a run's result,
each with its default and its validation in one place.  The library
call (:func:`~repro.synthesis.synthesize_opamp`), the chain tasks
(:class:`~repro.parallel.ChainTask`), ``repro synthesize`` / ``analyze``
/ ``estimate-opamp`` and the service's ``POST /jobs`` all build their run
from it.

It also owns the run's JSON form (:meth:`RunConfig.from_payload` /
:meth:`RunConfig.to_payload`, shared by job bodies, ``repro analyze
--spec-file`` fixtures and the CLI's request flags) and its three
fingerprints: the run journal's,
the evaluation store's and the service job's.  Tests pin their bytes:
run directories, stores and queue rows written earlier must keep
matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

from ..errors import SpecificationError
from ..opamp import OpAmpSpec, OpAmpTopology
from ..runtime.journal import RunJournal, run_fingerprint
from ..spice.linalg import solver_mode
from ..units import parse_quantity
from . import problems
from .robust import RobustSpec
from .specs import SynthesisSpec, opamp_synthesis_spec

__all__ = [
    "RunConfig",
    "MODES",
    "FEASIBILITY_MODES",
    "SURROGATE_MODES",
    "JSON_KEYS",
]

#: ``"ape"`` (APE estimate +/- ``range_factor``) or ``"standalone"``.
MODES = ("ape", "standalone")

#: The static pre-solve gate: off, reject a provably infeasible spec,
#: or also contract the search box.
FEASIBILITY_MODES = ("off", "reject", "contract")

#: Move screening: one proposal per move, or the best of four by the
#: APE equations' estimated cost.
SURROGATE_MODES = ("off", "rank")

#: The keys of a JSON run request.  ``constraints`` are requirements
#: added on top of ``opamp_synthesis_spec(spec)``; ``range_factor``,
#: ``tolerant``, ``robust``, ``feasibility`` and ``surrogate`` have no
#: JSON form and keep their defaults there.
_RUN_KEYS = ("name", "mode", "seed", "restarts", "max_evaluations")
JSON_KEYS = ("spec", "topology", "constraints", *_RUN_KEYS)

#: ``spec`` keys of a JSON request; one left out takes OpAmpSpec's default.
_SPEC_KEYS = ("gain", "ugf", "ibias", "cl", "area", "slew_rate")


def _qty(value: object, what: str = "value") -> float:
    """A JSON number or SI-quantity string (``"2Meg"``, ``"inf"``)."""
    if isinstance(value, str):
        return math.inf if value == "inf" else parse_quantity(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(
            f"{what}: expected a number or SI-quantity string, got {value!r}"
        )
    return float(value)


def _text(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecificationError(f"{what} must be a non-empty string")
    return value


def _integer(value: object, what: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecificationError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecificationError(
            f"{what} must be >= {minimum}, got {value}",
            context={"parameter": what, "value": value},
        )


def _choice(value: object, known: tuple[str, ...], what: str) -> None:
    if value not in known:
        raise SpecificationError(
            f"unknown {what} {value!r}", context={"value": value, "known": known}
        )


#: ``topology`` keys of a JSON request and their coercions; a key left
#: out takes OpAmpTopology's default.
_TOPOLOGY_KEYS: dict[str, Callable[[Any, str], Any]] = {
    "current_source": _text,
    "diff_pair": _text,
    "gain_stage": lambda value, what: value,
    "output_buffer": lambda value, what: bool(value),
    "z_load": _qty,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything that decides one synthesis run's result.

    Frozen and value-based, and validated on construction: an invalid
    value raises :class:`~repro.errors.SpecificationError`.  Runtime
    hooks that do not change the result (budgets, retries, workers,
    memo, run and store directories, supervision) are not part of it.
    """

    #: The op-amp's performance targets (paper Table 1).
    spec: OpAmpSpec
    #: Structural choices; ``None`` lets APE choose.
    topology: OpAmpTopology | None = None
    #: Constraints and objectives; ``None`` means
    #: ``opamp_synthesis_spec(spec)``.  A JSON request's ``constraints``
    #: are added on top of that default.
    synthesis_spec: SynthesisSpec | None = None
    #: ``"ape"``: APE's point +/- ``range_factor`` (Table 4);
    #: ``"standalone"``: the wide ranges (Table 1).
    mode: str = "ape"
    name: str = "opamp"
    #: Half-width of the APE box as a fraction, in (0, 1).
    range_factor: float = 0.2
    #: Evaluations per annealing chain.
    max_evaluations: int = 150
    #: Master seed; chain ``i`` anneals with a seed derived from it.
    seed: int = 1
    #: Independently seeded annealing chains; the best one wins.
    restarts: int = 1
    #: Penalize failed evaluations instead of raising.
    tolerant: bool = True
    #: Size against process corners / mismatch samples.
    robust: RobustSpec | None = None
    #: One of :data:`FEASIBILITY_MODES`.
    feasibility: str = "off"
    #: One of :data:`SURROGATE_MODES`.
    surrogate: str = "off"

    def __post_init__(self) -> None:
        _choice(self.mode, MODES, "synthesis mode")
        _text(self.name, "name")
        if not 0 < self.range_factor < 1:
            raise SpecificationError(
                f"range_factor must be in (0, 1), got {self.range_factor}",
                context={"parameter": "range_factor", "value": self.range_factor},
            )
        _integer(self.max_evaluations, "max_evaluations", 1)
        _integer(self.seed, "seed", 0)
        _integer(self.restarts, "restarts", 1)
        _choice(self.feasibility, FEASIBILITY_MODES, "feasibility mode")
        _choice(self.surrogate, SURROGATE_MODES, "surrogate mode")

    def as_kwargs(self) -> dict[str, Any]:
        """The fields as ``synthesize_opamp`` keywords (a shallow copy)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def resolved_synthesis_spec(self) -> SynthesisSpec:
        """``synthesis_spec``, or the paper's default for ``spec``."""
        if self.synthesis_spec is not None:
            return self.synthesis_spec
        return opamp_synthesis_spec(self.spec)

    def analyze(self, tech: Any, *, contract: bool = True):
        """The static feasibility analysis of this run's search box
        (:func:`repro.analysis.analyze_problem`); no Newton solves."""
        from ..analysis import analyze_problem

        return analyze_problem(
            tech,
            self.spec,
            self.topology,
            self.resolved_synthesis_spec(),
            mode=self.mode,
            range_factor=self.range_factor,
            contract=contract,
            name=self.name,
        )

    # ------------------------------------------------------------ JSON form

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunConfig":
        """Parse and validate a JSON run request.

        The shape of ``POST /jobs`` bodies (without ``tenant``) and of
        the ``repro analyze --spec-file`` fixtures: a ``spec`` object,
        an optional ``topology`` object and ``constraints`` list, and
        the run parameters at the top level (:data:`JSON_KEYS`).
        Quantities may be SI strings (``"2Meg"``; ``"inf"`` for no
        bound), and a key left out takes its default.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError("a run request must be a JSON object")
        unknown = sorted(set(payload) - set(JSON_KEYS))
        if unknown:
            raise SpecificationError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        spec_in = payload.get("spec")
        if not isinstance(spec_in, Mapping):
            raise SpecificationError("a run request requires a 'spec' object")
        if spec_in.get("gain") is None or spec_in.get("ugf") is None:
            raise SpecificationError("spec requires 'gain' and 'ugf'")
        spec = OpAmpSpec(**{
            key: _qty(spec_in[key], key) for key in _SPEC_KEYS if key in spec_in
        })

        topology = None
        topo_in = payload.get("topology")
        if topo_in is not None:
            if not isinstance(topo_in, Mapping):
                raise SpecificationError("'topology' must be an object")
            topology = OpAmpTopology(**{
                key: coerce(topo_in[key], key)
                for key, coerce in _TOPOLOGY_KEYS.items()
                if key in topo_in
            })

        synthesis_spec = None
        constraints = payload.get("constraints", ())
        if not isinstance(constraints, (list, tuple)):
            raise SpecificationError("'constraints' must be a list")
        if constraints:
            synthesis_spec = opamp_synthesis_spec(spec)
            for entry in constraints:
                if not isinstance(entry, Mapping):
                    raise SpecificationError(
                        "each constraint must be an object with "
                        "metric/kind/bound"
                    )
                synthesis_spec.require(
                    _text(entry.get("metric"), "constraint metric"),
                    _text(entry.get("kind"), "constraint kind"),
                    _qty(entry.get("bound"), "constraint bound"),
                    weight=_qty(entry.get("weight", 1.0), "constraint weight"),
                )

        run = {key: payload[key] for key in _RUN_KEYS if key in payload}
        return cls(spec, topology, synthesis_spec, **run)

    def to_payload(self) -> dict[str, Any]:
        """The JSON form; round-trips through :meth:`from_payload`."""
        spec = {key: getattr(self.spec, key) for key in _SPEC_KEYS}
        spec["area"] = _json_quantity(spec["area"])
        payload: dict[str, Any] = {"spec": spec}
        payload.update((key, getattr(self, key)) for key in _RUN_KEYS)
        if self.topology is not None:
            topology = {
                key: getattr(self.topology, key) for key in _TOPOLOGY_KEYS
            }
            topology["z_load"] = _json_quantity(topology["z_load"])
            payload["topology"] = topology
        constraints = self._extra_constraints()
        if constraints:
            payload["constraints"] = [
                {"metric": m, "kind": k, "bound": b, "weight": w}
                for m, k, b, w in constraints
            ]
        return payload

    def _extra_constraints(self) -> tuple[tuple[str, str, float, float], ...]:
        """The requirements ``synthesis_spec`` adds to the default one,
        as ``(metric, kind, bound, weight)`` tuples."""
        if self.synthesis_spec is None:
            return ()
        base = opamp_synthesis_spec(self.spec)
        extra = self.synthesis_spec.constraints[len(base.constraints):]
        if self.synthesis_spec != SynthesisSpec(
            base.constraints + extra, base.objectives
        ):
            raise SpecificationError(
                "synthesis_spec is not opamp_synthesis_spec(spec) plus "
                "constraints, so it has no JSON form"
            )
        return tuple((c.metric, c.kind, c.bound, c.weight) for c in extra)

    # --------------------------------------------------------- fingerprints
    #
    # The journal and store fingerprints hash these parts as a sorted
    # tuple of items (``synthesis.engine._run_fingerprint``).

    def _problem_parts(self, tech: Any) -> dict[str, Any]:
        """The parts the journal and store fingerprints share."""
        parts: dict[str, Any] = {
            "tech": repr(tech),
            "spec": repr(self.spec),
            "topology": repr(self.topology),
            "mode": self.mode,
            "synthesis_spec": repr(self.resolved_synthesis_spec()),
            "name": self.name,
            "range_factor": self.range_factor,
            "tolerant": self.tolerant,
        }
        if solver_mode() != "auto":
            # A forced backend moves the bits.  Like every optional
            # part it appears only off its default, so run dirs and
            # stores keyed before it existed keep matching.
            parts["solver"] = solver_mode()
        return parts

    def journal_parts(self, tech: Any, box: tuple | None) -> dict[str, Any]:
        """A run directory's identity; ``--resume`` refuses another.

        ``box`` is the feasibility gate's contracted box as a sorted
        ``((name, (lo, hi)), ...)`` tuple, or ``None``.
        """
        parts = {
            **self._problem_parts(tech),
            "schema": RunJournal.SCHEMA,
            "max_evaluations": self.max_evaluations,
            # The schedule is fixed; the part keeps older run dirs valid.
            "schedule": repr(None),
            "seed": self.seed,
            "restarts": self.restarts,
            "evaluator": problems.EVALUATOR_VERSION,
        }
        # Each optional part appears only off its default, so run dirs
        # journaled before the option existed keep resuming.
        if self.robust is not None:
            parts["robust"] = repr(self.robust)
        if self.feasibility != "off":
            parts["feasibility"] = repr((self.feasibility, box))
        if self.surrogate != "off":
            # "/ape" names the screen: rank run dirs journaled under the
            # earlier learned screen ("rank") are refused.
            parts["surrogate"] = f"{self.surrogate}/ape"
        return parts

    def store_parts(
        self, tech: Any, box: tuple | None, quantum: float
    ) -> dict[str, Any]:
        """The evaluation store's and memo's key space: everything an
        evaluation depends on — too fine costs warm hits, too coarse
        would serve a wrong result — and nothing that only steers the
        search."""
        return {
            **self._problem_parts(tech),
            "kind": f"eval-store/{problems.EVALUATOR_VERSION}",
            "robust": repr(self.robust) if self.robust is not None else None,
            "box": repr(box),
            "quantum": quantum,
        }

    def job_fingerprint(self, tech: Any) -> str:
        """A service job's identity: the queue dedupes on it and the job
        id is its prefix.  ``name`` is not part of it.  A change to the
        request's canonical form must bump the ``service-job/1`` tag, so
        stale queue rows never alias a new problem."""
        return run_fingerprint(
            "service-job/1",
            problems.EVALUATOR_VERSION,
            repr(tech),
            repr(self.spec),
            repr(self.topology),
            self.mode,
            self._extra_constraints(),
            self.seed,
            self.restarts,
            self.max_evaluations,
        )


def _json_quantity(value: float) -> float | str:
    return "inf" if math.isinf(value) else value
