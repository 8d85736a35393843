"""Typed job model for the synthesis service.

A job is a self-contained synthesis request: op-amp spec, optional
topology override, extra constraints, and run parameters (seed,
restarts, evaluation budget).  Two submissions describing the same
problem — regardless of tenant — share one *problem fingerprint*
(:func:`repro.runtime.journal.run_fingerprint` over the canonical
request plus the technology), which is what the queue dedupes on and
what keys the job's run directory and shared evaluation store.

Admission control lives here too: :func:`admit` runs the interval
feasibility analyzer (:func:`repro.analysis.analyze_problem`) and
raises :class:`AdmissionError` for provably infeasible (F/C-coded)
specs, so a broken request is rejected in a few milliseconds instead
of consuming a solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmpSpec
from ..opamp.topology import OpAmpTopology
from ..runtime.journal import run_fingerprint
from ..units import parse_quantity

__all__ = [
    "JobRequest",
    "AdmissionError",
    "admit",
    "job_id_for",
]

#: Fingerprint schema tag — bump when the request canonicalisation
#: changes so stale queue rows can never alias a new problem.
_FINGERPRINT_KIND = "service-job/1"


def _qty(value: object) -> float:
    """Coerce a JSON payload number (or SI string like ``"2Meg"``)."""
    if isinstance(value, str):
        return math.inf if value == "inf" else parse_quantity(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(
            f"expected a number or SI-quantity string, got {value!r}"
        )
    return float(value)


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecificationError(f"{what} must be a non-empty string")
    return value


def _require_int(value: object, what: str, *, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecificationError(f"{what} must be an integer")
    if value < minimum:
        raise SpecificationError(f"{what} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """Canonical, validated synthesis request.

    Frozen and fully value-based: its :meth:`fingerprint` (and hence
    the queue's dedupe identity) is a pure function of the fields that
    affect the synthesis result.  ``tenant`` deliberately stays *out*
    of the fingerprint so identical problems from different tenants
    share one run and one warm store entry.
    """

    gain: float
    ugf: float
    ibias: float = 1e-6
    cl: float = 10e-12
    area: float = math.inf
    slew_rate: float = 0.0
    name: str = "opamp"
    mode: str = "ape"
    seed: int = 1
    restarts: int = 1
    max_evaluations: int = 150
    topology: tuple[tuple[str, Any], ...] | None = None
    constraints: tuple[tuple[str, str, float, float], ...] = ()
    tenant: str = "default"

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Parse and validate a POST /jobs JSON body.

        Accepts the same shape as the ``repro analyze --spec-file``
        fixtures (``spec`` / ``topology`` / ``constraints`` keys) plus
        run parameters at the top level.  Raises
        :class:`~repro.errors.SpecificationError` on malformed input —
        the server maps that to HTTP 400.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError("job payload must be a JSON object")
        known = {
            "spec", "topology", "constraints", "name", "mode", "seed",
            "restarts", "max_evaluations", "tenant",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecificationError(
                f"unknown job field(s): {', '.join(unknown)}"
            )
        spec_in = payload.get("spec")
        if not isinstance(spec_in, Mapping):
            raise SpecificationError("job payload requires a 'spec' object")
        if spec_in.get("gain") is None or spec_in.get("ugf") is None:
            raise SpecificationError("spec requires 'gain' and 'ugf'")

        topology: tuple[tuple[str, Any], ...] | None = None
        topo_in = payload.get("topology")
        if topo_in is not None:
            if not isinstance(topo_in, Mapping):
                raise SpecificationError("'topology' must be an object")
            topo = OpAmpTopology(
                current_source=_require_str(
                    topo_in.get("current_source", "mirror"), "current_source"
                ),
                diff_pair=_require_str(
                    topo_in.get("diff_pair", "cmos"), "diff_pair"
                ),
                gain_stage=topo_in.get("gain_stage"),
                output_buffer=bool(topo_in.get("output_buffer", False)),
                z_load=_qty(topo_in.get("z_load", "inf")),
            )
            topology = (
                ("current_source", topo.current_source),
                ("diff_pair", topo.diff_pair),
                ("gain_stage", topo.gain_stage),
                ("output_buffer", topo.output_buffer),
                ("z_load", topo.z_load),
            )

        constraints: list[tuple[str, str, float, float]] = []
        for entry in payload.get("constraints", ()):
            if not isinstance(entry, Mapping):
                raise SpecificationError(
                    "each constraint must be an object with "
                    "metric/kind/bound"
                )
            constraints.append((
                _require_str(entry.get("metric"), "constraint metric"),
                _require_str(entry.get("kind"), "constraint kind"),
                _qty(entry.get("bound")),
                float(entry.get("weight", 1.0)),
            ))

        request = cls(
            gain=_qty(spec_in["gain"]),
            ugf=_qty(spec_in["ugf"]),
            ibias=_qty(spec_in.get("ibias", "1u")),
            cl=_qty(spec_in.get("cl", "10p")),
            area=_qty(spec_in.get("area", "inf")),
            slew_rate=_qty(spec_in.get("slew_rate", 0.0)),
            name=_require_str(payload.get("name", "opamp"), "name"),
            mode=_require_str(payload.get("mode", "ape"), "mode"),
            seed=_require_int(payload.get("seed", 1), "seed", minimum=0),
            restarts=_require_int(payload.get("restarts", 1), "restarts"),
            max_evaluations=_require_int(
                payload.get("max_evaluations", 150), "max_evaluations"
            ),
            topology=topology,
            constraints=tuple(constraints),
            tenant=_require_str(payload.get("tenant", "default"), "tenant"),
        )
        # Materialise the spec once: OpAmpSpec.__post_init__ rejects
        # non-positive values, so a malformed request fails *here*
        # (HTTP 400), before anything fingerprints or enqueues it.
        request.spec()
        return request

    def spec(self) -> OpAmpSpec:
        """Materialise the op-amp spec (validates positivity)."""
        return OpAmpSpec(
            gain=self.gain,
            ugf=self.ugf,
            ibias=self.ibias,
            cl=self.cl,
            area=self.area,
            slew_rate=self.slew_rate,
        )

    def opamp_topology(self) -> OpAmpTopology | None:
        if self.topology is None:
            return None
        fields = dict(self.topology)
        return OpAmpTopology(
            current_source=str(fields["current_source"]),
            diff_pair=str(fields["diff_pair"]),
            gain_stage=fields["gain_stage"],
            output_buffer=bool(fields["output_buffer"]),
            z_load=float(fields["z_load"]),
        )

    def synthesis_spec(self) -> Any:
        from ..synthesis import opamp_synthesis_spec

        synth = opamp_synthesis_spec(self.spec())
        for metric, kind, bound, weight in self.constraints:
            synth.require(metric, kind, bound, weight=weight)
        return synth

    def to_payload(self) -> dict[str, Any]:
        """Canonical JSON form (round-trips through :meth:`from_payload`)."""
        payload: dict[str, Any] = {
            "spec": {
                "gain": self.gain,
                "ugf": self.ugf,
                "ibias": self.ibias,
                "cl": self.cl,
                "area": "inf" if math.isinf(self.area) else self.area,
                "slew_rate": self.slew_rate,
            },
            "name": self.name,
            "mode": self.mode,
            "seed": self.seed,
            "restarts": self.restarts,
            "max_evaluations": self.max_evaluations,
            "tenant": self.tenant,
        }
        if self.topology is not None:
            topo = dict(self.topology)
            if math.isinf(topo["z_load"]):
                topo["z_load"] = "inf"
            payload["topology"] = topo
        if self.constraints:
            payload["constraints"] = [
                {"metric": m, "kind": k, "bound": b, "weight": w}
                for m, k, b, w in self.constraints
            ]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    def fingerprint(self, tech: Any) -> str:
        """Problem identity: same fingerprint ⇒ bit-identical result."""
        from ..synthesis import problems

        return run_fingerprint(
            _FINGERPRINT_KIND,
            problems.EVALUATOR_VERSION,
            repr(tech),
            repr(self.spec()),
            repr(self.opamp_topology()),
            self.mode,
            self.constraints,
            self.seed,
            self.restarts,
            self.max_evaluations,
        )


def job_id_for(fingerprint: str) -> str:
    """Short, URL-safe job id derived from the problem fingerprint."""
    return fingerprint[:16]


class AdmissionError(ApeError):
    """Raised when the admission gate proves a request infeasible.

    Carries the full analyzer report so the server can return a
    structured 422 body (error codes, per-metric reasoning) without
    re-running anything.
    """

    def __init__(
        self,
        message: str,
        *,
        report: dict[str, Any] | None = None,
        error_codes: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message, context={"codes": ",".join(error_codes)})
        self.report: dict[str, Any] = dict(report or {})
        self.error_codes = error_codes


def admit(tech: Any, request: JobRequest) -> dict[str, Any]:
    """Run the pre-solve feasibility gate for a validated request.

    Returns the analyzer report dict on success; raises
    :class:`AdmissionError` when the interval analysis proves the spec
    unreachable (F codes) or self-contradictory (C codes).  Warm, an
    F-coded reject costs a few milliseconds and a feasible Table-1 spec
    15-25 ms, most of it the pairwise (C202) contraction.  No solver
    evaluation is consumed either way, which is the whole point of
    gating before enqueue.
    """
    from ..analysis import analyze_problem

    report = analyze_problem(
        tech,
        request.spec(),
        request.opamp_topology(),
        request.synthesis_spec(),
        mode=request.mode,
        name=request.name,
    )
    if not report.feasible:
        raise AdmissionError(
            "spec is provably infeasible for this technology",
            report=report.to_dict(),
            error_codes=tuple(report.error_codes),
        )
    return report.to_dict()
