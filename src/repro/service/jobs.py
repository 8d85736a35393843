"""Typed job model for the synthesis service.

A job is a self-contained synthesis request: a
:class:`~repro.synthesis.config.RunConfig` (op-amp spec, optional
topology override, extra constraints, and run parameters: seed,
restarts, evaluation budget) plus the submitting tenant.  Two
submissions describing the same problem — regardless of tenant — share
one *problem fingerprint* (:meth:`RunConfig.job_fingerprint`), which is
what the queue dedupes on and what keys the job's run directory and
shared evaluation store.

Admission control lives here too: :func:`admit` runs the interval
feasibility analyzer (:func:`repro.analysis.analyze_problem`) and
raises :class:`AdmissionError` for provably infeasible (F/C-coded)
specs, so a broken request is rejected in a few milliseconds instead
of consuming a solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import ApeError, SpecificationError
from ..opamp import OpAmpSpec
from ..opamp.topology import OpAmpTopology
from ..synthesis.config import RunConfig
from ..synthesis.specs import SynthesisSpec

__all__ = [
    "JobRequest",
    "AdmissionError",
    "admit",
    "job_id_for",
]


@dataclass(frozen=True)
class JobRequest:
    """Canonical, validated synthesis request: a run plus its tenant.

    Frozen and fully value-based: its :meth:`fingerprint` (and hence
    the queue's dedupe identity) is a pure function of the fields that
    affect the synthesis result.  ``tenant`` deliberately stays *out*
    of the fingerprint so identical problems from different tenants
    share one run and one warm store entry.
    """

    config: RunConfig
    tenant: str = "default"

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Parse and validate a POST /jobs JSON body.

        :meth:`RunConfig.from_payload`'s shape (the ``repro analyze
        --spec-file`` fixtures' ``spec`` / ``topology`` /
        ``constraints`` keys plus run parameters at the top level) and
        ``tenant``.  Raises :class:`~repro.errors.SpecificationError`
        on malformed input — the server maps that to HTTP 400.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError("job payload must be a JSON object")
        run = dict(payload)
        tenant = run.pop("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise SpecificationError("tenant must be a non-empty string")
        return cls(RunConfig.from_payload(run), tenant)

    def spec(self) -> OpAmpSpec:
        return self.config.spec

    def opamp_topology(self) -> OpAmpTopology | None:
        return self.config.topology

    def synthesis_spec(self) -> SynthesisSpec:
        return self.config.resolved_synthesis_spec()

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def restarts(self) -> int:
        return self.config.restarts

    @property
    def max_evaluations(self) -> int:
        return self.config.max_evaluations

    def to_payload(self) -> dict[str, Any]:
        """Canonical JSON form (round-trips through :meth:`from_payload`)."""
        return {**self.config.to_payload(), "tenant": self.tenant}

    def to_json(self) -> str:
        """The queue row's payload column."""
        return json.dumps(self.to_payload(), sort_keys=True)

    def fingerprint(self, tech: Any) -> str:
        """Problem identity: same fingerprint ⇒ bit-identical result."""
        return self.config.job_fingerprint(tech)


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
    report = request.config.analyze(tech)
    if not report.feasible:
        raise AdmissionError(
            "spec is provably infeasible for this technology",
            report=report.to_dict(),
            error_codes=tuple(report.error_codes),
        )
    return report.to_dict()
