"""The APE facade: one entry point over the whole hierarchy.

"APE permits a circuit designer or a circuit synthesis tool to estimate
several characteristics of analog circuits ... at an early stage of the
design process" (paper §1).  The class below exposes the four levels of
Figure 2 through uniform ``estimate_*`` methods; every call returns a
sized object carrying a
:class:`~repro.components.PerformanceEstimate`.

>>> from repro import AnalogPerformanceEstimator
>>> ape = AnalogPerformanceEstimator("generic-0.5um")
>>> amp = ape.estimate_opamp(gain=200, ugf=1.3e6, ibias=1e-6, cl=10e-12)
>>> amp.estimate.gain >= 200
True
"""

from __future__ import annotations

from typing import Any

from .components import (
    CascodeCurrentSource,
    Component,
    CurrentMirror,
    DcVoltageBias,
    DiffCmos,
    DiffNmos,
    GainCmos,
    GainCmosH,
    GainNmos,
    SourceFollower,
    WilsonCurrentSource,
)
from .devices import SizedMos, size_for_gm_id, size_for_id_vov
from .errors import EstimationError, SizingError, TopologyError
from .runtime import faults
from .runtime.diagnostics import Diagnostic, DiagnosticLog
from .modules import (
    AnalogModule,
    AudioAmplifier,
    Comparator,
    FlashAdc,
    InstrumentationAmplifier,
    Integrator,
    InvertingAmplifier,
    R2rDac,
    SallenKeyBandPass,
    SallenKeyLowPass,
    SampleHold,
    ScIntegrator,
    SigmaDeltaModulator,
    SummingAmplifier,
)
from .opamp import OpAmp, OpAmpSpec, OpAmpTopology, coarse_design_opamp, design_opamp
from .technology import MosPolarity, Technology, technology_by_name

__all__ = ["AnalogPerformanceEstimator"]

_COMPONENT_KINDS = {
    "dcvolt": DcVoltageBias,
    "currmirr": CurrentMirror,
    "mirror": CurrentMirror,
    "cascode": CascodeCurrentSource,
    "wilson": WilsonCurrentSource,
    "gainnmos": GainNmos,
    "gaincmos": GainCmos,
    "gaincmosh": GainCmosH,
    "follower": SourceFollower,
    "diffnmos": DiffNmos,
    "diffcmos": DiffCmos,
}

_MODULE_KINDS = {
    "inverting_amplifier": InvertingAmplifier,
    "adder": SummingAmplifier,
    "audio_amplifier": AudioAmplifier,
    "integrator": Integrator,
    "comparator": Comparator,
    "sample_hold": SampleHold,
    "lowpass_filter": SallenKeyLowPass,
    "bandpass_filter": SallenKeyBandPass,
    "flash_adc": FlashAdc,
    "r2r_dac": R2rDac,
    "instrumentation_amplifier": InstrumentationAmplifier,
    "sc_integrator": ScIntegrator,
    "sigma_delta": SigmaDeltaModulator,
}


class AnalogPerformanceEstimator:
    """Hierarchical analog performance estimator (the paper's APE tool).

    ``tolerant=True`` turns estimation failures into graceful
    degradation: an infeasible level-2/3 request falls back to a
    coarser analytical estimate (relaxed gain target, added gain
    stage) instead of raising, and every fallback is recorded as a
    :class:`~repro.runtime.diagnostics.Diagnostic` in
    :attr:`diagnostics` (and on the returned object's ``diagnostics``
    attribute).  The default is strict — identical to the historical
    behaviour.
    """

    def __init__(
        self,
        technology: Technology | str = "generic-0.5um",
        *,
        tolerant: bool = False,
        diagnostics: DiagnosticLog | None = None,
    ) -> None:
        if isinstance(technology, str):
            technology = technology_by_name(technology)
        self.tech = technology
        self.tolerant = tolerant
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticLog()

    # ----------------------------------------------------------- level 1

    def estimate_transistor(
        self,
        *,
        gm: float | None = None,
        ids: float,
        vov: float | None = None,
        polarity: MosPolarity = MosPolarity.NMOS,
        **kwargs: Any,
    ) -> SizedMos:
        """Size a transistor from (gm, Id) or (Id, Vov) — paper §4.1."""
        model = self.tech.model(polarity)
        if gm is not None:
            return size_for_gm_id(model, self.tech, gm=gm, ids=ids, **kwargs)
        if vov is not None:
            return size_for_id_vov(model, self.tech, ids=ids, vov=vov, **kwargs)
        raise EstimationError("specify gm or vov alongside ids")

    # ----------------------------------------------------------- level 2

    def estimate_component(self, kind: str, **spec: Any) -> Component:
        """Size a basic analog component by library name — paper §4.2.

        Kinds: ``dcvolt``, ``currmirr``/``mirror``, ``cascode``,
        ``wilson``, ``gainnmos``, ``gaincmos``, ``gaincmosh``,
        ``follower``, ``diffnmos``, ``diffcmos``.
        """
        try:
            cls = _COMPONENT_KINDS[kind.lower()]
        except KeyError:
            raise TopologyError(
                f"unknown component kind {kind!r}; available: "
                f"{', '.join(sorted(_COMPONENT_KINDS))}"
            ) from None
        if not self.tolerant:
            faults.check("estimator.component")
            return cls.design(self.tech, **spec)
        try:
            faults.check("estimator.component")
            return cls.design(self.tech, **spec)
        except (EstimationError, SizingError) as exc:
            return self._coarse_component(cls, kind, spec, exc)

    def _coarse_component(
        self, cls: type, kind: str, spec: dict[str, Any], exc: Exception
    ) -> Component:
        """Graceful degradation for an infeasible level-2 request.

        Retries unchanged (covers transient failures), then repeatedly
        halves the gain-like entry of the spec; the first coarser
        estimate that sizes is returned with the degradation recorded.
        """
        notes: list[Diagnostic] = [
            self.diagnostics.record_exception(
                "estimator.component",
                exc,
                severity="warning",
                suggested_fix=(
                    "exact sizing infeasible; a coarser analytical "
                    "estimate will be substituted"
                ),
                context={"kind": kind},
            )
        ]
        gain_key = next(
            (k for k in ("gain", "adm") if k in spec and spec[k]), None
        )
        candidates: list[tuple[str, dict[str, Any]]] = [
            ("retry unchanged", dict(spec))
        ]
        if gain_key is not None:
            relaxed = dict(spec)
            for _ in range(6):
                relaxed = dict(relaxed)
                relaxed[gain_key] = relaxed[gain_key] / 2.0  # type: ignore[operator]
                candidates.append(
                    (
                        f"halve {gain_key} to {relaxed[gain_key]:g}",
                        relaxed,
                    )
                )
        last_exc: Exception = exc
        for description, candidate in candidates:
            try:
                component = cls.design(self.tech, **candidate)
            except (EstimationError, SizingError) as retry_exc:
                last_exc = retry_exc
                continue
            notes.append(
                self.diagnostics.record(
                    Diagnostic(
                        subsystem="estimator.component",
                        severity="warning",
                        message=f"{kind}: degraded estimate after: {description}",
                        suggested_fix=(
                            "relax the failing specification or choose a "
                            "higher-capability component kind"
                        ),
                        context={"kind": kind, **(
                            {"requested_" + gain_key: spec[gain_key],
                             "delivered_" + gain_key: candidate[gain_key]}
                            if gain_key is not None else {}
                        )},
                    )
                )
            )
            component.diagnostics = notes  # type: ignore[attr-defined]
            return component
        raise last_exc

    # ----------------------------------------------------------- level 3

    def estimate_opamp(self, *, name: str = "opamp", **fields: Any) -> OpAmp:
        """Size a complete op-amp from its specification — paper §4.3.

        The keywords are a run request's ``spec`` and ``topology`` keys:
        the :class:`OpAmpSpec` fields (``gain`` and ``ugf`` required)
        and the :class:`OpAmpTopology` ones but ``compensated``.  A
        field left out takes its default.
        """
        from .synthesis.config import _SPEC_KEYS, _TOPOLOGY_KEYS

        unknown = sorted(fields.keys() - {*_SPEC_KEYS, *_TOPOLOGY_KEYS})
        if unknown:
            raise TypeError(
                f"estimate_opamp() got an unexpected keyword argument "
                f"{unknown[0]!r}"
            )
        spec = OpAmpSpec(**{k: fields[k] for k in _SPEC_KEYS if k in fields})
        topology = OpAmpTopology(
            **{k: fields[k] for k in _TOPOLOGY_KEYS if k in fields}
        )
        if not self.tolerant:
            return design_opamp(self.tech, spec, topology, name=name)
        amp, notes = coarse_design_opamp(self.tech, spec, topology, name=name)
        if notes:
            for note in notes:
                self.diagnostics.record(note)
            amp.diagnostics = notes  # type: ignore[attr-defined]
        return amp

    # ----------------------------------------------------------- level 4

    def estimate_module(self, kind: str, **spec: Any) -> AnalogModule:
        """Size an analog library module by name — paper §4.4.

        Kinds: ``inverting_amplifier``, ``adder``, ``audio_amplifier``,
        ``integrator``, ``comparator``, ``sample_hold``,
        ``lowpass_filter``, ``bandpass_filter``, ``flash_adc``,
        ``r2r_dac``.
        """
        try:
            cls = _MODULE_KINDS[kind.lower()]
        except KeyError:
            raise TopologyError(
                f"unknown module kind {kind!r}; available: "
                f"{', '.join(sorted(_MODULE_KINDS))}"
            ) from None
        return cls.design(self.tech, **spec)

    # ------------------------------------------------------------ export

    def initial_point(self, opamp: OpAmp) -> dict[str, float]:
        """The sized design point for seeding a synthesis tool."""
        return opamp.initial_point()
