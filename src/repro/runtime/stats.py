"""Process-wide performance counters for the synthesis session.

Mirrors the role of :func:`~repro.runtime.diagnostics.global_log` for
throughput: every synthesis run records the work this process did for
it here — its evaluations, wall time, memo-cache and store traffic,
and the counters of the chains it ran — and ``repro diagnostics``
renders the totals so a long table run ends with one honest throughput
line.  A chain a resumed run replays from its journal was counted by
the run (and the process) that made it, so it adds nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["SessionStats", "global_stats"]


@dataclass
class SessionStats:
    """Cumulative evaluation/throughput counters for one process."""

    runs: int = 0
    evaluations: int = 0
    #: Extra per-corner / per-mismatch-sample evaluations performed by
    #: variation-robust runs (beyond the nominal candidate evaluations
    #: counted in ``evaluations``).
    corner_evals: int = 0
    eval_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    worker_restarts: int = 0
    chains_quarantined: int = 0
    chains_resumed: int = 0
    runs_interrupted: int = 0
    #: Persistent-store traffic: lookups served from disk and new rows
    #: flushed back by store-backed runs.
    store_hits: int = 0
    store_writes: int = 0
    #: Proposals the APE move screen left unevaluated, across all
    #: chains of all runs.
    surrogate_skips: int = 0

    #: Each derived rate of :meth:`to_dict`, keyed by the counter it
    #: follows there.
    _RATES = {"eval_seconds": "evals_per_second",
              "cache_evictions": "cache_hit_rate"}

    def record_run(self, **counts: float) -> None:
        """Count one run and add its ``counts`` to the counters of the
        same name; a count this session keeps no counter for (a chain's
        lint rejections, say) is left out."""
        self.runs += 1
        for counter in fields(self):
            if counter.name in counts:
                total = getattr(self, counter.name) + counts[counter.name]
                setattr(self, counter.name, total)

    @property
    def evals_per_second(self) -> float:
        if self.eval_seconds <= 0:
            return 0.0
        return self.evaluations / self.eval_seconds

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def clear(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, counter.default)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every counter plus derived rates."""
        snapshot = {}
        for counter in fields(self):
            snapshot[counter.name] = getattr(self, counter.name)
            rate = self._RATES.get(counter.name)
            if rate is not None:
                snapshot[rate] = getattr(self, rate)
        return snapshot

    def render(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"synthesis runs: {self.runs}",
            f"candidate evaluations: {self.evaluations} "
            f"({self.evals_per_second:.1f} evals/s over "
            f"{self.eval_seconds:.2f}s)",
        ]
        if self.corner_evals:
            lines.append(
                f"corner/mismatch evaluations: {self.corner_evals}"
            )
        if self.cache_hits or self.cache_misses:
            cache_line = (
                f"evaluation cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit rate {self.cache_hit_rate:.1%})"
            )
            if self.cache_evictions:
                cache_line += f", {self.cache_evictions} LRU evictions"
            lines.append(cache_line)
        else:
            lines.append("evaluation cache: unused")
        if self.store_hits or self.store_writes:
            lines.append(
                f"persistent store: {self.store_hits} hits / "
                f"{self.store_writes} new rows written"
            )
        if self.surrogate_skips:
            lines.append(
                f"surrogate screen: {self.surrogate_skips} proposals "
                "skipped"
            )
        if (
            self.worker_restarts
            or self.chains_quarantined
            or self.chains_resumed
            or self.runs_interrupted
        ):
            lines.append(
                f"supervision: {self.worker_restarts} worker restarts, "
                f"{self.chains_quarantined} chains quarantined, "
                f"{self.chains_resumed} chains resumed from journal, "
                f"{self.runs_interrupted} runs interrupted"
            )
        return "\n".join(lines)


_SESSION_STATS = SessionStats()


def global_stats() -> SessionStats:
    """The process-wide counters every synthesis run reports into."""
    return _SESSION_STATS
