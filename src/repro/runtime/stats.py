"""Process-wide performance counters for the synthesis session.

Mirrors the role of :func:`~repro.runtime.diagnostics.global_log` for
throughput: every synthesis run records its evaluation count, wall
time and memo-cache traffic here, and ``repro diagnostics`` renders
the totals so a long table run ends with one honest throughput line.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def record_run(
        self,
        *,
        evaluations: int,
        seconds: float,
        corner_evals: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        cache_evictions: int = 0,
        worker_restarts: int = 0,
        chains_quarantined: int = 0,
        chains_resumed: int = 0,
        interrupted: bool = False,
        store_hits: int = 0,
        store_writes: int = 0,
        surrogate_skips: int = 0,
    ) -> None:
        self.runs += 1
        self.evaluations += evaluations
        self.corner_evals += corner_evals
        self.eval_seconds += seconds
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        self.cache_evictions += cache_evictions
        self.worker_restarts += worker_restarts
        self.chains_quarantined += chains_quarantined
        self.chains_resumed += chains_resumed
        self.runs_interrupted += 1 if interrupted else 0
        self.store_hits += store_hits
        self.store_writes += store_writes
        self.surrogate_skips += surrogate_skips

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
        self.runs = 0
        self.evaluations = 0
        self.corner_evals = 0
        self.eval_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.worker_restarts = 0
        self.chains_quarantined = 0
        self.chains_resumed = 0
        self.runs_interrupted = 0
        self.store_hits = 0
        self.store_writes = 0
        self.surrogate_skips = 0

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every counter plus derived rates."""
        return {
            "runs": self.runs,
            "evaluations": self.evaluations,
            "corner_evals": self.corner_evals,
            "eval_seconds": self.eval_seconds,
            "evals_per_second": self.evals_per_second,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_restarts": self.worker_restarts,
            "chains_quarantined": self.chains_quarantined,
            "chains_resumed": self.chains_resumed,
            "runs_interrupted": self.runs_interrupted,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "surrogate_skips": self.surrogate_skips,
        }

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
