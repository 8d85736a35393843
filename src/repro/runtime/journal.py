"""Write-ahead run journal: checkpoint a synthesis run, resume it later.

A journaled run owns a *run directory*:

``manifest.json``
    One JSON object identifying the run: a fingerprint of the sizing
    problem (technology, spec, topology, mode, seed, restarts,
    evaluation budget, ...), the derived per-chain seeds, and free-form
    metadata.  Resume refuses a directory whose fingerprint does not
    match the requested run.
``journal.jsonl``
    Append-only JSON lines, flushed and fsynced per record
    (write-ahead: a chain is only considered durable once its line is
    on disk).  Record kinds: ``chain-finished`` (the full serialized
    :class:`~repro.parallel.ChainOutcome`), supervision events
    (``worker-restart``, ``chain-retried``, ``chain-quarantined``,
    ``chain-hung``, ``chain-timeout``, ``interrupted``,
    ``chain-resumed``), and ``run-finished``.
``memo.json``
    Snapshot of the run's :class:`~repro.parallel.EvalMemo`, atomically
    replaced after every finished chain, so a resumed run starts with a
    warm cache.  Only a run without a store writes it: a store-backed
    run's store holds every entry, and its resume reads through it.

Because chain seeds are Weyl-derived from ``(master_seed, index)`` and
chain results are pure functions of their tasks, a resumed run —
journaled outcomes for finished chains plus fresh executions of the
rest — reproduces the uninterrupted run's best result bit-for-bit.
JSON floats round-trip exactly (``repr``-based shortest encoding), so
nothing is lost crossing the disk boundary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Iterator

from ..errors import ApeError
from . import faults

__all__ = ["RunJournal", "run_fingerprint"]


def run_fingerprint(*parts: object) -> str:
    """Stable identity of a run configuration.

    Built from ``repr`` of the parts (dataclass reprs are stable and
    value-based here) rather than pickle bytes, whose memo-reference
    layout can differ between processes.
    """
    blob = repr(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _diagnostic_to_jsonable(diagnostic: Any) -> dict:
    return {
        "subsystem": diagnostic.subsystem,
        "severity": diagnostic.severity,
        "message": diagnostic.message,
        "suggested_fix": diagnostic.suggested_fix,
        "context": _jsonable_context(diagnostic.context),
        "exception_chain": list(diagnostic.exception_chain),
    }


def _jsonable_context(context: dict) -> dict:
    """Context payloads may hold tuples/objects; coerce for JSON."""
    out = {}
    for key, value in context.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [
                v if isinstance(v, (str, int, float, bool)) or v is None
                else repr(v)
                for v in value
            ]
        else:
            out[key] = repr(value)
    return out


def _diagnostic_from_jsonable(payload: dict) -> Any:
    from .diagnostics import Diagnostic

    return Diagnostic(
        subsystem=payload["subsystem"],
        severity=payload["severity"],
        message=payload["message"],
        suggested_fix=payload.get("suggested_fix", ""),
        context=dict(payload.get("context", {})),
        exception_chain=tuple(payload.get("exception_chain", ())),
    )


def outcome_to_jsonable(outcome: Any) -> dict:
    """Serialize a ChainOutcome (sans memo snapshot) for the journal.

    The ``anneal`` object holds the :class:`AnnealResult` fields in
    their declared order, which is the journal's key order.
    """
    return {
        "chain_index": outcome.chain_index,
        "seed": outcome.seed,
        "anneal": dataclasses.asdict(outcome.anneal),
        "degraded_design": outcome.degraded_design,
        "ape_seconds": outcome.ape_seconds,
        **outcome.counts,
        "diagnostics": [
            _diagnostic_to_jsonable(d) for d in outcome.diagnostics
        ],
    }


def outcome_from_jsonable(payload: dict) -> Any:
    """Rebuild a ChainOutcome journaled by :func:`outcome_to_jsonable`.

    A counter the record lacks replays as 0: records written before
    robust synthesis, the store or the APE screen carry no corner,
    screen, store or skip counters.  An ``anneal`` key that
    :class:`AnnealResult` does not declare (an older journal's refit
    counter) is dropped.
    """
    from ..parallel.executor import CHAIN_COUNTERS, ChainOutcome
    from ..synthesis.annealing import AnnealResult

    anneal = payload["anneal"]
    return ChainOutcome(
        chain_index=payload["chain_index"],
        seed=payload["seed"],
        anneal=AnnealResult(**{
            field.name: anneal[field.name]
            for field in dataclasses.fields(AnnealResult)
            if field.name in anneal
        }),
        degraded_design=payload["degraded_design"],
        ape_seconds=payload["ape_seconds"],
        counts={name: payload.get(name, 0) for name in CHAIN_COUNTERS},
        diagnostics=[
            _diagnostic_from_jsonable(d) for d in payload["diagnostics"]
        ],
    )


class RunJournal:
    """Filesystem-backed journal of one synthesis run."""

    SCHEMA = "repro-run-journal/1"
    MANIFEST = "manifest.json"
    JOURNAL = "journal.jsonl"
    MEMO = "memo.json"

    def __init__(self, run_dir: str | os.PathLike) -> None:
        self.run_dir = os.fspath(run_dir)

    # ------------------------------------------------------------- manifest

    def _path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def exists(self) -> bool:
        return os.path.isfile(self._path(self.MANIFEST))

    def initialize(self, manifest: dict) -> None:
        """Start a fresh run: write the manifest, truncate the journal."""
        os.makedirs(self.run_dir, exist_ok=True)
        payload = {"schema": self.SCHEMA, **manifest}
        self._atomic_write(self.MANIFEST, json.dumps(payload, indent=2))
        # Truncate any stale journal/memo so a reused directory cannot
        # leak chains from an unrelated earlier run.
        open(self._path(self.JOURNAL), "w", encoding="utf-8").close()
        memo_path = self._path(self.MEMO)
        if os.path.exists(memo_path):
            os.unlink(memo_path)

    def load_manifest(self) -> dict:
        try:
            with open(self._path(self.MANIFEST), encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError as exc:
            raise ApeError(
                f"no run journal at {self.run_dir!r} (missing manifest.json)",
                context={"run_dir": self.run_dir},
            ) from exc
        except json.JSONDecodeError as exc:
            raise ApeError(
                f"corrupt run manifest in {self.run_dir!r}: {exc}",
                context={"run_dir": self.run_dir},
            ) from exc

    # ------------------------------------------------------- sidecar files

    def write_sidecar(self, name: str, payload: dict) -> None:
        """Atomically write an auxiliary JSON document (e.g. CLI args)."""
        os.makedirs(self.run_dir, exist_ok=True)
        self._atomic_write(name, json.dumps(payload, indent=2))

    def load_sidecar(self, name: str) -> dict | None:
        try:
            with open(self._path(name), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    # -------------------------------------------------------- journal lines

    def append(self, event: str, **payload: Any) -> None:
        """Write-ahead append: the line is fsynced before returning."""
        line = json.dumps({"event": event, **payload}, sort_keys=False)
        with open(self._path(self.JOURNAL), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def events(self) -> Iterator[dict]:
        """Journal records in order; tolerates a torn final line."""
        try:
            handle = open(self._path(self.JOURNAL), encoding="utf-8")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves at most one torn tail
                    # line; everything before it is intact.
                    return

    def record_outcome(self, outcome: Any) -> None:
        """Append a ``chain-finished`` record; host ``service.crash``.

        The fault site fires right after the record is fsynced, on the
        thread that finished the chain: a simulated ``kill -9`` (no
        cleanup, no flush, no queue update) that leaves exactly that
        chain durable.
        """
        self.append("chain-finished", outcome=outcome_to_jsonable(outcome))
        if faults.fires(faults.SERVICE_CRASH):
            os._exit(faults.CRASH_EXIT_CODE)

    def load_outcomes(self) -> dict[int, Any]:
        """Finished chains by index (later duplicates win harmlessly)."""
        outcomes: dict[int, Any] = {}
        for record in self.events():
            if record.get("event") == "chain-finished":
                outcome = outcome_from_jsonable(record["outcome"])
                outcomes[outcome.chain_index] = outcome
        return outcomes

    # ---------------------------------------------------------------- memo

    def snapshot_memo(self, memo: Any) -> None:
        """Atomically replace the memo snapshot with ``memo``'s state."""
        payload = memo.export()
        payload["entries"] = [
            [[list(pair) for pair in key], cost, metrics]
            for key, (cost, metrics) in payload.pop("data").items()
        ]
        self._atomic_write(self.MEMO, json.dumps(payload))

    def load_memo(self) -> Any | None:
        """The journaled memo, or ``None`` when absent/corrupt."""
        from ..parallel.memo import EvalMemo

        try:
            with open(self._path(self.MEMO), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        memo = EvalMemo(payload["quantum"], capacity=payload.get("capacity"))
        payload["data"] = {
            tuple((name, q) for name, q in key): (cost, metrics)
            for key, cost, metrics in payload.pop("entries")
        }
        memo.merge(payload)
        return memo

    # -------------------------------------------------------------- helpers

    def _atomic_write(self, name: str, text: str) -> None:
        path = self._path(name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
