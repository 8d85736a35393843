"""Content-addressed memoization of candidate evaluations.

Annealing chains revisit parameter points far more often than one
would guess: every proposal that walks into a box bound is clamped
onto the bound itself, so at high temperature a large fraction of
moves land on *exactly* the same clamped coordinates, and independent
restarts share one template and therefore one bound box.  An
:class:`EvalMemo` caches ``(cost, metrics)`` per candidate under a
content-addressed key — the parameter dict quantized in log space —
so a repeated candidate costs a dictionary lookup instead of a DC
solve plus an AWE fit.  Every synthesis run evaluates through one,
a one-chain run included (``memo=False`` opts out), and computes each
candidate's key once: :meth:`EvalMemo.get`/:meth:`EvalMemo.put` take
the key, and a corner or Monte Carlo variant's key is the candidate's
with the variant's tag appended (:meth:`EvalMemo.tagged`).

Correctness contract: memoization is only sound because
:meth:`~repro.synthesis.problems.OpAmpSizingProblem.evaluate` is
*canonical* (history-independent), so evicting or losing an entry can
never change a result — only how fast it arrives.  The parallel
executor relies on the same property for its scheduling independence,
and ``tests/test_parallel.py`` locks it in.

The memo is *bounded*: entries live in an LRU ordering and the oldest
are evicted once ``capacity`` is exceeded (long supervised runs and
repeated runs sharing one memo would otherwise grow the cache without
limit).  Evictions are counted and surfaced through
``repro diagnostics``.

Keys carry no problem identity, so a memo serves one problem: every
run binds it to its problem fingerprint (:meth:`EvalMemo.bind`), which
empties a memo bound to another problem.  A memo may thus be shared
across runs of one problem (repeats, other seeds, a resume).  Pool
workers inherit the run's memo through ``fork`` and send back only
what each chain added (:meth:`EvalMemo.take_new`), which the parent
folds in with :meth:`EvalMemo.merge`.

The binding also names an optional :class:`~repro.store.EvalStore`
behind the LRU.  Lookups read through (promoting store hits into the
LRU); new entries are buffered and written behind in batches by
:meth:`EvalMemo.flush_store`, in the parent only.  Losing the store
tier (corruption, locks) can never change a result, only how fast it
arrives: the same canonical-evaluation contract that makes LRU
eviction safe.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import EvalStore

__all__ = [
    "EvalMemo",
    "MemoReader",
    "memo_key",
    "DEFAULT_QUANTUM",
    "DEFAULT_CAPACITY",
]

#: Quantization step in natural-log space.  1e-9 means two values map
#: to the same key only when they agree to ~1 part in 1e9 — far below
#: any physical tolerance in the flow, so a hit is a true duplicate
#: for every practical purpose, while float dust from clamping or
#: printing round-trips still collapses onto one key.
DEFAULT_QUANTUM = 1e-9

#: Default LRU capacity.  An entry is a quantized key plus a small
#: metrics dict (~a few hundred bytes), so the default bounds the memo
#: at tens of megabytes — far beyond any single run (a 4 x 250-eval
#: fan stores well under 1k entries) but a hard ceiling for a memo
#: shared across thousands of runs of one problem.
DEFAULT_CAPACITY = 65536

MemoKey = tuple[tuple[str, "int | str"], ...]
MemoValue = tuple[float, dict[str, float] | None]

#: Key-element name reserved for the evaluation-context tag.  It starts
#: with a NUL byte so it can never collide with a real parameter name.
_TAG_FIELD = "\x00tag"


def memo_key(
    params: Mapping[str, float],
    quantum: float = DEFAULT_QUANTUM,
    tag: str | None = None,
) -> MemoKey:
    """Content-addressed key: name-sorted, log-quantized parameters.

    Values are keyed by ``round(ln(v) / quantum)`` — a relative grid,
    which is the natural metric for geometric quantities spanning
    decades.  Non-positive values (never produced by the log-space
    annealer, but reachable through direct API use) fall back to an
    exact bit-pattern key (the float's repr — *not* ``hash()``, whose
    string randomization differs across processes) so they never
    collide with anything.

    ``tag`` names the evaluation context — corner/Monte Carlo-aware
    synthesis keys the same parameter dict per corner (``"corner:ss"``)
    and per mismatch sample (``"mc:3"``), so a shared memo can never
    hand a nominal result to a corner evaluation or vice versa.  The
    tag rides in the key as a reserved element whose field name cannot
    collide with a parameter, and string-valued elements round-trip
    the journal's JSON snapshot exactly like integers do.
    """
    items: list[tuple[str, int | str]] = []
    for name in sorted(params):
        value = params[name]
        if value > 0.0:
            items.append((name, round(math.log(value) / quantum)))
        else:
            # Exact fallback: the IEEE bits via the float's repr.
            items.append((name, repr(float(value))))
    if tag is not None:
        items.append((_TAG_FIELD, tag))
    return tuple(items)


class EvalMemo:
    """Bounded (LRU) shared cache of candidate evaluations.

    ``capacity`` caps the entry count (``None`` = unbounded); lookups
    refresh recency and stores evict the least-recently-used entries
    past the cap, counted in ``evictions``.
    """

    def __init__(
        self,
        quantum: float = DEFAULT_QUANTUM,
        *,
        capacity: int | None = DEFAULT_CAPACITY,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if capacity is not None and capacity <= 0:
            raise ValueError(
                f"capacity must be positive or None, got {capacity}"
            )
        self.quantum = quantum
        self.capacity = capacity
        self._data: OrderedDict[MemoKey, MemoValue] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.store_hits = 0
        self.store_writes = 0
        self._store: "EvalStore | None" = None
        self._fingerprint: str | None = None
        #: Entries added since the last flush_store (while a store is
        #: bound) or take_new (once a pool worker reports).
        self._pending: dict[MemoKey, MemoValue] = {}
        self._reporting = False
        #: Counter values at the last take_new.
        self._taken = dict.fromkeys(self._COUNTER_FIELDS, 0)

    # ------------------------------------------------------------- binding

    def bind(self, fingerprint: str, store: "EvalStore | None" = None) -> None:
        """Tie this memo to one problem and that problem's store (or none).

        ``fingerprint`` names the evaluation function and is the store
        namespace.  Binding to another fingerprint drops every entry;
        counters keep running.
        """
        if fingerprint != self._fingerprint:
            self._data.clear()
            self._pending.clear()
        self._fingerprint = fingerprint
        self._store = store

    @property
    def bound_store(self) -> "EvalStore | None":
        return self._store

    @property
    def bound_fingerprint(self) -> str | None:
        return self._fingerprint

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    def _queue_write(self, key: MemoKey, value: MemoValue) -> None:
        if self._store is not None or self._reporting:
            self._pending[key] = value

    def flush_store(self) -> int:
        """Write-behind flush of buffered entries; returns new rows.

        Safe to call repeatedly (the buffer drains) and cheap when the
        store has degraded (``put_many`` no-ops after a Diagnostic).
        """
        if self._store is None or self._fingerprint is None or not self._pending:
            return 0
        entries = list(self._pending.items())
        self._pending.clear()
        inserted = self._store.put_many(self._fingerprint, entries)
        self.store_writes += inserted
        return inserted

    # ------------------------------------------------------------- core API

    def key(
        self, params: Mapping[str, float], tag: str | None = None
    ) -> MemoKey:
        return memo_key(params, self.quantum, tag)

    @staticmethod
    def tagged(key: MemoKey, tag: str) -> MemoKey:
        """The key of ``key``'s parameters in the context ``tag``.

        For ``key = memo_key(params)`` this is ``memo_key(params,
        tag=tag)``, the tag element last, so a candidate's variants
        derive their keys from one base key.
        """
        return key + ((_TAG_FIELD, tag),)

    def lookup(
        self, params: Mapping[str, float], tag: str | None = None
    ) -> MemoValue | None:
        """:meth:`get` of ``params``' key in the context ``tag``."""
        return self.get(self.key(params, tag))

    def get(self, key: MemoKey) -> MemoValue | None:
        """Cached ``(cost, metrics)`` or ``None``; counts the outcome.

        Reads through both tiers: an LRU miss falls back to the bound
        store (if any), and a store hit is promoted into the LRU so
        the hot set stays memory-resident under eviction pressure.
        """
        found = self._data.get(key)
        if found is None:
            if self._store is not None and self._fingerprint is not None:
                found = self._store.get(self._fingerprint, key)
            if found is None:
                self.misses += 1
                return None
            self.store_hits += 1
            # Promote without queuing a write-behind: the entry came
            # *from* the store, so it is already persisted.
            self._store_key(key, found)
            cost, metrics = found
            return cost, (dict(metrics) if metrics is not None else None)
        self.hits += 1
        self._data.move_to_end(key)
        cost, metrics = found
        # Hand out a copy: callers (and the annealer) may mutate metric
        # dicts, and a shared cache must never observe that.
        return cost, (dict(metrics) if metrics is not None else None)

    def holds(self, key: MemoKey) -> bool:
        """Whether the in-memory tier holds ``key``; counts nothing.

        A side-effect-free peek (no recency refresh, no store read), for
        callers that plan work ahead of the lookups they then make.
        """
        return key in self._data

    def reader(self) -> "MemoReader":
        """A read-only view of this memo (see :class:`MemoReader`)."""
        return MemoReader(self)

    def store(
        self,
        params: Mapping[str, float],
        cost: float,
        metrics: dict[str, float] | None,
        tag: str | None = None,
    ) -> None:
        """:meth:`put` under ``params``' key in the context ``tag``."""
        self.put(self.key(params, tag), cost, metrics)

    def put(
        self, key: MemoKey, cost: float, metrics: dict[str, float] | None
    ) -> None:
        value = (cost, dict(metrics) if metrics is not None else None)
        self._store_key(key, value)
        self._queue_write(key, value)
        self.stores += 1

    def _store_key(self, key: MemoKey, value: MemoValue) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        if self.capacity is None:
            return
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def wrap(
        self,
        evaluate: Callable[[dict[str, float]], MemoValue],
    ) -> Callable[[dict[str, float]], MemoValue]:
        """Cache-through wrapper around an ``evaluate(params)`` callable.

        Failed evaluations (``metrics is None``) are cached only while
        no fault injector is armed: injected faults are probabilistic
        per *call*, so caching one would turn a transient fault into a
        permanent verdict for that candidate and skew exact-count fault
        accounting.
        """
        from ..runtime import faults

        def cached(params: dict[str, float]) -> MemoValue:
            key = self.key(params)
            found = self.get(key)
            if found is not None:
                return found
            cost, metrics = evaluate(params)
            if metrics is not None or faults.active() is None:
                self.put(key, cost, metrics)
            return cost, metrics

        return cached

    # ----------------------------------------------------- stats and merging

    def __len__(self) -> int:
        return len(self._data)

    @property
    def lookups(self) -> int:
        return self.hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.store_hits) / total if total else 0.0

    #: Counter fields carried in snapshots and added up on merge.
    _COUNTER_FIELDS = ("hits", "misses", "stores", "evictions", "store_hits")

    def export(self) -> dict:
        """Picklable snapshot of the whole memo (entries + counters)."""
        return {
            "quantum": self.quantum,
            "capacity": self.capacity,
            "data": dict(self._data),
            **{name: getattr(self, name) for name in self._COUNTER_FIELDS},
        }

    def take_new(self) -> dict:
        """What this memo gained since the last call, as a snapshot.

        The entries added since the last call and each counter's growth,
        in the shape :meth:`merge` reads.  A pool worker calls it as each
        chain starts and ends, so a snapshot grows with neither the
        inherited memo nor the worker's earlier chains.
        """
        counters = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        snapshot = {
            "quantum": self.quantum,
            "data": self._pending,
            **{name: counters[name] - self._taken[name] for name in counters},
        }
        self._pending = {}
        self._taken = counters
        self._reporting = True
        return snapshot

    def merge(self, snapshot: "EvalMemo | dict") -> None:
        """Fold a snapshot (or another memo) into this memo.

        Existing entries win: evaluation is canonical, so both sides
        hold the same value and keeping ours is free.  This memo's own
        ``capacity`` is enforced after the fold, and entries new to
        this memo are queued for the write-behind store flush (the
        store's ``INSERT OR IGNORE`` makes re-queuing an entry the
        store already holds a no-op).  Counters add.
        """
        if isinstance(snapshot, EvalMemo):
            snapshot = snapshot.export()
        if snapshot["quantum"] != self.quantum:
            raise ValueError(
                "refusing to merge memos with different quanta: "
                f"{snapshot['quantum']} != {self.quantum}"
            )
        for key, value in snapshot["data"].items():
            if key not in self._data:
                self._store_key(key, value)
                self._queue_write(key, value)
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + int(snapshot.get(name, 0)))


class MemoReader:
    """A read-only view of an :class:`EvalMemo`, for a reporting stage.

    It answers the lookups an evaluator makes from the memo's
    in-memory tier alone and changes nothing: :meth:`get` counts no hit
    or miss and refreshes no recency, and :meth:`put` drops the entry.
    """

    def __init__(self, memo: EvalMemo) -> None:
        self._memo = memo

    def key(
        self, params: Mapping[str, float], tag: str | None = None
    ) -> MemoKey:
        return self._memo.key(params, tag)

    tagged = staticmethod(EvalMemo.tagged)

    def holds(self, key: MemoKey) -> bool:
        return self._memo.holds(key)

    def get(self, key: MemoKey) -> MemoValue | None:
        """A copy of the held ``(cost, metrics)``, or ``None``."""
        found = self._memo._data.get(key)
        if found is None:
            return None
        cost, metrics = found
        return cost, (dict(metrics) if metrics is not None else None)

    def put(
        self, key: MemoKey, cost: float, metrics: dict[str, float] | None
    ) -> None:
        """Write nothing."""
