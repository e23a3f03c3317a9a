"""The containment memos of one summary, and the LRU they are made of.

Containment ``p ⊆S q`` and the canonical model ``modS(p)`` are functions of
patterns and one summary ``S``, so everything they memoise lives on that
summary: :attr:`repro.summary.dataguide.Summary.containment_memo` is one
:class:`ContainmentMemo`, built on first use and dropped with the summary's
other derived state when a write changes its structure or an edge flag.
Two sessions over different documents therefore never share an entry, and
a memo dies with its summary.

The one module-level mutable is :data:`_LIVE`, a weak registry of every
live memo: :func:`clear_containment_cache` flushes them all (what a cold
measurement needs) and :func:`containment_cache` sums their decision
memos, read-only.  This module imports nothing of the package, so the
summary can own its memo without an import cycle.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

__all__ = [
    "BoundedLruCache",
    "ContainmentMemo",
    "MemoTotals",
    "clear_containment_cache",
    "containment_cache",
]


class BoundedLruCache:
    """Bounded LRU with hit / miss statistics (a zero ``maxsize`` holds
    nothing: every store is evicted at once)."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def lookup(self, key):
        """Return the cached value for ``key`` or None, updating recency."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key, value) -> None:
        """Insert a value, evicting the least recently used entries."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit / miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict:
        """Hit / miss / size statistics (for benchmarks and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.info()}>"


_LIVE: "weakref.WeakSet[ContainmentMemo]" = weakref.WeakSet()


class ContainmentMemo:
    """Everything containment memoises under one summary.

    * ``decisions`` — containment answers keyed by the canonical pattern
      keys (:func:`repro.canonical.hashing.pattern_key`), with
      ``deciders`` counting which decider answered each uncached one;
    * ``models`` — complete canonical models, replayed on repetition (a
      model over ``max_trees_cached`` trees is never stored);
    * ``closures`` — summary number → the strong-closure subtree every
      canonical tree under this summary hangs by reference.

    An aborted, abandoned or capped computation is never stored.
    """

    DECIDERS = ("preconditions", "ancestry_negative", "homomorphism", "canonical")

    def __init__(
        self, decisions: int = 65536, models: int = 512, max_trees_cached: int = 256
    ):
        self.decisions = BoundedLruCache(decisions)
        self.deciders = dict.fromkeys(self.DECIDERS, 0)
        self.models = BoundedLruCache(models)
        self.max_trees_cached = max_trees_cached
        self.closures: dict = {}
        _LIVE.add(self)

    def clear(self) -> None:
        """Drop every entry and reset every counter."""
        self.decisions.clear()
        self.deciders = dict.fromkeys(self.DECIDERS, 0)
        self.models.clear()
        self.closures.clear()


def clear_containment_cache() -> None:
    """Flush the containment memos of every live summary (decisions,
    models, closures and counters): the cold start every honest
    measurement wants."""
    for memo in list(_LIVE):
        memo.clear()


class MemoTotals:
    """The decision memos of every live summary, summed on each read."""

    @property
    def hits(self) -> int:
        return sum(memo.decisions.hits for memo in list(_LIVE))

    @property
    def misses(self) -> int:
        return sum(memo.decisions.misses for memo in list(_LIVE))

    def __len__(self) -> int:
        return sum(len(memo.decisions) for memo in list(_LIVE))

    def info(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


def containment_cache() -> MemoTotals:
    """A read-only view summing every live summary's decision memo."""
    return MemoTotals()
