"""LRU caches with hit/miss accounting.

:class:`LRUCache` backs the serving engines' query-plan, candidate and
membership-degree caches (and the shard nodes' per-slice degree-vector
memos).  Invalidation is ``data_version``-driven: the engine clears its
caches together whenever the database version moves.

Individual caches are not thread-safe; the serving engines only touch them
from the coordinating thread.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, Sequence

from repro.obs.metrics import Counter


class CacheStats:
    """Counters of one cache: lookups, hits, misses, evictions.

    Storage is a trio of live :class:`repro.obs.metrics.Counter` cells
    (:attr:`hits_cell` & co.) that a serving engine registers in its
    :class:`~repro.obs.MetricsRegistry`.  Attribute *reads* stay plain
    ``int`` value snapshots — ``before = cache.stats.hits`` must not
    alias a mutating cell — while attribute *writes* (``stats.hits += n``)
    land in the registered cell, so the registry and this legacy view can
    never disagree.
    """

    __slots__ = ("hits_cell", "misses_cell", "evictions_cell")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
        self.hits_cell = Counter("cache_hits", value=int(hits))
        self.misses_cell = Counter("cache_misses", value=int(misses))
        self.evictions_cell = Counter("cache_evictions", value=int(evictions))

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return int(self.hits_cell)

    @hits.setter
    def hits(self, value: int) -> None:
        self.hits_cell.reset(int(value))

    @property
    def misses(self) -> int:
        """Lookups that fell through to recomputation."""
        return int(self.misses_cell)

    @misses.setter
    def misses(self, value: int) -> None:
        self.misses_cell.reset(int(value))

    @property
    def evictions(self) -> int:
        """Entries evicted to respect ``maxsize``."""
        return int(self.evictions_cell)

    @evictions.setter
    def evictions(self, value: int) -> None:
        self.evictions_cell.reset(int(value))

    @property
    def lookups(self) -> int:
        """Total lookups counted (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (self.hits, self.misses, self.evictions) == (
            other.hits,
            other.misses,
            other.evictions,
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

    def as_dict(self) -> dict[str, float]:
        """The counters plus hit rate as one plain dict (for snapshots)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry on overflow.

    ``get`` refreshes recency; ``put`` inserts or refreshes.  A ``maxsize``
    of ``None`` disables eviction (unbounded cache).
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def peek(self, key: Hashable, default: object = None) -> object:
        """Look up ``key`` without touching recency or counters."""
        return self._entries.get(key, default)

    def peek_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`peek`: one value (or ``default``) per key, in order.

        No recency updates, no counters — the probe the concurrent batch
        coordinator uses to plan prefetches without perturbing the cache
        statistics a serial execution would have produced.
        """
        get = self._entries.get
        return [get(key, default) for key in keys]

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`get`: one value (or ``default``) per key, in order.

        Counts hits/misses and refreshes recency exactly like per-key
        ``get`` calls, with the per-key call layering hoisted out — the
        serving engines look up hundreds of membership degrees per
        predicate, which makes the bookkeeping itself a hot path.
        """
        entries = self._entries
        move_to_end = entries.move_to_end
        hits = 0
        values: list[object] = []
        append = values.append
        for key in keys:
            if key in entries:
                move_to_end(key)
                hits += 1
                append(entries[key])
            else:
                append(default)
        self.stats.hits += hits
        self.stats.misses += len(values) - hits
        return values

    def put_many(self, items: Sequence[tuple[Hashable, object]]) -> None:
        """Batch :meth:`put`; final contents and counters equal per-key puts."""
        entries = self._entries
        for key, value in items:
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
        if self.maxsize is not None:
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the lifetime)."""
        self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used."""
        return iter(self._entries.keys())
