"""Uniform cache observability: one namespace for every LRU in the repo.

Every cache family registers a *stats provider* — a zero-argument
callable returning a :class:`CacheStats` — under a dotted name
(``core.plan``, ``hw.sim``, ``serve.deploy``, ...). Providers are pulled
only at snapshot time, so registration adds zero overhead to cache hot
paths; a provider may return ``None`` to mean "no live cache right now",
and such entries are skipped.

:class:`BoundedCache` is the one LRU primitive: a lock-guarded bounded
mapping with hit/miss/eviction accounting that registers itself under its
family name through a weak reference, so per-instance caches are never
pinned by the registry. ``hw.windows`` (a stdlib ``functools.lru_cache``)
registers a plain provider instead.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

__all__ = [
    "BoundedCache",
    "CacheStats",
    "cache_snapshot",
    "cache_stats",
    "register_cache",
    "registered_caches",
    "unregister_cache",
]

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction accounting of one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: Optional[int] = None
    name: str = ""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


_providers: Dict[str, Callable[[], Optional[CacheStats]]] = {}
_lock = threading.Lock()


def register_cache(
    name: str, provider: Callable[[], Optional[CacheStats]]
) -> None:
    """Register (or replace) the stats provider of one cache family.

    ``name`` is the family's dotted namespace entry; re-registering
    replaces the previous provider, so the most recently constructed
    instance cache (the serve deployment cache) wins the name.
    """
    if not name:
        raise ValueError("cache family needs a name")
    with _lock:
        _providers[name] = provider


def unregister_cache(name: str) -> None:
    with _lock:
        _providers.pop(name, None)


def registered_caches() -> List[str]:
    """Registered family names, sorted (providers may still yield None)."""
    with _lock:
        return sorted(_providers)


def cache_stats() -> Dict[str, CacheStats]:
    """Live stats of every registered family, keyed by family name."""
    with _lock:
        providers = dict(_providers)
    stats: Dict[str, CacheStats] = {}
    for name in sorted(providers):
        result = providers[name]()
        if result is not None:
            stats[name] = result
    return stats


def cache_snapshot() -> Dict[str, Dict[str, object]]:
    """JSON-serializable view of :func:`cache_stats`."""
    return {name: stats.as_dict() for name, stats in cache_stats().items()}


#: Lookup result meaning "absent" (a cached ``None`` is a legitimate hit).
_MISSING = object()
#: Leads the internal key of every owner-scoped entry, so owner keys never
#: collide with plain ones and owner eviction can find them.
_OWNED = object()


def _drop_owner(cache_ref: "weakref.ref[BoundedCache]", owner_id: int) -> None:
    """Finalizer body; holds the cache weakly so owners never pin it."""
    cache = cache_ref()
    if cache is not None:
        cache._drop_owner(owner_id)


class BoundedCache:
    """A thread-safe LRU with hit/miss/eviction accounting.

    Each instance registers itself as the telemetry family ``name``
    through a weak reference; constructing another instance of the same
    family takes the name over, and a collected instance drops out of
    :func:`cache_stats`.

    With ``owner=``, an entry is scoped to that object's identity: a hit
    re-checks the identity through a weakref, and when the owner is
    garbage collected its entries are dropped and counted as evictions.
    Each live owner carries exactly one ``weakref.finalize``, however often
    the LRU bound evicts and readmits its entries.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._owners: Dict[int, Tuple["weakref.ref", weakref.finalize]] = {}
        # Reentrant: an owner's finalizer can fire from a GC triggered while
        # this thread already holds the lock.
        self._lock = threading.RLock()
        ref = weakref.ref(self)

        def provider() -> Optional[CacheStats]:
            cache = ref()
            return cache.stats() if cache is not None else None

        register_cache(name, provider)

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, key: Hashable, owner: object, admit: bool) -> Hashable:
        """Internal key of ``key`` (caller holds the lock)."""
        if owner is None:
            return key
        owner_id = id(owner)
        record = self._owners.get(owner_id)
        if record is not None and record[0]() is not owner:
            # The id was recycled from a collected owner.
            self._drop_owner(owner_id)
            record = None
        if record is None and admit:
            finalizer = weakref.finalize(
                owner, _drop_owner, weakref.ref(self), owner_id
            )
            self._owners[owner_id] = (weakref.ref(owner), finalizer)
        return (_OWNED, owner_id, key)

    def _lookup(self, key: Hashable, owner: object) -> object:
        """Counted lookup; ``_MISSING`` on a miss (caller holds the lock)."""
        internal = self._key(key, owner, admit=False)
        value = self._entries.get(internal, _MISSING)
        if value is _MISSING:
            self.misses += 1
        else:
            self._entries.move_to_end(internal)
            self.hits += 1
        return value

    def _insert(self, internal: Hashable, value: object) -> None:
        """Store ``value`` as most recent, then enforce the bound."""
        self._entries[internal] = value
        self._entries.move_to_end(internal)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _drop_owner(self, owner_id: int) -> None:
        with self._lock:
            record = self._owners.pop(owner_id, None)
            if record is not None:
                record[1].detach()
            stale = [
                k
                for k in self._entries
                if type(k) is tuple and k[:2] == (_OWNED, owner_id)
            ]
            for k in stale:
                del self._entries[k]
            self.evictions += len(stale)

    def get(self, key: Hashable, owner: object = None) -> Optional[object]:
        """The cached value, or ``None`` on a miss."""
        with self._lock:
            value = self._lookup(key, owner)
        return None if value is _MISSING else value

    def put(self, key: Hashable, value: object, owner: object = None) -> None:
        """Insert (or overwrite) ``key`` as the most recently used entry."""
        with self._lock:
            self._insert(self._key(key, owner, admit=True), value)

    def get_or_create(
        self, key: Hashable, factory: Callable[[], T], owner: object = None
    ) -> T:
        """The cached value for ``key``, running ``factory`` on a miss.

        The factory runs outside the lock (it is the expensive part).
        Racing callers may both run it, but the first insert wins, so
        every caller gets the same object.
        """
        with self._lock:
            value = self._lookup(key, owner)
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        created = factory()
        with self._lock:
            internal = self._key(key, owner, admit=True)
            value = self._entries.get(internal, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(internal)
                return value  # type: ignore[return-value]
            self._insert(internal, created)
        return created

    def clear(self) -> None:
        """Drop every entry and owner finalizer and zero the counters."""
        with self._lock:
            for _, finalizer in self._owners.values():
                finalizer.detach()
            self._owners.clear()
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
                name=self.name,
            )
