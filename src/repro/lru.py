"""A shared, thread-safe bounded LRU cache.

Both query-path caches — the database's compiled-XPath cache and the
executor's compiled-plan cache — used to be ad-hoc ``OrderedDict``
idioms with hand-rolled hit/miss fields.  Neither was safe to consult
from more than one thread, which the serving layer's admission path
does (the :class:`~repro.serving.server.QueryServer` may be driven from
multiple client threads while sharing one parent-side executor for
planning).  :class:`LruCache` is the one lock-protected implementation
both now use.

Hit, miss and eviction counts are published through
:data:`repro.obs.metrics.REGISTRY` under ``<metric_prefix>.hits`` /
``.misses`` / ``.evictions`` at the moment they happen, so the
observability surface sees cache behaviour without every call site
re-implementing the bookkeeping.  The raw counters also stay readable
on the cache itself (:attr:`hits`, :attr:`misses`, :attr:`evictions`)
for callers that need per-instance numbers with metrics disabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, List, Optional

from .obs.metrics import REGISTRY as METRICS

#: Sentinel distinguishing "key absent" from a stored None.
_MISSING = object()


class LruCache:
    """A bounded least-recently-used cache guarded by one lock.

    Parameters
    ----------
    size:
        Maximum number of entries; 0 (or negative) disables storage —
        every :meth:`get` misses and :meth:`put` is a no-op, which keeps
        the disabled path behaviourally identical to the previous
        ``OrderedDict`` idiom.
    metric_prefix:
        When set, hit/miss/eviction counters are emitted through
        :data:`repro.obs.metrics.REGISTRY` as ``<prefix>.hits``,
        ``<prefix>.misses`` and ``<prefix>.evictions``.
    """

    __slots__ = (
        "size",
        "metric_prefix",
        "_lock",
        "_entries",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, size: int, metric_prefix: Optional[str] = None) -> None:
        self.size = size
        self.metric_prefix = metric_prefix
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency), or ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        if self.metric_prefix is not None:
            METRICS.counter(
                f"{self.metric_prefix}.{'hits' if hit else 'misses'}"
            ).inc()
        return value if hit else default

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value``, evicting the least recently used past ``size``.

        Returns how many entries were evicted, for callers on hot paths
        that publish their own eviction counter instead of paying for a
        ``metric_prefix`` on every :meth:`get`.
        """
        if self.size <= 0:
            return 0
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted and self.metric_prefix is not None:
            METRICS.counter(f"{self.metric_prefix}.evictions").inc(evicted)
        return evicted

    def clear(self) -> None:
        """Drop every entry (counters are left intact)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def keys(self) -> List[Hashable]:
        """Current keys, least recently used first (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency or the counters."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.keys())

    def __repr__(self) -> str:
        return (
            f"LruCache(size={self.size}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
