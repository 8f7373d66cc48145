"""The database facade: named collections + query statistics.

Plays the role Apache Xindice plays in the paper's architecture (Figure 8):
the Query Executor hands it XPath strings and gets node-sets back.  The
:class:`QueryStatistics` counter records how many queries ran and how long
they took, which the scalability experiments report (the paper breaks its
timings into pattern-tree rewrite time, Xindice execution time and result
re-parse time — the middle term is measured here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import CollectionError
from ..guard import ResourceGuard
from ..lru import LruCache
from ..obs.metrics import REGISTRY as METRICS
from .collection import XINDICE_DOCUMENT_LIMIT, Collection
from .xpath import XPathQuery
from .xpath.engine import ResultNode

#: Size of the compiled-XPath LRU cache.
DEFAULT_QUERY_CACHE_SIZE = 256


@dataclass
class QueryStatistics:
    """Aggregate query counters for one database."""

    queries_run: int = 0
    total_seconds: float = 0.0
    results_returned: int = 0
    #: Compiled-XPath cache counters (see :meth:`Database.compile`).
    cache_hits: int = 0
    cache_misses: int = 0

    def record(self, seconds: float, result_count: int) -> None:
        self.queries_run += 1
        self.total_seconds += seconds
        self.results_returned += result_count

    def reset(self) -> None:
        self.queries_run = 0
        self.total_seconds = 0.0
        self.results_returned = 0
        self.cache_hits = 0
        self.cache_misses = 0


class Database:
    """A set of named collections with an XPath query service."""

    def __init__(self, max_document_bytes: int = XINDICE_DOCUMENT_LIMIT) -> None:
        self.max_document_bytes = max_document_bytes
        self._collections: Dict[str, Collection] = {}
        self.statistics = QueryStatistics()
        self._query_cache = LruCache(
            DEFAULT_QUERY_CACHE_SIZE, metric_prefix="xpath.query_cache"
        )
        #: Set by :func:`repro.xmldb.storage.load_database` when the
        #: database was salvaged from a damaged directory.
        self.recovery_report = None

    # -- collection management --------------------------------------------------

    def create_collection(self, name: str) -> Collection:
        if name in self._collections:
            raise CollectionError(f"collection {name!r} already exists")
        collection = Collection(name, self.max_document_bytes)
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionError(f"no collection named {name!r}") from None

    def get_or_create_collection(self, name: str) -> Collection:
        if name in self._collections:
            return self._collections[name]
        return self.create_collection(name)

    def drop_collection(self, name: str) -> None:
        if name not in self._collections:
            raise CollectionError(f"no collection named {name!r}")
        del self._collections[name]

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def collections(self) -> Iterator[Collection]:
        return iter(self._collections.values())

    def collection_names(self) -> List[str]:
        return list(self._collections)

    # -- query service ------------------------------------------------------------

    def compile(self, query: str) -> XPathQuery:
        """Parse an XPath query, caching compiled forms in a bounded LRU.

        The cache is a thread-safe :class:`~repro.lru.LruCache` holding
        at most :data:`DEFAULT_QUERY_CACHE_SIZE` entries (the least
        recently used is evicted first); it emits
        ``xpath.query_cache.hits`` / ``.misses`` / ``.evictions`` through
        :mod:`repro.obs.metrics` and mirrors hit/miss counts onto
        :attr:`statistics`.
        """
        compiled = self._query_cache.get(query)
        if compiled is not None:
            self.statistics.cache_hits += 1
            return compiled
        self.statistics.cache_misses += 1
        compiled = XPathQuery(query)
        self._query_cache.put(query, compiled)
        return compiled

    def generation_signature(self) -> Tuple[Tuple[str, int], ...]:
        """A comparable fingerprint of the database's document state.

        ``((collection name, generation), ...)`` sorted by name: equal
        signatures mean no collection was created, dropped or mutated in
        between.  The serving layer uses this to invalidate worker-pool
        snapshots (see :class:`~repro.serving.snapshot.SystemSnapshot`).
        """
        return tuple(
            (name, self._collections[name].generation)
            for name in sorted(self._collections)
        )

    def xpath(
        self,
        collection_name: str,
        query: str,
        document_key: Optional[str] = None,
        guard: Optional[ResourceGuard] = None,
        document_keys: Optional[Iterable[str]] = None,
    ) -> List[ResultNode]:
        """Run an XPath query against a collection (or one document of it).

        ``document_keys`` restricts a collection-wide query to a subset
        of documents, preserving collection order — the executor's
        index-driven pruning path uses this.

        Timing and result counts are accumulated in :attr:`statistics`.
        With a :class:`~repro.guard.ResourceGuard`, evaluation honours its
        deadline/step budget and the result-count cap.
        """
        collection = self.get_collection(collection_name)
        compiled = self.compile(query)
        started = time.perf_counter()
        if document_key is None:
            results = collection.xpath(
                compiled, guard=guard, document_keys=document_keys
            )
        else:
            results = collection.xpath_document(document_key, compiled, guard=guard)
        self._record_query(query, time.perf_counter() - started, len(results), guard)
        return results

    def xpath_rows(
        self,
        collection_name: str,
        query: str,
        guard: Optional[ResourceGuard] = None,
        document_keys: Optional[Iterable[str]] = None,
    ):
        """Columnar ``(columns, row)`` pairs for a query, or None.

        The batched-verification fetch: when the compiled query is
        inside the columnar subset, the matching candidates come back as
        ``(DocumentColumns, row)`` pairs covering the exact node
        sequence :meth:`xpath` would return, at the same guard charges.
        None means the caller must fall back to :meth:`xpath`.
        Statistics and metrics are recorded the same way as a
        node-returning query.
        """
        collection = self.get_collection(collection_name)
        compiled = self.compile(query)
        started = time.perf_counter()
        pairs = collection.xpath_rows(
            compiled, guard=guard, document_keys=document_keys
        )
        if pairs is None:
            return None
        self._record_query(query, time.perf_counter() - started, len(pairs), guard)
        return pairs

    def _record_query(
        self, query: str, seconds: float, results: int, guard: Optional[ResourceGuard]
    ) -> None:
        self.statistics.record(seconds, results)
        METRICS.counter("xpath.queries").inc()
        METRICS.counter("xpath.results").inc(results)
        METRICS.histogram("xpath.seconds").observe(seconds)
        if guard is not None:
            guard.check_results(results, f"xpath query {query!r}")

    def total_bytes(self) -> int:
        return sum(c.total_bytes() for c in self._collections.values())

    def __repr__(self) -> str:
        inventory = ", ".join(
            f"{name}({len(collection)})"
            for name, collection in self._collections.items()
        )
        return f"Database({inventory})"
