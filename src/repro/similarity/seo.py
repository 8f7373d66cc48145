"""Similarity enhanced (fused) ontologies — the SEO of the paper's title.

A :class:`SimilarityEnhancedOntology` packages the whole Section 4
pipeline: per-instance hierarchies are canonically fused under
interoperation constraints, then the fused hierarchy is similarity-enhanced
with SEA.  On top it offers the *string-level* query API the TOSS algebra
and the query executor need:

* ``similar(x, y)`` — the ``~`` operator of Section 5.1.1: true iff some
  enhanced node contains both strings;
* ``expand_similar(term)`` — every string co-habiting an enhanced node with
  ``term`` (how the executor turns one search term into a disjunction);
* ``expand_below(term)`` / ``expand_above(term)`` — downward/upward closure
  through the enhanced hierarchy (isa / below / above conditions);
* ``leq(x, y)`` — the enhanced partial order lifted to strings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import DeltaRefused, UnknownTermError
from ..guard import ResourceGuard
from ..lru import LruCache
from ..obs.metrics import REGISTRY as METRICS
from ..obs.trace import current_tracer
from ..ontology.constraints import InteroperationConstraint
from ..ontology.fusion import FusionResult, canonical_fusion
from ..ontology.hierarchy import Hierarchy
from .incremental import EpsilonGraphCache
from .measures import StringSimilarityMeasure
from .sea import (
    EnhancedNode,
    NodeDistance,
    SeaStats,
    SimilarityEnhancement,
    extend_enhancement,
    sea,
)

if TYPE_CHECKING:  # import cycle: cache.py deserialises through this module
    from .cache import SimilarityGraphCache


@dataclass
class SeoBuildStats:
    """Timings and cache outcome of one :meth:`SimilarityEnhancedOntology.build`."""

    cache_hit: bool = False
    #: Content key of this build's inputs; None when uncacheable or no
    #: cache was supplied.
    cache_key: Optional[str] = None
    fusion_seconds: float = 0.0
    sea_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Similarity-graph counters (None on a cache hit — nothing was built).
    sea: Optional[SeaStats] = None
    #: True when the similarity graph was delta-maintained from a previous
    #: build instead of recomputed (see repro.similarity.incremental).
    incremental: bool = False
    #: True when the fused hierarchy was extended from the previous
    #: build's fusion instead of recondensed.
    fusion_incremental: bool = False
    #: True when the previous *enhancement* was patched in place — SEA
    #: never ran; only the order-context buckets of the leaves that came
    #: or went were reprocessed (see :func:`~repro.similarity.sea
    #: .extend_enhancement`).
    enhancement_patched: bool = False
    #: The :func:`~repro.similarity.sea.extend_enhancement` precondition
    #: that failed when the patch was attempted and SEA ran instead.
    patch_refused: Optional[str] = None
    #: Incremental builds applied since the last from-scratch build of
    #: this relation (0 = this SEO is a full build).
    chain_depth: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "fusion_seconds": self.fusion_seconds,
            "sea_seconds": self.sea_seconds,
            "total_seconds": self.total_seconds,
            "sea": self.sea.to_dict() if self.sea is not None else None,
            "incremental": self.incremental,
            "fusion_incremental": self.fusion_incremental,
            "enhancement_patched": self.enhancement_patched,
            "patch_refused": self.patch_refused,
            "chain_depth": self.chain_depth,
        }


#: Longest provenance chain a patched SEO *retains* (:attr:`~
#: SimilarityEnhancedOntology.patch`).  The serving layer walks the chain
#: to ship enhancement patches instead of whole SEOs and drops the links
#: behind every SEO it has shipped (:meth:`~repro.serving.snapshot
#: .SystemSnapshot.advance`), so the depth counts patched builds since
#: the last refresh; the cap bounds both the walk and the memory the
#: back-references keep alive when nobody refreshes (a longer gap falls
#: back to shipping the full SEO).
MAX_PATCH_CHAIN = 8

#: Entries the unknown-term ``similar`` / ``expand_similar`` memo keeps
#: (keys carry query-supplied strings, so a long-lived worker must bound it).
SIMILAR_MEMO_SIZE = 4096


class SimilarityEnhancedOntology:
    """Fusion + similarity enhancement with string-level lookups."""

    def __init__(
        self,
        fusion: FusionResult,
        enhancement: SimilarityEnhancement,
    ) -> None:
        self.fusion = fusion
        self.enhancement = enhancement
        #: :class:`SeoBuildStats` when constructed via :meth:`build`.
        self.build_stats: Optional[SeoBuildStats] = None
        #: Provenance of a patched build: ``(previous, removed, added)``
        #: — the SEO this one was patched from and the enhanced cliques
        #: the patch dropped/created.  None for full builds and restored
        #: SEOs.  :meth:`SystemSnapshot.delta` walks these references to
        #: ship compact enhancement patches to live workers.
        self.patch: Optional[
            Tuple[
                "SimilarityEnhancedOntology",
                Tuple[EnhancedNode, ...],
                Tuple[EnhancedNode, ...],
            ]
        ] = None
        #: Patched builds since the last full build (caps the chain).
        self.patch_depth: int = 0
        #: string -> enhanced nodes whose string set contains it
        self._nodes_by_string: Dict[str, Set[EnhancedNode]] = {}
        for node in enhancement.hierarchy.terms:
            for string in node.strings:
                self._nodes_by_string.setdefault(string, set()).add(node)
        # The SEO is immutable after construction, so term expansions are
        # memoised: `below`-style conditions evaluate once per embedding
        # candidate and would otherwise recompute the closure every time.
        # Only known terms are kept here, so the ontology bounds it.
        self._expansion_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        #: Results of the unknown-term fallbacks (the raw-measure
        #: comparisons the precomputed index cannot answer), least recently
        #: used out: ``similar`` verdicts keyed ``(x, y)`` and
        #: ``expand_similar`` expansions keyed ``(term,)``.
        self._similar_cache = LruCache(SIMILAR_MEMO_SIZE)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        hierarchies: Mapping[Hashable, Hierarchy],
        measure: StringSimilarityMeasure,
        epsilon: float,
        constraints: Iterable[InteroperationConstraint] = (),
        mode: str = "strict",
        guard: Optional[ResourceGuard] = None,
        cache: "Optional[SimilarityGraphCache]" = None,
        fusion: Optional[FusionResult] = None,
        graph_cache: "Optional[EpsilonGraphCache]" = None,
        previous: "Optional[SimilarityEnhancedOntology]" = None,
    ) -> "SimilarityEnhancedOntology":
        """Fuse ``hierarchies`` under ``constraints``, then enhance with SEA.

        ``guard`` bounds both phases (fusion and SEA) with a deadline /
        step budget — see :class:`~repro.guard.ResourceGuard`.  With
        a :class:`~repro.similarity.cache.SimilarityGraphCache` in
        ``cache``, a build whose inputs hash to a stored entry skips both
        phases and restores the SEO from disk, and a cold build stores its
        result for next time.  Either way :attr:`build_stats` records what
        happened.

        The incremental-maintenance path (``TossSystem.build`` after a
        mutation) passes ``fusion`` — a :class:`FusionResult` already
        extended from the previous build via
        :func:`~repro.ontology.fusion.extend_fusion`, skipping the
        condensation entirely — and ``graph_cache``, the rep-level
        verdict cache SEA replays (see :func:`~repro.similarity.sea.sea`).
        A full build may also pass ``graph_cache`` just to seed it for
        future deltas.  With ``previous`` (the SEO the extended fusion
        grew out of) also given, the build first attempts the cheapest
        path of all — :func:`~repro.similarity.sea.extend_enhancement`
        patches the previous enhancement and string index in delta time,
        and SEA never runs; a failed precondition is recorded in
        :attr:`SeoBuildStats.patch_refused` and SEA runs instead.
        """
        stats = SeoBuildStats()
        stats.fusion_incremental = fusion is not None
        tracer = current_tracer()
        started = time.perf_counter()
        if cache is not None:
            with tracer.span("seo.cache_lookup"):
                stats.cache_key = cache.key(
                    hierarchies, measure, epsilon, constraints, mode
                )
                cached = (
                    cache.load(stats.cache_key)
                    if stats.cache_key is not None
                    else None
                )
                tracer.annotate(hit=cached is not None)
            if cached is not None:
                METRICS.counter("seo.cache.hits").inc()
                stats.cache_hit = True
                stats.total_seconds = time.perf_counter() - started
                cached.build_stats = stats
                return cached
            METRICS.counter("seo.cache.misses").inc()

        if fusion is None:
            with tracer.span("seo.fusion", hierarchies=len(hierarchies)):
                fusion = canonical_fusion(hierarchies, constraints, guard=guard)
        stats.fusion_seconds = time.perf_counter() - started
        patch = None
        if previous is not None and stats.fusion_incremental:
            with tracer.span("seo.sea_patch", mode=mode):
                try:
                    patch = extend_enhancement(
                        previous.enhancement,
                        previous.fusion.hierarchy,
                        fusion.hierarchy,
                        epsilon,
                        mode=mode,
                        guard=guard,
                        reuse=graph_cache,
                    )
                except DeltaRefused as refused:
                    stats.patch_refused = refused.reason
                tracer.annotate(
                    patched=patch is not None, refused=stats.patch_refused
                )
        if patch is not None:
            enhancement, removed_cliques, added_cliques = patch
            stats.enhancement_patched = True
        else:
            with tracer.span("seo.sea", mode=mode):
                enhancement = sea(
                    fusion.hierarchy, measure, epsilon, mode=mode, guard=guard,
                    reuse=graph_cache,
                )
        stats.sea = enhancement.stats
        stats.incremental = stats.enhancement_patched or (
            enhancement.stats is not None and enhancement.stats.incremental
        )
        stats.sea_seconds = (
            time.perf_counter() - started - stats.fusion_seconds
        )
        if patch is not None:
            seo = cls._patched(
                fusion, enhancement, previous, removed_cliques, added_cliques
            )
        else:
            seo = cls(fusion, enhancement)
        if cache is not None and stats.cache_key is not None:
            with tracer.span("seo.cache_store"):
                cache.store(
                    stats.cache_key,
                    seo,
                    meta={
                        "fusion_seconds": stats.fusion_seconds,
                        "sea_seconds": stats.sea_seconds,
                    },
                )
        stats.total_seconds = time.perf_counter() - started
        METRICS.histogram("seo.fusion_seconds").observe(stats.fusion_seconds)
        METRICS.histogram("seo.sea_seconds").observe(stats.sea_seconds)
        METRICS.histogram("seo.build_seconds").observe(stats.total_seconds)
        seo.build_stats = stats
        return seo

    @classmethod
    def _patched(
        cls,
        fusion: FusionResult,
        enhancement: SimilarityEnhancement,
        previous: "SimilarityEnhancedOntology",
        removed: Iterable[EnhancedNode],
        added: Iterable[EnhancedNode],
    ) -> "SimilarityEnhancedOntology":
        """Construct from an enhancement patch without re-indexing.

        ``__init__`` walks every enhanced node to build the
        string-to-nodes index — an O(ontology) pass that would dominate a
        delta build.  The patch names exactly which enhanced nodes came
        and went, so the previous SEO's index is copied and only the
        affected strings' entries are replaced (fresh sets — the shared
        unaffected sets are never mutated after construction).  The memo
        caches start empty: expansions may legitimately change.
        """
        seo = cls.__new__(cls)
        seo.fusion = fusion
        seo.enhancement = enhancement
        seo.build_stats = None
        removed = list(removed)
        added = list(added)
        if previous.patch_depth < MAX_PATCH_CHAIN:
            seo.patch = (previous, tuple(removed), tuple(added))
            seo.patch_depth = previous.patch_depth + 1
        else:
            seo.patch = None
            seo.patch_depth = 0
        index: Dict[str, Set[EnhancedNode]] = dict(previous._nodes_by_string)
        affected: Set[str] = set()
        for node in removed:
            affected.update(node.strings)
        for node in added:
            affected.update(node.strings)
        for string in affected:
            shared = index.get(string)
            index[string] = set(shared) if shared else set()
        for node in removed:
            for string in node.strings:
                index[string].discard(node)
        for node in added:
            for string in node.strings:
                index[string].add(node)
        for string in affected:
            if not index[string]:
                del index[string]
        seo._nodes_by_string = index
        seo._expansion_cache = {}
        seo._similar_cache = LruCache(SIMILAR_MEMO_SIZE)
        return seo

    @classmethod
    def for_hierarchy(
        cls,
        hierarchy: Hierarchy,
        measure: StringSimilarityMeasure,
        epsilon: float,
        mode: str = "strict",
    ) -> "SimilarityEnhancedOntology":
        """SEO over a single already-merged hierarchy (no constraints)."""
        return cls.build({1: hierarchy}, measure, epsilon, mode=mode)

    # -- properties -----------------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self.enhancement.epsilon

    @property
    def measure(self) -> StringSimilarityMeasure:
        return self.enhancement.distance.measure

    @property
    def hierarchy(self) -> Hierarchy:
        """The enhanced hierarchy H' (nodes are :class:`EnhancedNode`)."""
        return self.enhancement.hierarchy

    def strings(self) -> FrozenSet[str]:
        """Every term string known to the ontology."""
        return frozenset(self._nodes_by_string)

    def term_count(self) -> int:
        """Number of distinct term strings (the paper's "ontology size")."""
        return len(self._nodes_by_string)

    def __contains__(self, term: str) -> bool:
        return term in self._nodes_by_string

    # -- string-level queries ---------------------------------------------------

    def nodes_of(self, term: str) -> FrozenSet[EnhancedNode]:
        """Enhanced nodes whose string set contains ``term`` (may be empty)."""
        return frozenset(self._nodes_by_string.get(term, frozenset()))

    def similar(self, x: str, y: str) -> bool:
        """The ``~`` operator: x and y share an enhanced node.

        For strings absent from the ontology, falls back to comparing the
        raw measure against epsilon, so ad-hoc query constants still work.
        """
        if x == y:
            return True
        nodes_x = self._nodes_by_string.get(x)
        nodes_y = self._nodes_by_string.get(y)
        if nodes_x and nodes_y:
            return bool(nodes_x & nodes_y)
        cache = self._similar_cache
        key = (x, y)
        verdict = cache.get(key)
        if verdict is None:
            verdict = (
                self.measure.bounded_distance(x, y, self.epsilon) <= self.epsilon
            )
            evicted = cache.put(key, verdict)
            if evicted:
                METRICS.counter("seo.similar_memo.evictions").inc(evicted)
        return verdict

    def expand_similar(self, term: str) -> FrozenSet[str]:
        """All strings similar to ``term`` (including ``term`` itself).

        Known terms expand through the SEO index (precomputed, as Section 6
        describes); unknown terms are compared against every known string
        with the raw measure — the "(i) compare all nodes" fallback the
        paper contrasts the SEO against.
        """
        cached = self._expansion_cache.get(("similar", term))
        if cached is not None:
            return cached
        nodes = self._nodes_by_string.get(term)
        if nodes:
            result: Set[str] = set()
            for node in nodes:
                result.update(node.strings)
            result.add(term)
            expansion = frozenset(result)
            self._expansion_cache[("similar", term)] = expansion
            return expansion
        cache = self._similar_cache
        expansion = cache.get((term,))
        if expansion is None:
            matches = {
                known
                for known in self._nodes_by_string
                if self.measure.bounded_distance(term, known, self.epsilon)
                <= self.epsilon
            }
            matches.add(term)
            expansion = frozenset(matches)
            evicted = cache.put((term,), expansion)
            if evicted:
                METRICS.counter("seo.similar_memo.evictions").inc(evicted)
        return expansion

    def _closure(self, term: str, downward: bool) -> FrozenSet[str]:
        key = ("below" if downward else "above", term)
        cached = self._expansion_cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes_by_string.get(term)
        if not nodes:
            return frozenset({term})  # unknown: nothing worth memoising
        result: Set[str] = set()
        for node in nodes:
            reach = (
                self.hierarchy.below(node)
                if downward
                else self.hierarchy.above(node)
            )
            for reached in reach:
                result.update(reached.strings)
        result.add(term)
        expansion = frozenset(result)
        self._expansion_cache[key] = expansion
        return expansion

    def expand_below(self, term: str) -> FrozenSet[str]:
        """Strings of every enhanced node <= a node containing ``term``.

        This implements isa/below expansion: querying for "Company" should
        match "web search company", "Google", etc.  Includes the similarity
        expansion of ``term`` itself (nodes containing the term).
        """
        return self._closure(term, downward=True)

    def expand_above(self, term: str) -> FrozenSet[str]:
        """Strings of every enhanced node >= a node containing ``term``."""
        return self._closure(term, downward=False)

    def leq(self, lower: str, upper: str) -> bool:
        """The enhanced order lifted to strings.

        True iff some enhanced node containing ``lower`` is <= some node
        containing ``upper``.  Raises :class:`UnknownTermError` when either
        string is absent (order queries need ontology membership).
        """
        nodes_lower = self._nodes_by_string.get(lower)
        nodes_upper = self._nodes_by_string.get(upper)
        if not nodes_lower or not nodes_upper:
            missing = lower if not nodes_lower else upper
            raise UnknownTermError(f"term {missing!r} is not in the ontology")
        return any(
            self.hierarchy.leq(a, b)
            for a in nodes_lower
            for b in nodes_upper
        )

    def __repr__(self) -> str:
        return (
            f"SimilarityEnhancedOntology({self.term_count()} terms, "
            f"{len(self.hierarchy)} enhanced nodes, epsilon={self.epsilon})"
        )
