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
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
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
    SeaStats,
    SimilarityEnhancement,
    extend_enhancement,
    sea,
)


@dataclass
class SeoBuildStats:
    """Timings and route of one :meth:`SimilarityEnhancedOntology.build`."""

    fusion_seconds: float = 0.0
    sea_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Similarity-graph counters.
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

#: Patches an unknown-term expansion can be carried across (:class:`_Lineage`
#: keeps the strings each of that many patches removed and added); an
#: expansion computed further back is recomputed by a full scan.
LINEAGE_WINDOW = 256


class _Lineage:
    """The string changes along one chain of patched SEOs.

    Every SEO of the chain shares this object and the unknown-term memo.
    An SEO's ``_generation`` counts the patches since the chain's full
    build; ``diffs`` holds, for the newest :data:`LINEAGE_WINDOW` of them,
    the strings the patch removed from the SEO and the strings it added.
    Strings only: the lineage never keeps a superseded SEO alive.
    """

    __slots__ = ("head", "diffs")

    def __init__(self) -> None:
        self.head = 0
        self.diffs: Deque[Tuple[FrozenSet[str], FrozenSet[str]]] = deque(
            maxlen=LINEAGE_WINDOW
        )

    def advance(self, left: FrozenSet[str], joined: FrozenSet[str]) -> int:
        """Record one patch; returns the patched SEO's generation."""
        self.diffs.append((left, joined))
        self.head += 1
        return self.head

    def between(
        self, start: int, end: int
    ) -> Optional[List[Tuple[FrozenSet[str], FrozenSet[str]]]]:
        """The patches that lead from generation ``start`` to ``end``, or
        None when ``start`` is newer than ``end`` or older than the window."""
        first = self.head - len(self.diffs)
        if start > end or start < first:
            return None
        return [self.diffs[i] for i in range(start - first, end - first)]


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
        #: ``expand_similar`` expansions keyed ``(term,)``, the latter
        #: stamped ``(generation, expansion)``.  Shared along a patch
        #: chain with :attr:`_lineage` (see :meth:`_patched`).
        self._similar_cache = LruCache(SIMILAR_MEMO_SIZE)
        self._lineage = _Lineage()
        self._generation = 0

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
        fusion: Optional[FusionResult] = None,
        graph_cache: "Optional[EpsilonGraphCache]" = None,
        previous: "Optional[SimilarityEnhancedOntology]" = None,
    ) -> "SimilarityEnhancedOntology":
        """Fuse ``hierarchies`` under ``constraints``, then enhance with SEA.

        ``guard`` bounds both phases (fusion and SEA) with a deadline /
        step budget — see :class:`~repro.guard.ResourceGuard`.
        :attr:`build_stats` records what happened.  A built SEO outlives
        its process only through the saved system
        (:func:`~repro.core.persistence.save_system` /
        :func:`~repro.core.persistence.load_system`).

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
        """Construct from an enhancement patch, carrying what it left alone.

        ``__init__`` walks every enhanced node to build the
        string-to-nodes index — an O(ontology) pass that would dominate a
        delta build.  The patch names exactly which enhanced nodes came
        and went, so the previous SEO's index is copied and only the
        affected strings' entries are replaced (fresh sets — the shared
        unaffected sets are never mutated after construction).

        The memos are carried the same way, at the cost of the patch
        (a patch keeps the measure and epsilon):

        * a known term's ``~`` expansion survives unless the term is one
          of the removed or added nodes' strings;
        * a ``below`` / ``above`` closure survives unless a removed or
          added node lies in its reach: the nodes above (below) those
          nodes, in the hierarchy that holds them, name every term whose
          ``below`` (``above``) closure can change;
        * the unknown-term memo is shared along the chain (:class:`_Lineage`):
          a pair verdict is a pure function of the two strings, the
          measure and epsilon, and an expansion stamped with an older
          generation is patched on its next read — the strings that left
          the SEO are dropped, and only the newly known strings are
          compared with the constant.

        A previous SEO that is not the newest of its chain (a second
        patch from the same base) starts a new chain with empty memos.
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
        known = previous._nodes_by_string
        index: Dict[str, Set[EnhancedNode]] = dict(known)
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

        expansions = dict(previous._expansion_cache)
        old, new = previous.hierarchy, enhancement.hierarchy
        for kind, upward in (("below", True), ("above", False)):
            reach = _cone(old, removed, upward) | _cone(new, added, upward)
            for node in reach:
                for string in node.strings:
                    expansions.pop((kind, string), None)
        for string in affected:
            expansions.pop(("similar", string), None)
        seo._expansion_cache = expansions

        lineage = previous._lineage
        if previous._generation == lineage.head:
            seo._similar_cache = previous._similar_cache
            seo._lineage = lineage
            seo._generation = lineage.advance(
                frozenset(s for s in affected if s not in index),
                frozenset(s for s in affected if s in index and s not in known),
            )
        else:
            seo._similar_cache = LruCache(SIMILAR_MEMO_SIZE)
            seo._lineage = _Lineage()
            seo._generation = 0
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
        entry = cache.get((term,))
        if entry is not None:
            generation, expansion = entry
            if generation == self._generation:
                return expansion
            patches = self._lineage.between(generation, self._generation)
            if patches is not None:
                expansion = self._carry(term, expansion, patches)
                cache.put((term,), (self._generation, expansion))
                return expansion
        matches = {
            known
            for known in self._nodes_by_string
            if self.measure.bounded_distance(term, known, self.epsilon)
            <= self.epsilon
        }
        matches.add(term)
        expansion = frozenset(matches)
        evicted = cache.put((term,), (self._generation, expansion))
        if evicted:
            METRICS.counter("seo.similar_memo.evictions").inc(evicted)
        return expansion

    def _carry(
        self,
        term: str,
        expansion: FrozenSet[str],
        patches: List[Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> FrozenSet[str]:
        """An unknown term's expansion moved across ``patches``: the
        strings that left the SEO go, and of the strings that joined it
        those within epsilon of ``term`` come in."""
        measure, epsilon = self.measure, self.epsilon
        for left, joined in patches:
            expansion = expansion.difference(left).union(
                known
                for known in joined
                if measure.bounded_distance(term, known, epsilon) <= epsilon
            )
        return expansion | {term}

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


def _cone(
    hierarchy: Hierarchy, nodes: Iterable[EnhancedNode], upward: bool
) -> Set[EnhancedNode]:
    """``nodes`` and every node above (``upward``) or below them, walked
    cover by cover: work proportional to the cone, never the hierarchy."""
    step = hierarchy.parents if upward else hierarchy.children
    reached: Set[EnhancedNode] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(step(node))
    return reached
