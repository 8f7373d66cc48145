"""Incremental maintenance of the epsilon-similarity graph.

The expensive phase of SEA (Figure 12) is the epsilon-similarity graph:
every same-context pair of fused nodes runs through the candidate filter
and (for survivors) the bounded edit-distance programme.  For *strong*
measures, Lemma 1 makes the verdict of a pair a pure function of the two
nodes' representative strings, the measure and epsilon — independent of
the hierarchy around them.  That purity is what makes the graph
incrementally maintainable: a verdict computed in one build can be
replayed in the next build for free, and only pairs involving *new*
representatives ever touch the measure again.

:class:`EpsilonGraphCache` stores, per order-context bucket of the last
build, the set of representative strings and the rep-level edge set.  On
the next build each bucket is matched (by representative overlap) against
the cached buckets, known-known verdicts are reused wholesale, and only
new-vs-known and new-vs-new pairs are filtered + verified — the delta
path of :func:`delta_rep_edges`.  Because every reused verdict was itself
produced by ``measure.bounded_distance`` under the same ``(measure,
epsilon)``, the resulting edge set is bit-identical to a from-scratch
build; the property suite asserts exactly that.

The cache is only consulted when the caller guarantees ``(measure,
epsilon)`` are unchanged (see ``TossSystem``'s build-state keying); a
changed threshold or measure starts from an empty cache.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..guard import ResourceGuard
from .candidates import BlockStats, Occurrence, bigram_occurrences, filter_survivors
from .measures import StringSimilarityMeasure

#: A rep-level edge: the pair of representative strings, min first.
RepEdge = Tuple[str, str]


def _rep_pair(a: str, b: str) -> RepEdge:
    return (a, b) if a <= b else (b, a)


class _BucketEntry:
    """One order-context bucket of a previous build, at rep level."""

    __slots__ = ("reps", "edges")

    def __init__(self, reps: Set[str], edges: Set[RepEdge]) -> None:
        self.reps = reps
        self.edges = edges


class EpsilonGraphCache:
    """Reusable rep-level similarity-graph state across SEA builds.

    Valid only while the measure and epsilon are unchanged; the owner
    (the system's build state) drops the cache when either moves.
    Verdicts are keyed purely by representative strings, so the cache
    survives arbitrary hierarchy restructuring — fused nodes may merge,
    split or change context without invalidating a single verdict.
    """

    def __init__(self) -> None:
        self._buckets: List[_BucketEntry] = []
        self._by_rep: Dict[str, int] = {}
        #: rep -> occurrence-tagged bigram profile set (for the count
        #: filter); kept across builds so known reps never re-profile.
        self._occ_sets: Dict[str, FrozenSet[Occurrence]] = {}
        #: Number of builds that have refreshed this cache.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._buckets)

    def occ_set(self, rep: str) -> FrozenSet[Occurrence]:
        cached = self._occ_sets.get(rep)
        if cached is None:
            cached = frozenset(bigram_occurrences(rep))
            self._occ_sets[rep] = cached
        return cached

    def match(self, rep_set: Set[str]) -> Optional[_BucketEntry]:
        """The cached bucket sharing the most representatives, if any."""
        votes: Dict[int, int] = {}
        by_rep = self._by_rep
        for rep in rep_set:
            index = by_rep.get(rep)
            if index is not None:
                votes[index] = votes.get(index, 0) + 1
        if not votes:
            return None
        best = max(votes.items(), key=lambda item: (item[1], -item[0]))[0]
        return self._buckets[best]

    def refresh(self, buckets: List[Tuple[Set[str], Set[RepEdge]]]) -> None:
        """Replace the cached buckets with this build's outcome."""
        self._buckets = [_BucketEntry(reps, edges) for reps, edges in buckets]
        self._by_rep = {}
        live: Set[str] = set()
        for index, entry in enumerate(self._buckets):
            live.update(entry.reps)
            for rep in entry.reps:
                self._by_rep.setdefault(rep, index)
        # Prune profiles of representatives that left the ontology so the
        # cache's footprint tracks the corpus, not its history.
        if len(self._occ_sets) > len(live):
            self._occ_sets = {
                rep: occ for rep, occ in self._occ_sets.items() if rep in live
            }
        self.generation += 1

    def absorb(self, updates: List[Tuple[Set[str], Set[RepEdge]]]) -> None:
        """Fold freshly verified buckets into the cache *in place*.

        The enhancement-patch path (:func:`~repro.similarity.sea
        .extend_enhancement`) touches a handful of buckets instead of
        re-deriving all of them, so it cannot call :meth:`refresh`
        (which replaces the whole bucket list).  Each update is merged
        into the cached bucket sharing the most representatives, or
        appended as a new bucket; verdict purity makes the union safe —
        an edge verified under ``(measure, epsilon)`` stays an edge.
        """
        for rep_set, rep_edges in updates:
            matched = self.match(rep_set)
            if matched is not None:
                matched.reps |= rep_set
                matched.edges |= rep_edges
                index = self._buckets.index(matched)
            else:
                self._buckets.append(_BucketEntry(set(rep_set), set(rep_edges)))
                index = len(self._buckets) - 1
            for rep in rep_set:
                self._by_rep.setdefault(rep, index)
        self.generation += 1

    def retire(self, reps: Iterable[str]) -> None:
        """Forget representatives no node carries any more.

        The enhancement-patch path calls this for withdrawn leaves so the
        cache's footprint keeps tracking the corpus between two
        :meth:`refresh` calls.  A bucket's invariant — every pair of its
        ``reps`` has a verdict, an edge iff similar — survives dropping
        a representative together with its edges.
        """
        for rep in reps:
            index = self._by_rep.pop(rep, None)
            if index is None:
                continue
            bucket = self._buckets[index]
            bucket.reps.discard(rep)
            bucket.edges = {edge for edge in bucket.edges if rep not in edge}
            self._occ_sets.pop(rep, None)
        self.generation += 1


def delta_rep_edges(
    rep_set: Set[str],
    cache: EpsilonGraphCache,
    measure: StringSimilarityMeasure,
    epsilon: float,
    use_filter: bool,
    guard: Optional[ResourceGuard] = None,
    stats: Optional[BlockStats] = None,
) -> Tuple[Set[RepEdge], int]:
    """Rep-level edges of one bucket, reusing cached verdicts.

    Returns ``(edges, reused_pairs)`` where ``edges`` is exactly the set
    of epsilon-similar unordered rep pairs within ``rep_set`` and
    ``reused_pairs`` counts the pairs whose verdict was replayed from the
    cache instead of recomputed.  Fresh pairs run the length +
    Ukkonen-count filter of :func:`~repro.similarity.candidates
    .filter_survivors` and the same ``bounded_distance`` verification as
    :func:`~repro.similarity.candidates.block_edges`, so the output is
    identical to a from-scratch bucket build.
    """
    if stats is None:
        stats = BlockStats()
    matched = cache.match(rep_set)
    if matched is not None:
        known = rep_set & matched.reps
        edges: Set[RepEdge] = {
            edge
            for edge in matched.edges
            if edge[0] in rep_set and edge[1] in rep_set
        }
    else:
        known = set()
        edges = set()
    reused = len(known) * (len(known) - 1) // 2
    fresh = sorted(rep_set - known)
    if not fresh:
        return edges, reused

    seen: List[str] = sorted(known)
    lengths = [len(rep) for rep in seen]
    occ_sets = [cache.occ_set(rep) for rep in seen] if use_filter else None
    for probe in fresh:
        stats.probes += 1
        if guard is not None:
            guard.tick(1, what="SEA similarity graph (delta)")
        occ_p = cache.occ_set(probe) if use_filter else None
        for index in filter_survivors(
            len(probe), occ_p, range(len(seen)), lengths, occ_sets, epsilon
        ):
            known_rep = seen[index]
            stats.candidates += 1
            if guard is not None:
                guard.tick(1, what="SEA similarity graph (delta)")
            if measure.bounded_distance(probe, known_rep, epsilon) <= epsilon:
                stats.edges += 1
                edges.add(_rep_pair(probe, known_rep))
        seen.append(probe)
        lengths.append(len(probe))
        if occ_sets is not None:
            occ_sets.append(occ_p)
    return edges, reused
