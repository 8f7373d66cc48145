"""Candidate generation for epsilon-similarity: the SEA graph and join probes.

The SEA precomputation (Figure 12) needs every pair of hierarchy nodes
within edit distance epsilon, and a cross-source ``~`` join (Example 13)
needs every such pair *across* two term sets.  Enumerating all pairs and
running the bounded edit distance on each is the dominant cost of a
build over a real ontology — and of a join probe over a few thousand
titles; the similarity-join literature replaces
the enumeration with *candidate generation*: an inverted index over
string features emits a small superset of the truly similar pairs, and
only that superset is verified.

This module implements the classic edit-distance filter stack for the
unit-cost Levenshtein measure:

* **length filter** — ``|len(x) - len(y)| <= epsilon`` is necessary;
* **count filter** (Ukkonen) — the L1 distance between q-gram profiles
  satisfies ``L1 <= 2 q ed(x, y)``, so with q = 2 a pair within epsilon
  shares at least ``ceil((p_x + p_y - 4 epsilon) / 2)`` bigram
  *occurrences* (profiles are multisets; an occurrence ``(gram, k)`` is
  the k-th copy of ``gram``, which turns multiset intersection into
  plain set intersection);
* **prefix filter** — order every profile by ascending global gram
  frequency; two profiles meeting the count threshold must share an
  occurrence within their first ``floor(2.5 epsilon) + 2`` entries
  (the standard prefix-filter bound, using the length filter to cap the
  profile-size gap at epsilon), so only those short prefixes are
  indexed and probed.  Pairs whose count threshold is non-positive
  (both profiles tiny relative to ``4 epsilon``) cannot be found through
  shared grams at all and are generated from a separate small-profile
  pool.

Pairs that share no indexed occurrence are therefore *never generated*,
which removes the quadratic enumeration for realistic inputs.  One
:class:`CandidateIndex` implements the stack for both shapes: the
self-join (:func:`block_edges`) and the bipartite join
(:func:`bipartite_index` + :func:`similar_pairs`).  The self-join
walks strings in a deterministic length-sorted order against the
already-indexed ones.  The enhancement patch probes one new string
against its bucket's with :func:`similar_among`, the same filter pair
without an index.

For measures where the q-gram bound is unsound (anything other than
plain :class:`~repro.similarity.measures.Levenshtein`), callers pass
``use_filter=False`` and :func:`block_edges` degrades to verified
all-pairs enumeration over the same probe order (the bipartite join
decides the same way from :func:`supports_filter`); the length filter
still applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..guard import ResourceGuard
from .measures import Levenshtein, StringSimilarityMeasure

#: Occurrence-tagged bigram: the k-th copy of a gram in one profile.
Occurrence = Tuple[str, int]


def supports_filter(measure: StringSimilarityMeasure) -> bool:
    """True when the q-gram count filter is sound for ``measure``.

    The Ukkonen bound is only claimed for plain unit-cost Levenshtein;
    Damerau transpositions, normalisation and token measures all break
    it, so they fall back to all-pairs verification.
    """
    return type(measure) is Levenshtein


def bigram_occurrences(text: str) -> Tuple[Occurrence, ...]:
    """The occurrence-tagged bigram profile of ``text``.

    Strings shorter than 2 characters contribute their whole text as a
    single pseudo-gram (mirroring ``_bigrams`` in the SEA module); such
    profiles are always small enough for the small-profile pool, so the
    unsoundness of the q-gram bound on them never matters.
    """
    if len(text) < 2:
        return ((text, 1),)
    grams = [text[i : i + 2] for i in range(len(text) - 1)]
    if len(set(grams)) == len(grams):
        return tuple([(gram, 1) for gram in grams])
    counts: Dict[str, int] = {}
    out: List[Occurrence] = []
    for gram in grams:
        k = counts.get(gram, 0) + 1
        counts[gram] = k
        out.append((gram, k))
    return tuple(out)


def length_sorted_order(reps: Sequence[str]) -> List[int]:
    """Deterministic probe order: ascending length, then text, then index.

    Probing in length order means every probe only looks *backwards* at
    strings no longer than itself, which keeps the per-pair count
    threshold (and hence the prefix bound) tight.
    """
    return sorted(range(len(reps)), key=lambda i: (len(reps[i]), reps[i], i))


@dataclass
class BlockStats:
    """Counters for one :func:`block_edges` / :func:`similar_pairs` call."""

    #: Strings probed.
    probes: int = 0
    #: Pairs that reached verification (the filters' output size).
    candidates: int = 0
    #: Verified epsilon-similar pairs.
    edges: int = 0
    #: Length-compatible pairs the probes faced (:func:`similar_pairs` only).
    length_compatible: int = 0

    def merge(self, other: "BlockStats") -> None:
        self.probes += other.probes
        self.candidates += other.candidates
        self.edges += other.edges
        self.length_compatible += other.length_compatible


def gram_frequencies(profiles: Iterable[Sequence[Occurrence]]) -> Dict[str, int]:
    """Bigram occurrence totals over ``profiles`` — the prefix order's key."""
    frequency: Dict[str, int] = {}
    for occ in profiles:
        for gram, _ in occ:
            frequency[gram] = frequency.get(gram, 0) + 1
    return frequency


def filter_survivors(
    length: int,
    occ_set: Optional[FrozenSet[Occurrence]],
    positions: Iterable[int],
    lengths: Sequence[int],
    occ_sets: Optional[Sequence[FrozenSet[Occurrence]]],
    epsilon: float,
) -> List[int]:
    """Of ``positions``, those that pass the length and count filters.

    The one implementation of the pair filter: ``|len(x) - len(y)| <=
    epsilon`` and — with occurrence sets — the exact Ukkonen count
    bound, the multiset L1 distance of the bigram profiles (symmetric
    difference of occurrence sets) at most ``2 q epsilon = 4 epsilon``.
    ``occ_sets=None`` (measures the bound is unsound for) keeps the
    length filter only.
    """
    if occ_sets is None:
        return [q for q in positions if abs(length - lengths[q]) <= epsilon]
    budget = 4.0 * epsilon
    return [
        q
        for q in positions
        if abs(length - lengths[q]) <= epsilon
        and len(occ_set ^ occ_sets[q]) <= budget
    ]


def similar_among(
    text: str,
    others: Sequence[str],
    measure: StringSimilarityMeasure,
    epsilon: float,
    profiles: Optional[Dict[str, FrozenSet[Occurrence]]],
    stats: BlockStats,
    guard: Optional[ResourceGuard] = None,
) -> List[str]:
    """Those of ``others`` (distinct strings) within ``epsilon`` of ``text``.

    One probe of the enhancement patch: :func:`filter_survivors`, then
    ``bounded_distance`` on what survives.  ``profiles`` memoises each
    string's occurrence set across probes; None (measures the count
    bound is unsound for) keeps the length filter only.  ``guard`` is
    ticked once for the probe and once per verified candidate.
    """
    stats.probes += 1
    if guard is not None:
        guard.tick(1, what="SEA enhancement patch")
    occ_set = occ_sets = None
    if profiles is not None:

        def profile(string: str) -> FrozenSet[Occurrence]:
            occ = profiles.get(string)
            if occ is None:
                occ = profiles[string] = frozenset(bigram_occurrences(string))
            return occ

        occ_set = profile(text)
        occ_sets = [profile(other) for other in others]
    similar: List[str] = []
    lengths = [len(other) for other in others]
    for q in filter_survivors(
        len(text), occ_set, range(len(others)), lengths, occ_sets, epsilon
    ):
        stats.candidates += 1
        if guard is not None:
            guard.tick(1, what="SEA enhancement patch")
        if measure.bounded_distance(text, others[q], epsilon) <= epsilon:
            stats.edges += 1
            similar.append(others[q])
    return similar


#: What :meth:`CandidateIndex.profile` derives from one string.
Profile = Tuple[int, Tuple[Occurrence, ...], FrozenSet[Occurrence]]


class CandidateIndex:
    """Strings indexed for epsilon-similarity probing.

    The length filter always applies.  With ``frequency`` (sound only
    when :func:`supports_filter` holds) the bigram count and prefix
    filters apply too: profiles are ordered rarest gram first (any
    fixed total order is sound, so grams ``frequency`` has never seen
    sort first), only the short prefixes are inverted, and a probe
    returns the positions that share a prefix occurrence or sit in the
    small-profile pool *and* pass the exact count filter.  Self-joins (:func:`block_edges`) probe each string
    against the ones added before it; bipartite joins
    (:func:`bipartite_index` + :func:`similar_pairs`) add one side,
    then probe the other.
    """

    def __init__(
        self, epsilon: float, frequency: Optional[Dict[str, int]] = None
    ) -> None:
        self.epsilon = epsilon
        self.frequency = frequency
        self.budget = 4.0 * epsilon  # Ukkonen: L1 of bigram profiles <= 2q * epsilon
        self.prefix_length = int(2.5 * epsilon) + 2
        #: The indexed strings by position (set by :func:`bipartite_index`).
        self.texts: Sequence[str] = ()
        self.lengths: List[int] = []
        #: Positions per string length (the length filter's buckets).
        self.by_length: Dict[int, List[int]] = {}
        self.occ_sets: List[FrozenSet[Occurrence]] = []
        self.inverted: Dict[Occurrence, List[int]] = {}
        #: Positions whose profile is small enough that some partner
        #: could meet the count bound with zero shared occurrences
        #: (threshold <= 0 needs p_x + p_y <= budget, hence p <= budget - 1).
        self.small_pool: List[int] = []

    def profile(
        self, text: str, occ: Optional[Sequence[Occurrence]] = None
    ) -> Profile:
        """(length, prefix, occurrence set) of ``text``; filter-less: length only.

        ``occ`` passes :func:`bigram_occurrences` of ``text`` in when
        the caller already has it.
        """
        frequency = self.frequency
        if frequency is None:
            return (len(text), (), frozenset())
        if occ is None:
            occ = bigram_occurrences(text)
        get = frequency.get
        # Rarest first, so prefixes are maximally selective; the gram text
        # breaks ties deterministically.
        ordered = sorted([(get(gram, 0), gram, k) for gram, k in occ])
        return (
            len(text),
            tuple([(gram, k) for _, gram, k in ordered[: self.prefix_length]]),
            frozenset(occ),
        )

    def add(self, profile: Profile) -> None:
        length, prefix, occ_set = profile
        position = len(self.lengths)
        self.lengths.append(length)
        self.by_length.setdefault(length, []).append(position)
        if self.frequency is None:
            return
        self.occ_sets.append(occ_set)
        for entry in prefix:
            self.inverted.setdefault(entry, []).append(position)
        if len(occ_set) <= self.budget - 1.0:
            self.small_pool.append(position)

    def length_compatible(self, length: int) -> int:
        """How many indexed strings pass the length filter against ``length``."""
        radius = int(self.epsilon)
        by_length = self.by_length
        return sum(
            len(by_length.get(other, ()))
            for other in range(length - radius, length + radius + 1)
        )

    def probe(self, profile: Profile) -> List[int]:
        """Indexed positions that survive every filter against ``profile``."""
        length, prefix, occ_set = profile
        if self.frequency is None:
            radius = int(self.epsilon)
            out: List[int] = []
            for other in range(length - radius, length + radius + 1):
                out.extend(self.by_length.get(other, ()))
            return out
        seen: set = set()
        inverted = self.inverted
        for entry in prefix:
            postings = inverted.get(entry)
            if postings:
                seen.update(postings)
        budget, occ_sets = self.budget, self.occ_sets
        size = len(occ_set)
        if size <= budget - 1.0:
            for q in self.small_pool:
                if size + len(occ_sets[q]) <= budget:
                    seen.add(q)
        return filter_survivors(
            length, occ_set, sorted(seen), self.lengths, occ_sets, self.epsilon
        )


def block_edges(
    reps: Sequence[str],
    measure: StringSimilarityMeasure,
    epsilon: float,
    guard: Optional[ResourceGuard] = None,
    use_filter: bool = True,
) -> Tuple[List[Tuple[int, int]], BlockStats]:
    """Every epsilon-similar pair of ``reps``: the self-join.

    Strings are probed in :func:`length_sorted_order` against the ones
    indexed before them, so each pair is reported exactly once, as the
    index pair ``(min(i, j), max(i, j))`` into ``reps``.

    With ``use_filter`` (sound only when :func:`supports_filter` holds)
    candidates come from the prefix-filtered inverted occurrence index;
    otherwise every earlier length-compatible probe position is verified
    (all-pairs mode).  ``guard`` is ticked once per probe and once per
    verified candidate.
    """
    stats = BlockStats()
    edges: List[Tuple[int, int]] = []
    if len(reps) < 2:
        return edges, stats

    order = length_sorted_order(reps)
    occs = [bigram_occurrences(rep) for rep in reps] if use_filter else None
    index = CandidateIndex(epsilon, gram_frequencies(occs) if use_filter else None)
    for j in order:
        rep_j = reps[j]
        profile = index.profile(rep_j, occs[j] if use_filter else None)
        stats.probes += 1
        if guard is not None:
            guard.tick(1, what="SEA similarity graph")
        for q in index.probe(profile):
            i = order[q]
            stats.candidates += 1
            if guard is not None:
                guard.tick(1, what="SEA similarity graph")
            rep_i = reps[i]
            if (
                rep_i == rep_j
                or measure.bounded_distance(rep_i, rep_j, epsilon) <= epsilon
            ):
                stats.edges += 1
                edges.append((i, j) if i <= j else (j, i))
        index.add(profile)
    return edges, stats


def bipartite_index(
    right: Sequence[str], measure: StringSimilarityMeasure, epsilon: float
) -> CandidateIndex:
    """``right`` (distinct strings) indexed for :func:`similar_pairs`."""
    filtered = supports_filter(measure)
    occs = [bigram_occurrences(text) if filtered else None for text in right]
    index = CandidateIndex(epsilon, gram_frequencies(occs) if filtered else None)
    for text, occ in zip(right, occs):
        index.add(index.profile(text, occ))
    index.texts = right
    return index


def similar_pairs(
    left: Iterable[str],
    index: CandidateIndex,
    measure: StringSimilarityMeasure,
    guard: Optional[ResourceGuard] = None,
    what: str = "similarity probe",
) -> Tuple[List[Tuple[str, str]], BlockStats]:
    """Every ``(x, y)`` within epsilon, ``x`` in ``left``, ``y`` indexed.

    The bipartite form of :func:`block_edges`: the right side is indexed
    once (:func:`bipartite_index`), each ``left`` string probes it, and
    only survivors of the filters reach the measure — so the work is
    bounded by surviving pairs, not by the size of the cross product.
    ``guard`` is ticked once per probe string and once per verified pair.
    """
    stats = BlockStats()
    matches: List[Tuple[str, str]] = []
    epsilon = index.epsilon
    right = index.texts
    for text in left:
        stats.probes += 1
        if guard is not None:
            guard.tick(1, what=what)
        stats.length_compatible += index.length_compatible(len(text))
        for q in index.probe(index.profile(text)):
            other = right[q]
            stats.candidates += 1
            if guard is not None:
                guard.tick(1, what=what)
            if text == other or measure.bounded_distance(text, other, epsilon) <= epsilon:
                stats.edges += 1
                matches.append((text, other))
    return matches, stats


def pair_count(group_sizes: Sequence[int]) -> int:
    """Total unordered pairs across groups (the all-pairs comparison cost)."""
    return sum(size * (size - 1) // 2 for size in group_sizes)
