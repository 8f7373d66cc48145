"""String similarity measures (Definition 7 of the paper).

The paper models similarity as a *distance*: a string similarity measure
``d_s`` maps a pair of strings to a non-negative real, with ``d_s(X, X) = 0``
and symmetry; it is *strong* when it additionally satisfies the triangle
inequality (Levenshtein is the paper's canonical strong measure).  Measures
originally defined as similarities in [0, 1] (Jaro, Jaccard, cosine...) are
exposed here as the distance ``1 - similarity``.

All measures share the :class:`StringSimilarityMeasure` interface so the
SEA algorithm, the ``~`` (similarTo) operator and the experiment harness
can plug in any of them — exactly the pluggability Section 4.3 claims for
the TOSS framework.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence

from . import tokenize
from .tokenize import CorpusStatistics


class StringSimilarityMeasure(abc.ABC):
    """A distance between strings per Definition 7.

    Subclasses implement :meth:`distance`.  ``is_strong`` must be True only
    when the triangle inequality provably holds; the SEA algorithm uses it
    to enable the Lemma 1 fast path for node-to-node distances.
    """

    #: Whether the triangle inequality holds (Definition 7's "strong").
    is_strong: bool = False

    #: Registry name; filled in by :func:`register_measure`.
    name: str = ""

    @abc.abstractmethod
    def distance(self, x: str, y: str) -> float:
        """Non-negative distance; 0 means the strings are identical."""

    def lower_bound(self, x: str, y: str) -> float:
        """A cheap lower bound on ``distance(x, y)`` (default: 0).

        Subclasses with an O(1) bound override this; the SEA algorithm uses
        it to discard most node pairs before running the full measure.
        """
        return 0.0

    def bounded_distance(self, x: str, y: str, bound: float) -> float:
        """``distance(x, y)``, allowed to return any value > ``bound`` early.

        The default delegates to :meth:`distance`; measures with a banded
        implementation (Levenshtein) override it.
        """
        if self.lower_bound(x, y) > bound:
            return bound + 1.0
        return self.distance(x, y)

    def similar(self, x: str, y: str, epsilon: float) -> bool:
        """True iff ``distance(x, y) <= epsilon`` (the ``~`` operator)."""
        return self.bounded_distance(x, y, epsilon) <= epsilon

    def __call__(self, x: str, y: str) -> float:
        return self.distance(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[[], StringSimilarityMeasure]] = {}


def register_measure(
    name: str, factory: Callable[[], StringSimilarityMeasure]
) -> None:
    """Register a measure factory under ``name`` for :func:`get_measure`."""
    _REGISTRY[name] = factory


def available_measures() -> List[str]:
    """Names accepted by :func:`get_measure`, sorted."""
    return sorted(_REGISTRY)


def get_measure(name: str) -> StringSimilarityMeasure:
    """Instantiate a registered measure by name.

    >>> get_measure("levenshtein").distance("model", "models")
    1.0
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown similarity measure {name!r}; known: {known}") from None
    measure = factory()
    measure.name = name
    return measure


# ---------------------------------------------------------------------------
# Edit distances
# ---------------------------------------------------------------------------


def _bit_vector_levenshtein(x: str, y: str, bound: float) -> float:
    """Myers' bit-vector edit distance; ``len(x) >= len(y)``.

    Returns the distance, or ``bound + 1`` once it provably exceeds the
    bound.  The dynamic programme's column of vertical deltas lives in
    two Python ints (``pv``/``mv``: +1 / -1 between neighbouring rows of
    ``y``), so one character of ``x`` costs a dozen word operations
    whatever the band width (past 64 characters the ints just widen).
    ``score`` is the column's last cell, ``d(x[:i], y)``; each remaining
    character of ``x`` lowers it by at most one — the early exit.
    """
    rows = len(y)
    if rows == 0:
        return float(len(x)) if len(x) <= bound else bound + 1.0
    peq: Dict[str, int] = {}
    bit = 1
    for char in y:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, rows
    slack = bound + len(x)  # score may exceed bound by the characters left
    get = peq.get
    for consumed, char in enumerate(x, start=1):
        eq = get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if mh & last:
            score -= 1
        else:
            if ph & last:
                score += 1
            if score + consumed > slack:
                return bound + 1.0
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return float(score) if score <= bound else bound + 1.0


class Levenshtein(StringSimilarityMeasure):
    """Unit-cost edit distance — the paper's running strong measure.

    Example 11 uses it with epsilon = 2 to merge {relation, relational}
    and {model, models}.
    """

    is_strong = True

    def distance(self, x: str, y: str) -> float:
        if len(x) < len(y):
            x, y = y, x
        return _bit_vector_levenshtein(x, y, float("inf"))

    def lower_bound(self, x: str, y: str) -> float:
        return float(abs(len(x) - len(y)))

    def bounded_distance(self, x: str, y: str, bound: float) -> float:
        """Bounded edit distance (Myers' bit-vector kernel).

        Returns ``bound + 1`` as soon as the distance provably exceeds the
        bound, which is what makes epsilon-similarity graphs over thousands
        of ontology terms tractable.  Nothing is memoised here: callers
        that probe many pairs filter them first
        (:mod:`repro.similarity.candidates`) and keep what they derive.
        """
        if x == y:
            return 0.0
        if abs(len(x) - len(y)) > bound:
            return bound + 1.0
        if int(bound) < 0:
            return bound + 1.0
        if len(x) < len(y):
            x, y = y, x
        return _bit_vector_levenshtein(x, y, bound)


class NormalizedLevenshtein(StringSimilarityMeasure):
    """Levenshtein scaled into [0, 1] by the longer string's length.

    Convenient when comparing strings of very different lengths; note the
    normalisation breaks the triangle inequality, so this measure is not
    strong.
    """

    is_strong = False
    _edit = Levenshtein()

    def distance(self, x: str, y: str) -> float:
        longest = max(len(x), len(y))
        if x == y or longest == 0:
            return 0.0
        return self._edit.distance(x, y) / longest


class DamerauLevenshtein(StringSimilarityMeasure):
    """Edit distance with adjacent transpositions (restricted Damerau).

    Useful for typo-style variation ("GianLuigi" vs "Gian Luigi" style
    data-entry errors the paper motivates in Section 2.2).
    """

    is_strong = True

    def distance(self, x: str, y: str) -> float:
        if x == y:
            return 0.0
        if not x:
            return float(len(y))
        if not y:
            return float(len(x))
        width = len(y) + 1
        two_back: List[int] = []
        previous = list(range(width))
        for i, cx in enumerate(x, start=1):
            current = [i]
            for j, cy in enumerate(y, start=1):
                cost = 0 if cx == cy else 1
                best = min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
                if (
                    i > 1
                    and j > 1
                    and cx == y[j - 2]
                    and x[i - 2] == cy
                ):
                    best = min(best, two_back[j - 2] + 1)
                current.append(best)
            two_back = previous
            previous = current
        return float(previous[-1])


# ---------------------------------------------------------------------------
# Jaro family
# ---------------------------------------------------------------------------


def _jaro_similarity(x: str, y: str) -> float:
    if x == y:
        return 1.0
    len_x, len_y = len(x), len(y)
    if len_x == 0 or len_y == 0:
        return 0.0
    window = max(len_x, len_y) // 2 - 1
    window = max(window, 0)
    x_flags = [False] * len_x
    y_flags = [False] * len_y
    matches = 0
    for i, cx in enumerate(x):
        lo = max(0, i - window)
        hi = min(i + window + 1, len_y)
        for j in range(lo, hi):
            if not y_flags[j] and y[j] == cx:
                x_flags[i] = y_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_x):
        if not x_flags[i]:
            continue
        while not y_flags[j]:
            j += 1
        if x[i] != y[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len_x + m / len_y + (m - transpositions) / m) / 3.0


class Jaro(StringSimilarityMeasure):
    """Jaro metric [9], exposed as distance ``1 - jaro_similarity``."""

    is_strong = False

    def distance(self, x: str, y: str) -> float:
        return 1.0 - _jaro_similarity(x, y)

    def similarity(self, x: str, y: str) -> float:
        """The underlying similarity in [0, 1]."""
        return _jaro_similarity(x, y)


class JaroWinkler(StringSimilarityMeasure):
    """Jaro-Winkler: Jaro boosted for common prefixes (names match better)."""

    is_strong = False

    def __init__(self, prefix_weight: float = 0.1, max_prefix: int = 4) -> None:
        if not 0.0 <= prefix_weight <= 0.25:
            raise ValueError("prefix_weight must be in [0, 0.25]")
        self.prefix_weight = prefix_weight
        self.max_prefix = max_prefix

    def similarity(self, x: str, y: str) -> float:
        jaro = _jaro_similarity(x, y)
        prefix = 0
        for cx, cy in zip(x, y):
            if cx != cy or prefix >= self.max_prefix:
                break
            prefix += 1
        return jaro + prefix * self.prefix_weight * (1.0 - jaro)

    def distance(self, x: str, y: str) -> float:
        return 1.0 - self.similarity(x, y)


# ---------------------------------------------------------------------------
# Token-based measures
# ---------------------------------------------------------------------------


class Jaccard(StringSimilarityMeasure):
    """Jaccard word-set distance: ``1 - |S intersect T| / |S union T|``.

    The footnote in Section 4.3 defines the similarity form; we expose the
    complementary distance.  Jaccard distance on sets is a true metric, so
    the measure is strong.
    """

    is_strong = True

    def distance(self, x: str, y: str) -> float:
        sx, sy = tokenize.word_set(x), tokenize.word_set(y)
        if not sx and not sy:
            return 0.0
        union = len(sx | sy)
        if union == 0:
            return 0.0
        return 1.0 - len(sx & sy) / union


class CosineTfIdf(StringSimilarityMeasure):
    """Cosine distance over TF-IDF word vectors.

    Needs corpus statistics for IDF weights; with no corpus it degrades to
    plain TF cosine.  ``1 - cosine`` violates the triangle inequality in
    general, so the measure is not strong.
    """

    is_strong = False

    def __init__(self, corpus: Optional[CorpusStatistics] = None) -> None:
        self.corpus = corpus if corpus is not None else CorpusStatistics()

    def distance(self, x: str, y: str) -> float:
        if x == y:
            return 0.0
        u = self.corpus.tfidf_vector(x)
        v = self.corpus.tfidf_vector(y)
        if not u and not v:
            return 0.0
        return 1.0 - tokenize.cosine_of_vectors(u, v)


class QGram(StringSimilarityMeasure):
    """q-gram distance (Ukkonen): L1 distance between q-gram profiles.

    A strong (metric) measure that is much cheaper than Levenshtein on long
    strings and bounds it from below (up to a factor of 2q).
    """

    is_strong = True

    def __init__(self, q: int = 3) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q

    def distance(self, x: str, y: str) -> float:
        if x == y:
            return 0.0
        from collections import Counter

        profile_x = Counter(tokenize.qgrams(x, self.q))
        profile_y = Counter(tokenize.qgrams(y, self.q))
        keys = set(profile_x) | set(profile_y)
        return float(sum(abs(profile_x[k] - profile_y[k]) for k in keys))


class MongeElkan(StringSimilarityMeasure):
    """Monge-Elkan [12]: average best-match score between word tokens.

    Each token of the first string is matched to its most similar token of
    the second under an inner measure (Jaro-Winkler by default); the scores
    are averaged.  The raw form is asymmetric, so we symmetrise by taking
    the max of the two directions (a distance, the worst-direction view).
    """

    is_strong = False

    def __init__(self, inner: Optional[StringSimilarityMeasure] = None) -> None:
        self.inner = inner if inner is not None else JaroWinkler()

    def _directed(self, tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
        if not tokens_a:
            return 0.0 if not tokens_b else 1.0
        if not tokens_b:
            return 1.0
        total = 0.0
        for token_a in tokens_a:
            best = min(self.inner.distance(token_a, token_b) for token_b in tokens_b)
            total += best
        return total / len(tokens_a)

    def distance(self, x: str, y: str) -> float:
        if x == y:
            return 0.0
        tokens_x = tokenize.words(x)
        tokens_y = tokenize.words(y)
        return max(self._directed(tokens_x, tokens_y), self._directed(tokens_y, tokens_x))


class ScaledMeasure(StringSimilarityMeasure):
    """An existing measure multiplied by a constant factor.

    Lets [0, 1]-valued measures be used with the paper's integer-looking
    epsilon thresholds (Section 2.2's example distances: 0.1, 2.2, 6.5).
    Scaling preserves strongness.
    """

    def __init__(self, base: StringSimilarityMeasure, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.base = base
        self.factor = factor
        self.is_strong = base.is_strong

    def distance(self, x: str, y: str) -> float:
        return self.base.distance(x, y) * self.factor


register_measure("levenshtein", Levenshtein)
register_measure("normalized_levenshtein", NormalizedLevenshtein)
register_measure("damerau", DamerauLevenshtein)
register_measure("jaro", Jaro)
register_measure("jaro_winkler", JaroWinkler)
register_measure("jaccard", Jaccard)
register_measure("cosine", CosineTfIdf)
register_measure("qgram", QGram)
register_measure("monge_elkan", MongeElkan)
