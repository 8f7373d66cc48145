"""Tokenisers and corpus statistics for token-based similarity measures.

Token-based measures (Jaccard, cosine TF-IDF, Monge-Elkan) operate on word
multisets rather than raw characters.  This module centralises how strings
become tokens so that every measure tokenises identically, and provides the
document-frequency statistics cosine TF-IDF needs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Dict, Iterable, List

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def words(text: str) -> List[str]:
    """Lower-cased alphanumeric word tokens, in order of appearance.

    >>> words("Jeffrey D. Ullman")
    ['jeffrey', 'd', 'ullman']
    """
    return [match.group(0).lower() for match in _WORD_RE.finditer(text)]


def word_set(text: str) -> frozenset:
    """The set of word tokens of ``text`` (order and multiplicity dropped)."""
    return frozenset(words(text))


def qgrams(text: str, q: int = 3, pad: bool = True) -> List[str]:
    """Character q-grams of ``text``.

    With ``pad=True`` the string is wrapped in ``q - 1`` sentinel characters
    on each side (the standard Ukkonen construction), so that every string
    of length >= 1 has at least ``q`` grams and prefixes/suffixes carry
    weight.

    >>> qgrams("ab", q=2)
    ['#a', 'ab', 'b#']
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    lowered = text.lower()
    if pad and q > 1:
        sentinel = "#" * (q - 1)
        lowered = f"{sentinel}{lowered}{sentinel}"
    if len(lowered) < q:
        return [lowered] if lowered else []
    return [lowered[i : i + q] for i in range(len(lowered) - q + 1)]


class CorpusStatistics:
    """Document-frequency statistics over a corpus of strings.

    Feeds inverse-document-frequency weights to :class:`CosineTfIdf`.  The
    corpus can be grown incrementally with :meth:`add`; weights are
    recomputed lazily.
    """

    def __init__(self, documents: Iterable[str] = ()) -> None:
        self._doc_count = 0
        self._doc_freq: Counter = Counter()
        self._dirty = True
        self._idf: Dict[str, float] = {}
        for document in documents:
            self.add(document)

    def add(self, document: str) -> None:
        """Register one document's tokens in the statistics."""
        self._doc_count += 1
        self._doc_freq.update(word_set(document))
        self._dirty = True

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency of ``token``.

        Uses ``log((1 + N) / (1 + df)) + 1`` so unseen tokens still get a
        positive weight and an empty corpus degenerates to uniform weights.
        """
        if self._dirty:
            self._recompute()
        return self._idf.get(token, self._default_idf())

    def _default_idf(self) -> float:
        return math.log((1 + self._doc_count) / 1.0) + 1.0

    def _recompute(self) -> None:
        self._idf = {
            token: math.log((1 + self._doc_count) / (1 + freq)) + 1.0
            for token, freq in self._doc_freq.items()
        }
        self._dirty = False

    def tfidf_vector(self, text: str) -> Dict[str, float]:
        """L2-normalised TF-IDF vector of ``text`` as a sparse dict."""
        counts = Counter(words(text))
        if not counts:
            return {}
        vector = {token: count * self.idf(token) for token, count in counts.items()}
        norm = math.sqrt(sum(weight * weight for weight in vector.values()))
        if norm == 0.0:
            return {}
        return {token: weight / norm for token, weight in vector.items()}


def cosine_of_vectors(u: Dict[str, float], v: Dict[str, float]) -> float:
    """Cosine similarity of two sparse, already-normalised vectors."""
    if len(u) > len(v):
        u, v = v, u
    return sum(weight * v.get(token, 0.0) for token, weight in u.items())
