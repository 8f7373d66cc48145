"""Answer-quality metrics: precision, recall and quality = sqrt(P * R).

Footnotes 1-2 and reference [14] of the paper: precision is the fraction
of returned answers that are correct, recall the fraction of correct
answers that were returned, and the quality of an answer is the square
root of the product of the two — the measure all of Figure 15 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Hashable, Set, Tuple


def precision_recall(
    returned: "Collection[Hashable]", correct: "Collection[Hashable]"
) -> Tuple[float, float]:
    """Precision and recall of ``returned`` against ground truth ``correct``.

    Conventions for degenerate cases follow IR practice: an empty result
    has precision 1.0 (nothing wrong was returned); an empty ground truth
    has recall 1.0 (nothing was missed).
    """
    returned_set: Set[Hashable] = set(returned)
    correct_set: Set[Hashable] = set(correct)
    hits = len(returned_set & correct_set)
    precision = hits / len(returned_set) if returned_set else 1.0
    recall = hits / len(correct_set) if correct_set else 1.0
    return precision, recall


def quality(precision: float, recall: float) -> float:
    """The paper's quality measure: sqrt(precision * recall) [14]."""
    return math.sqrt(precision * recall)


@dataclass(frozen=True)
class QualityReport:
    """Precision/recall/quality of one query's answers."""

    precision: float
    recall: float
    returned: int
    correct: int
    hits: int

    @classmethod
    def evaluate(
        cls, returned: "Collection[Hashable]", correct: "Collection[Hashable]"
    ) -> "QualityReport":
        returned_set = set(returned)
        correct_set = set(correct)
        hits = len(returned_set & correct_set)
        precision, recall = precision_recall(returned_set, correct_set)
        return cls(precision, recall, len(returned_set), len(correct_set), hits)

    @property
    def quality(self) -> float:
        return quality(self.precision, self.recall)

    def __str__(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} "
            f"Q={self.quality:.3f} ({self.hits}/{self.returned} returned, "
            f"{self.correct} correct)"
        )
