"""Author-name pools and surface-variant generation.

The pools deliberately contain *confusable* names — pairs of distinct
people within small edit distance ("Marco Ferrari" vs "Mauro Ferrari",
the paper's own Section 2.2 example) — so that similarity-based matching
has genuine false positives and TOSS's precision can fall below 1.0 the
way Figure 15(a) shows.

Variant kinds (modelled on the paper's examples):

====================  ==========================================  =========
kind                  example for "Jeffrey David Ullman"          Lev. dist
====================  ==========================================  =========
``full``              Jeffrey David Ullman                        0
``no_middle``         Jeffrey Ullman                              ~6 (len)
``middle_initial``    Jeffrey D. Ullman                           ~4
``initials``          J. D. Ullman                                large
``first_initial``     J. Ullman                                   large
``joined``            JeffreyDavid Ullman (space slip)            1
``typo``              Jeffrey David Ullmann                       1
====================  ==========================================  =========

Distances matter: at the paper's thresholds (epsilon = 2 or 3 with
Levenshtein), ``joined``/``typo`` variants merge at both, short middle
drops merge only at the higher threshold, and ``initials`` forms stay out
of reach — producing exactly the TAX < TOSS(2) < TOSS(3) recall gradient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: First names; several confusable clusters are adjacent.
FIRST_NAMES: Tuple[str, ...] = (
    "Marco", "Mauro", "Mario", "Maria",
    "Gian", "Gianni", "Giana",
    "Jeffrey", "Jeffery", "Geoffrey",
    "Ann", "Anna", "Anne",
    "Jan", "Ian", "Juan",
    "Peter", "Petra", "Pedro",
    "David", "Davide",
    "Susan", "Suzan",
    "Michael", "Michaela", "Michel", "Michele",
    "Thomas", "Tomas",
    "Laura", "Lara",
    "Paolo", "Paola", "Pablo",
    "Elena", "Elene",
    "Victor", "Viktor",
    "Sara", "Sarah",
    "Rita", "Rina",
    "Hugo", "Hubert",
    "Yuri", "Yuki",
    "Chen", "Wei", "Ling", "Ming",
)

#: Middle names (used as-is or as initials).  Mostly length 4: turning a
#: length-4 middle into its initial is a 3-edit change, which is exactly
#: the step the epsilon = 3 threshold catches and epsilon = 2 misses —
#: the source of the paper's recall gap between the two TOSS settings.
MIDDLE_NAMES: Tuple[str, ...] = (
    "Paul", "Rosa", "Dale", "Gino", "Otto", "Hans",
    "Igor", "Kurt", "Nina", "Lee", "Ann", "Kim",
)

#: Last names; again with confusable clusters.
LAST_NAMES: Tuple[str, ...] = (
    "Ferrari", "Ferrara", "Ferraro",
    "Ullman", "Ullmann", "Ulman",
    "Muller", "Mueller", "Miller",
    "Smith", "Smyth", "Smithe",
    "Chen", "Cheng", "Chang", "Zhang", "Zhong",
    "Lee", "Li", "Lie",
    "Garcia", "Gracia",
    "Johnson", "Jonson",
    "Brown", "Braun",
    "Rossi", "Rosso", "Russo",
    "Kumar", "Kumari",
    "Tanaka", "Tanake",
    "Novak", "Nowak",
    "Petersen", "Peterson", "Pedersen",
    "Silva", "Salva",
    "Meyer", "Mayer", "Maier",
    "Vitali", "Vitale",
    "Bertino", "Bertini",
    "Ciancarini", "Ciancarani",
    "Subrahmanian", "Subramanian",
)

#: Variant kinds with default sampling weights (full form dominates).
VARIANT_KINDS: Tuple[Tuple[str, float], ...] = (
    ("full", 0.40),
    ("no_middle", 0.15),
    ("middle_initial", 0.15),
    ("initials", 0.08),
    ("first_initial", 0.07),
    ("joined", 0.08),
    ("typo", 0.07),
)


@dataclass(frozen=True)
class NameParts:
    """A person's canonical name components."""

    first: str
    middle: Optional[str]
    last: str

    @property
    def canonical(self) -> str:
        if self.middle:
            return f"{self.first} {self.middle} {self.last}"
        return f"{self.first} {self.last}"


def _typo(text: str, rng: random.Random) -> str:
    """One character-level slip: substitution, deletion or duplication."""
    if len(text) < 4:
        return text + "e"
    position = rng.randrange(1, len(text) - 1)
    choice = rng.random()
    if choice < 0.4:  # substitute with a neighbouring letter
        replacement = chr(((ord(text[position].lower()) - 97 + 1) % 26) + 97)
        return text[:position] + replacement + text[position + 1 :]
    if choice < 0.7:  # delete
        return text[:position] + text[position + 1 :]
    return text[:position] + text[position] + text[position:]  # duplicate


class NameVariantGenerator:
    """Deterministic canonical-name and variant sampling."""

    def __init__(self, seed: int = 0, variant_kinds=VARIANT_KINDS) -> None:
        self._rng = random.Random(seed)
        self._kinds = [kind for kind, _ in variant_kinds]
        self._weights = [weight for _, weight in variant_kinds]

    def sample_name(self) -> NameParts:
        """A fresh canonical name (middle name present ~50% of the time)."""
        middle = (
            self._rng.choice(MIDDLE_NAMES) if self._rng.random() < 0.5 else None
        )
        return NameParts(
            self._rng.choice(FIRST_NAMES), middle, self._rng.choice(LAST_NAMES)
        )

    def variant(self, name: NameParts, kind: Optional[str] = None) -> str:
        """Render one surface form of a canonical name.

        ``kind=None`` samples a kind from the configured weights.
        """
        if kind is None:
            kind = self._rng.choices(self._kinds, weights=self._weights, k=1)[0]
        first, middle, last = name.first, name.middle, name.last
        if kind == "full":
            return name.canonical
        if kind == "no_middle":
            return f"{first} {last}"
        if kind == "middle_initial":
            if middle:
                return f"{first} {middle[0]}. {last}"
            return f"{first} {last}"
        if kind == "initials":
            if middle:
                return f"{first[0]}. {middle[0]}. {last}"
            return f"{first[0]}. {last}"
        if kind == "first_initial":
            return f"{first[0]}. {last}"
        if kind == "joined":
            if middle:
                return f"{first}{middle} {last}"
            return f"{first}{last}"
        if kind == "typo":
            return _typo(name.canonical, self._rng)
        raise ValueError(f"unknown variant kind {kind!r}")

    def all_variants(self, name: NameParts) -> List[str]:
        """One rendering of every deterministic variant kind (no typos)."""
        forms = []
        for kind in ("full", "no_middle", "middle_initial", "initials",
                     "first_initial", "joined"):
            form = self.variant(name, kind)
            if form not in forms:
                forms.append(form)
        return forms
