"""The entity world behind the synthetic corpora, with a relevance oracle.

The paper computes precision/recall "by checking against semantically
correct results generated manually".  Here the generator *is* the ground
truth: every paper references author entities and a venue entity, every
rendered string is a recorded surface form of its entity, and the oracle
answers "which papers are semantically relevant to this query" exactly.

Conventions (chosen so the baselines behave like the paper's):

* an author query targets a *surface form* S; the semantically correct
  papers are those authored by any entity for which S is a legitimate
  variant (so exact matching never returns a wrong paper — TAX keeps
  100% precision — while similarity matching can, via confusable names);
* a venue-category query's correct papers are those whose venue belongs
  to the category, whatever surface form the record uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .names import NameParts, NameVariantGenerator
from .titles import TitleGenerator
from .venues import VENUE_POOL, VenueSpec

YEAR_RANGE = (1994, 2003)


@dataclass
class AuthorEntity:
    """One real-world author with a canonical name and known variants."""

    entity_id: int
    name: NameParts
    #: Every deterministic variant of the canonical name.
    variants: FrozenSet[str]
    #: Surface forms actually rendered into some document (grows at render time).
    surfaces: Set[str] = field(default_factory=set)

    @property
    def canonical(self) -> str:
        return self.name.canonical


@dataclass(frozen=True)
class VenueEntity:
    """One venue; thin wrapper keeping the spec and an entity id."""

    entity_id: int
    spec: VenueSpec

    @property
    def category(self) -> str:
        return self.spec.category


@dataclass
class PaperRecord:
    """One paper: the unit precision/recall is computed over."""

    key: str
    title: str
    author_ids: Tuple[int, ...]
    venue_key: str
    year: int
    pages: str


class Corpus:
    """Entities + papers + surface bookkeeping + the relevance oracle."""

    def __init__(
        self,
        authors: Dict[int, AuthorEntity],
        venues: Dict[str, VenueEntity],
        papers: List[PaperRecord],
        seed: int,
    ) -> None:
        self.authors = authors
        self.venues = venues
        self.papers = papers
        self.seed = seed
        self._papers_by_key = {paper.key: paper for paper in papers}
        self._variant_index: Dict[str, Set[int]] = {}
        for author in authors.values():
            for variant in author.variants:
                self._variant_index.setdefault(variant, set()).add(author.entity_id)

    # -- bookkeeping used by the renderers -----------------------------------

    def record_surface(self, author_id: int, surface: str) -> None:
        """Register a rendered surface form for an author entity."""
        self.authors[author_id].surfaces.add(surface)
        self._variant_index.setdefault(surface, set()).add(author_id)

    def paper_keys(self) -> List[str]:
        return [paper.key for paper in self.papers]

    # -- the relevance oracle ----------------------------------------------------

    def entities_for_surface(self, surface: str) -> FrozenSet[int]:
        """Author entities for which ``surface`` is a legitimate form."""
        return frozenset(self._variant_index.get(surface, frozenset()))

    def relevant_papers(
        self,
        author_surface: Optional[str] = None,
        author_id: Optional[int] = None,
        venue_category: Optional[str] = None,
        venue_key: Optional[str] = None,
        year: Optional[int] = None,
        year_range: Optional[Tuple[int, int]] = None,
    ) -> FrozenSet[str]:
        """Paper keys satisfying the conjunction of the given criteria."""
        keys: Set[str] = set(self._papers_by_key)
        if author_surface is not None:
            entities = self.entities_for_surface(author_surface)
            keys &= {
                paper.key
                for paper in self.papers
                if entities.intersection(paper.author_ids)
            }
        if author_id is not None:
            keys &= {
                paper.key for paper in self.papers if author_id in paper.author_ids
            }
        if venue_category is not None:
            keys &= {
                paper.key
                for paper in self.papers
                if self.venues[paper.venue_key].category == venue_category
            }
        if venue_key is not None:
            keys &= {paper.key for paper in self.papers if paper.venue_key == venue_key}
        if year is not None:
            keys &= {paper.key for paper in self.papers if paper.year == year}
        if year_range is not None:
            low, high = year_range
            keys &= {
                paper.key for paper in self.papers if low <= paper.year <= high
            }
        return frozenset(keys)

    def __repr__(self) -> str:
        return (
            f"Corpus({len(self.papers)} papers, {len(self.authors)} authors, "
            f"{len(self.venues)} venues, seed={self.seed})"
        )


def generate_corpus(
    n_papers: int,
    n_authors: Optional[int] = None,
    seed: int = 0,
    venue_keys: Optional[Sequence[str]] = None,
    authors_per_paper: Tuple[int, int] = (1, 3),
) -> Corpus:
    """Build a seeded entity world.

    ``n_authors`` defaults to roughly one author entity per 2.5 papers so
    that most entities author several papers (recall has something to
    miss).  ``venue_keys`` restricts the venue universe.
    """
    if n_papers <= 0:
        raise ValueError("n_papers must be positive")
    rng = random.Random(seed)
    names = NameVariantGenerator(seed=seed + 1)
    titles = TitleGenerator(seed=seed + 2)

    if n_authors is None:
        n_authors = max(3, int(n_papers / 2.5))
    authors: Dict[int, AuthorEntity] = {}
    seen_canonicals: Set[str] = set()
    entity_id = 0
    while len(authors) < n_authors:
        name = names.sample_name()
        if name.canonical in seen_canonicals:
            continue
        seen_canonicals.add(name.canonical)
        authors[entity_id] = AuthorEntity(
            entity_id, name, frozenset(names.all_variants(name))
        )
        entity_id += 1

    pool = [v for v in VENUE_POOL if venue_keys is None or v.key in venue_keys]
    if not pool:
        raise ValueError("venue_keys excludes every known venue")
    venues = {
        spec.key: VenueEntity(1000 + index, spec) for index, spec in enumerate(pool)
    }

    papers: List[PaperRecord] = []
    author_ids = list(authors)
    low, high = authors_per_paper
    for index in range(n_papers):
        count = rng.randint(low, min(high, len(author_ids)))
        chosen = tuple(rng.sample(author_ids, count))
        venue = rng.choice(pool)
        year = rng.randint(*YEAR_RANGE)
        first_page = rng.randint(1, 580)
        papers.append(
            PaperRecord(
                key=f"p{index:05d}",
                title=titles.title(),
                author_ids=chosen,
                venue_key=venue.key,
                year=year,
                pages=f"{first_page}-{first_page + rng.randint(8, 24)}",
            )
        )
    return Corpus(authors, venues, papers, seed)
