"""Query workloads matching the paper's Section 6 experiments.

* **Recall/precision workload** — "12 selection queries on 3 data sets
  (each containing 100 random papers from DBLP).  Each query contains
  1 isa, 1 similarTo and 3 tag matching conditions.  For isa and
  similarTo conditions, 'contains' and exact match are used for TAX
  respectively."  :func:`build_selection_workload` constructs exactly
  that shape: tag conditions pin inproceedings/author/booktitle, the
  similarTo targets an author surface form, the isa targets a venue
  category, and each query carries its TAX degradation and its exact
  ground-truth answer set from the corpus oracle.

* **Scalability selection** — "conjunctive selection queries, each of
  which contains 2 isa and 4 tag matching conditions"
  (:func:`build_scalability_pattern`).

* **Scalability join** — "Each query contains 5 tag matching and 1
  similarTo conditions" over DBLP x SIGMOD (:func:`build_join_pattern`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..core.conditions import Below, SimilarTo
from ..core.system import TossSystem
from ..obs import Observability
from ..data.ground_truth import Corpus
from ..data.lexicon_rules import corpus_lexicon
from ..ontology.maker import DEFAULT_CONTENT_TAGS, OntologyMaker
from ..similarity.measures import StringSimilarityMeasure
from ..tax.conditions import And, Comparison, Constant, Contains, NodeContent, NodeTag
from ..tax.pattern import PatternTree
from ..xmldb.model import XmlNode

#: isa targets the workload rotates through.  "category" entries name a
#: venue category ("conference" is the broad, vacuous one); "venue"
#: entries target the author's own most frequent venue by its short name,
#: which is where TAX's `contains` fallback can actually match and — for
#: single-paper authors — reach recall 1, the way 3 of the paper's 12
#: queries do.
CATEGORY_ROTATION: Tuple[Tuple[str, str], ...] = (
    ("category", "database conference"),
    ("category", "conference"),
    ("category", "data mining conference"),
    ("venue", ""),
    ("category", "information retrieval conference"),
    ("category", "web conference"),
)


def build_system(
    corpus: Corpus,
    documents: Sequence[XmlNode],
    epsilon: float,
    measure: "str | StringSimilarityMeasure" = "levenshtein",
    sigmod_documents: Optional[Sequence[XmlNode]] = None,
    max_content_terms: Optional[int] = None,
    mode: str = "order-safe",
    observability: Optional[Observability] = None,
) -> TossSystem:
    """A TossSystem over rendered corpus documents, built and ready.

    ``max_content_terms`` caps how many content values the Ontology Maker
    lifts, which is how the scalability experiments control ontology size.
    """
    maker = OntologyMaker(
        lexicon=corpus_lexicon(),
        content_tags=DEFAULT_CONTENT_TAGS,
        max_content_terms=max_content_terms,
    )
    system = TossSystem(
        measure=measure,
        epsilon=epsilon,
        maker=maker,
        observability=observability,
    )
    system.add_instance("dblp", list(documents))
    if sigmod_documents is not None:
        system.add_instance("sigmod", list(sigmod_documents))
    system.build(mode=mode)
    return system


def _base_pattern() -> PatternTree:
    """inproceedings with author and booktitle children (3 tag conditions)."""
    pattern = PatternTree()
    pattern.add_node(1)
    pattern.add_node(2, parent=1, edge="pc")
    pattern.add_node(3, parent=1, edge="pc")
    return pattern


def _tag_conditions():
    return (
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("author")),
        Comparison("=", NodeTag(3), Constant("booktitle")),
    )


@dataclass
class SelectionQuery:
    """One workload query: TOSS and TAX forms plus its ground truth."""

    query_id: str
    author_surface: str
    category: str
    toss_pattern: PatternTree
    tax_pattern: PatternTree
    relevant: FrozenSet[str]

    @property
    def sl_labels(self) -> Tuple[int, ...]:
        return (1,)


def build_selection_workload(
    corpus: Corpus, n_queries: int = 12, seed: int = 0
) -> List[SelectionQuery]:
    """The 12-query workload over a rendered corpus.

    Queries alternate between frequent author entities (large answer sets
    for similarity matching to recover) and rare ones (the paper's "3
    queries whose semantically correct results contain 3 or fewer
    papers"), and rotate over isa targets per :data:`CATEGORY_ROTATION`.
    The similarTo constant is one of the entity's *rendered* surface
    forms — what a user who saw the name somewhere would type.  Queries
    with an empty semantic answer set are skipped ("a query result
    contains 1 to 38 papers").
    """
    rng = random.Random(seed)
    frequency: dict = {}
    for paper in corpus.papers:
        for author_id in paper.author_ids:
            frequency[author_id] = frequency.get(author_id, 0) + 1
    by_descending = sorted(frequency, key=lambda a: (-frequency[a], a))
    # Interleave: three frequent entities, then one rare entity, ...
    frequent = [a for a in by_descending if frequency[a] >= 3]
    rare = [a for a in reversed(by_descending) if frequency[a] <= 2]
    candidates: List[int] = []
    f_iter, r_iter = iter(frequent), iter(rare)
    while True:
        block = [next(f_iter, None), next(f_iter, None), next(f_iter, None),
                 next(r_iter, None)]
        block = [a for a in block if a is not None]
        if not block:
            break
        candidates.extend(block)

    venue_counts: dict = {}
    for paper in corpus.papers:
        for author_id in paper.author_ids:
            venue_counts.setdefault(author_id, {}).setdefault(paper.venue_key, 0)
            venue_counts[author_id][paper.venue_key] += 1

    queries: List[SelectionQuery] = []
    rotation_index = 0
    for author_id in candidates:
        if len(queries) >= n_queries:
            break
        author = corpus.authors[author_id]
        if not author.surfaces:
            continue
        surface = rng.choice(sorted(author.surfaces))
        kind, target = CATEGORY_ROTATION[rotation_index % len(CATEGORY_ROTATION)]
        rotation_index += 1
        if kind == "venue":
            top_venue = max(
                venue_counts[author_id], key=venue_counts[author_id].get
            )
            target = corpus.venues[top_venue].spec.short
            relevant = corpus.relevant_papers(
                author_surface=surface, venue_key=top_venue
            )
        else:
            relevant = corpus.relevant_papers(
                author_surface=surface,
                venue_category=None if target == "conference" else target,
            )
        if not relevant:
            continue

        toss_pattern = _base_pattern()
        toss_pattern.condition = And(
            *_tag_conditions(),
            SimilarTo(NodeContent(2), Constant(surface)),
            Below(NodeContent(3), Constant(target)),
        )
        tax_pattern = _base_pattern()
        tax_pattern.condition = And(
            *_tag_conditions(),
            Comparison("=", NodeContent(2), Constant(surface)),
            Contains(NodeContent(3), Constant(target)),
        )
        queries.append(
            SelectionQuery(
                query_id=f"Q{len(queries) + 1:02d}",
                author_surface=surface,
                category=target,
                toss_pattern=toss_pattern,
                tax_pattern=tax_pattern,
                relevant=relevant,
            )
        )
    return queries


def build_scalability_pattern(
    narrow_category: str = "database conference",
    broad_category: str = "conference",
    tax_fallback: bool = False,
) -> PatternTree:
    """The Figure 16(a) conjunctive selection: 2 isa + 4 tag conditions.

    Pattern: inproceedings with title, booktitle and year children; the
    booktitle content must be below both a narrow and a broad category.
    ``tax_fallback`` swaps the isa conditions for TAX's exact matches.
    """
    pattern = PatternTree()
    pattern.add_node(1)
    pattern.add_node(2, parent=1, edge="pc")
    pattern.add_node(3, parent=1, edge="pc")
    pattern.add_node(4, parent=1, edge="pc")
    tag_conditions = (
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("booktitle")),
        Comparison("=", NodeTag(4), Constant("year")),
    )
    if tax_fallback:
        semantic = (
            Comparison("=", NodeContent(3), Constant(narrow_category)),
            Comparison("=", NodeContent(3), Constant(broad_category)),
        )
    else:
        semantic = (
            Below(NodeContent(3), Constant(narrow_category)),
            Below(NodeContent(3), Constant(broad_category)),
        )
    pattern.condition = And(*tag_conditions, *semantic)
    return pattern


def build_epsilon_selection_pattern(corpus: Corpus) -> PatternTree:
    """The Figure 16(c) selection: answers must grow with epsilon.

    Targets the corpus's most prolific author by canonical name, so each
    epsilon increment catches more of the rendered surface variants.
    """
    frequency: dict = {}
    for paper in corpus.papers:
        for author_id in paper.author_ids:
            frequency[author_id] = frequency.get(author_id, 0) + 1
    target = corpus.authors[max(frequency, key=lambda a: frequency[a])].canonical
    pattern = _base_pattern()
    pattern.condition = And(
        *_tag_conditions(),
        SimilarTo(NodeContent(2), Constant(target)),
        Below(NodeContent(3), Constant("conference")),
    )
    return pattern


def build_join_pattern(
    title_surface: Optional[str] = None, tax_fallback: bool = False
) -> PatternTree:
    """The Figure 16(b) join: 5 tag conditions + 1 similarTo.

    DBLP inproceedings (title, booktitle) x SIGMOD article (title) with
    the two titles similar.  ``tax_fallback`` degrades ``~`` to ``=``.
    """
    pattern = PatternTree()
    pattern.add_node(0)
    pattern.add_node(1, parent=0, edge="pc")   # dblp inproceedings
    pattern.add_node(2, parent=1, edge="pc")   # dblp title
    pattern.add_node(3, parent=1, edge="pc")   # dblp booktitle
    pattern.add_node(4, parent=0, edge="ad")   # sigmod article
    pattern.add_node(5, parent=4, edge="pc")   # sigmod title
    tag_conditions = (
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("booktitle")),
        Comparison("=", NodeTag(4), Constant("article")),
        Comparison("=", NodeTag(5), Constant("title")),
    )
    if tax_fallback:
        similarity = Comparison("=", NodeContent(2), NodeContent(5))
    else:
        similarity = SimilarTo(NodeContent(2), NodeContent(5))
    pattern.condition = And(*tag_conditions, similarity)
    return pattern
