"""Render a corpus in DBLP's XML schema.

The output matches the proceedings slice of ``dblp.xml`` the paper used:
a ``<dblp>`` root with ``<inproceedings key="...">`` records carrying
author(s), title, pages, year, booktitle and url — short venue forms,
mostly full author names (DBLP spells first names out), with the variant
profile injecting the spelling noise the similarity machinery targets.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Tuple

from ..xmldb.model import XmlNode
from .ground_truth import Corpus
from .names import NameVariantGenerator
from .venues import venue_surface

#: DBLP-side author variant weights: full names dominate, with noise.
DBLP_VARIANT_KINDS: Tuple[Tuple[str, float], ...] = (
    ("full", 0.55),
    ("no_middle", 0.15),
    ("middle_initial", 0.15),
    ("joined", 0.08),
    ("typo", 0.07),
)


def render_dblp(
    corpus: Corpus,
    seed: int = 0,
    paper_keys: Optional[Iterable[str]] = None,
    venue_typo_rate: float = 0.03,
) -> XmlNode:
    """Serialise (a subset of) the corpus as one DBLP document.

    Every rendered author surface is recorded in the corpus so the
    relevance oracle stays exact.  ``paper_keys`` selects a subset (used
    by the data-size sweeps); default is every paper.
    """
    rng = random.Random(seed + 10)
    names = NameVariantGenerator(seed=seed + 11, variant_kinds=DBLP_VARIANT_KINDS)

    wanted = set(paper_keys) if paper_keys is not None else None
    root = XmlNode("dblp")
    for paper in corpus.papers:
        if wanted is not None and paper.key not in wanted:
            continue
        record = root.element("inproceedings", key=paper.key)
        for author_id in paper.author_ids:
            surface = names.variant(corpus.authors[author_id].name)
            corpus.record_surface(author_id, surface)
            record.element("author", surface)
        record.element("title", paper.title)
        record.element("pages", paper.pages)
        record.element("year", str(paper.year))
        venue = corpus.venues[paper.venue_key].spec
        style = "typo" if rng.random() < venue_typo_rate else "short"
        record.element("booktitle", venue_surface(venue, style, rng))
        record.element("url", f"db/conf/{venue.key}/{venue.key}{paper.year}.html#{paper.key}")
    return root.renumber()
