"""A point query costs what it answers — shown by counts, not timings.

On a 300-paper store, a repeated ``author ~`` point query must not walk
the indexed author terms again (every one of them is an SEO term, so the
off-ontology residue the distance scan examines is empty), must not
re-intersect its structural probes, and must fetch only the documents
the probes kept instead of filtering the whole collection.  A write plus
a build re-walks each tag set's residue once, whichever queries follow —
and through all of it a warm query charges the guard what the cold one
did.
"""

import pytest

from repro.core.system import TossSystem
from repro.data import generate_corpus, render_dblp
from repro.data.lexicon_rules import corpus_lexicon
from repro.guard import ResourceGuard
from repro.obs import Observability
from repro.obs.metrics import REGISTRY as METRICS
from repro.ontology.maker import OntologyMaker
from repro.xmldb.index import CollectionSearchIndex

SEED = 7
PAPERS = 300
STRUCTURAL = ("docs_with_any_tag", "docs_with_pc_pair", "docs_with_ad_pair")


def point(author: str) -> str:
    return f'inproceedings(author ~ "{author}", booktitle below "conference")'


class Visits(dict):
    """A collection's document map that counts the documents read from it."""

    visited = 0

    def items(self):
        Visits.visited += len(self)
        return super().items()

    def __iter__(self):
        Visits.visited += len(self)
        return super().__iter__()

    def __getitem__(self, key):
        Visits.visited += 1
        return super().__getitem__(key)


@pytest.fixture
def counted(monkeypatch):
    """A built 300-paper system, with live counts of term walks (per tag
    set), structural probe lookups and documents the fetch reads."""
    walks = []
    lookups = []
    terms_with_tags = CollectionSearchIndex.terms_with_tags

    def counting_terms(self, tags=None):
        walks.append(tags)
        return terms_with_tags(self, tags)

    for name in STRUCTURAL:
        real = getattr(CollectionSearchIndex, name)

        def counting(self, entries, real=real, name=name):
            lookups.append(name)
            return real(self, entries)

        monkeypatch.setattr(CollectionSearchIndex, name, counting)
    monkeypatch.setattr(CollectionSearchIndex, "terms_with_tags", counting_terms)

    corpus = generate_corpus(PAPERS, seed=SEED)
    system = TossSystem(
        epsilon=3.0,
        maker=OntologyMaker(lexicon=corpus_lexicon()),
        observability=Observability(enabled=True),
    )
    system.add_instance(
        "dblp",
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in corpus.paper_keys()],
    )
    system.build()
    collection = system.database.get_collection("dblp")
    collection._documents = Visits(collection._documents)
    del walks[:], lookups[:]
    return system, walks, lookups


def run(system, text):
    guard = system.executor.guard = ResourceGuard(max_steps=10**7)
    Visits.visited = 0
    report = system.query("dblp", text)
    return report, guard, Visits.visited


def prune_span(span):
    if span["name"] == "planner.prune":
        return span["attributes"]
    for child in span.get("children", ()):
        found = prune_span(child)
        if found is not None:
            return found
    return None


def test_a_warm_point_query_walks_nothing_the_collection_holds(counted):
    system, walks, lookups = counted
    authors = sorted(system.instances["dblp"].isa.descendants("author"))
    cold, cold_guard, _ = run(system, point(authors[0]))
    assert walks == [frozenset({"author"})]
    assert lookups  # the cold intersection ran its structural probes

    del walks[:], lookups[:]
    for author in authors[1:6]:
        warm, guard, visited = run(system, point(author))
        attributes = prune_span(warm.trace)
        # Every author is an SEO term: the residue is empty, and memoised.
        assert walks == [] and attributes["residue_terms"] == 0
        # The structural intersection is the index's memo ...
        assert lookups == [] and attributes["structure_memo_hit"] is True
        # ... and the fetch reads just the documents the probes kept.
        assert warm.index_used and 0 < warm.docs_scanned < PAPERS / 10
        assert visited == warm.docs_scanned
        assert attributes["docs_in"] == PAPERS

    again, guard, _ = run(system, point(authors[0]))
    assert again.result_texts() == cold.result_texts()
    assert (guard.steps, guard.stage_steps) == (cold_guard.steps, cold_guard.stage_steps)


def test_a_full_probe_memo_still_memoises_the_structure_after_a_write(counted):
    """``("terms", tags)`` entries survive writes: once a long-lived
    worker has memoised more distinct ones than the memo holds, a write
    leaves it full of them — and the next structural intersection must
    still be memoised, by evicting the oldest entry."""
    system, _walks, _lookups = counted
    index = system.database.get_collection("dblp").search_index()
    limit = CollectionSearchIndex._PROBE_CACHE_LIMIT
    evictions = METRICS.counter("index.probe_memo.evictions")
    evicted = evictions.value
    for i in range(limit + 1):
        index.terms_with_tags(frozenset({f"probe-{i}"}))
    assert len(index._probe_cache) == limit
    assert evictions.value > evicted

    system.add_documents(
        "dblp",
        '<dblp><inproceedings key="m1"><author>Memo Kalipe</author>'
        "<title>Memo Pressure Study</title><booktitle>VLDB</booktitle>"
        "</inproceedings></dblp>",
    )
    system.build()
    authors = sorted(system.instances["dblp"].isa.descendants("author"))
    run(system, point(authors[0]))
    warm, _guard, _visited = run(system, point(authors[1]))
    assert prune_span(warm.trace)["structure_memo_hit"] is True
    assert len(index._probe_cache) <= limit


def test_a_write_and_a_build_rewalk_each_residue_once(counted):
    system, walks, _lookups = counted
    authors = sorted(system.instances["dblp"].isa.descendants("author"))
    index = system.database.get_collection("dblp").search_index()
    title = sorted(index.terms_with_tags(frozenset({"title"})))[0]
    texts = [point(author) for author in authors[:3]] + [
        f'inproceedings(title ~ "{title}")',
        f'inproceedings(title ~ "{title}x")',
    ]
    for text in texts:
        run(system, text)

    system.add_documents(
        "dblp",
        '<dblp><inproceedings key="w1"><author>Zubodo Kalipe</author>'
        "<title>Write Path Study</title><booktitle>VLDB</booktitle>"
        "</inproceedings></dblp>",
    )
    system.build()
    del walks[:]
    reports = [run(system, text)[0] for text in texts * 2]
    assert sorted(walks, key=sorted) == [frozenset({"author"}), frozenset({"title"})]
    # The title residue holds every title (none is an SEO term), and the
    # scan examines it on every title query; memoising it charges the
    # same guard steps.
    residue = [prune_span(report.trace)["residue_terms"] for report in reports]
    assert residue[3] == residue[8] == len(index.terms_with_tags(frozenset({"title"}))) - 1
    assert residue[:3] == residue[5:8] == [0, 0, 0]
