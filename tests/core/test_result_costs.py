"""A served answer builds no result tree — shown by counts, not timings.

On a 300-paper store, a broad selection encoded the way a serving worker
ships it (``to_dict(include_results=True, compact=True)``) must copy no
subtree: its answers stay ``(columns, row)`` references whose text comes
from the columns' per-row memo.  The textual join must assemble no
witness tree — the witness of each passing pair is the whole product.
Reading ``.results`` materialises every answer once, and a write after
the query changes neither the old report's texts nor its trees, while a
new query sees the new document.
"""

import pytest

from repro.core.parser import parse_query
from repro.data import generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.experiments.workload import build_system
from repro.obs import Observability
from repro.obs.metrics import REGISTRY as METRICS
from repro.tax import batch as tax_batch
from repro.xmldb.columnar import DocumentColumns
from repro.xmldb.serializer import escape_text, serialize

from tests.oracle import assert_matches_reference

SEED = 7
PAPERS = 300
BROAD = 'inproceedings(booktitle below "conference", title)'
JOIN = "inproceedings(title $a), //article(title $b) where $a ~ $b"


@pytest.fixture
def system():
    corpus = generate_corpus(PAPERS, seed=SEED)
    keys = corpus.paper_keys()
    return build_system(
        corpus,
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in keys],
        3.0,
        sigmod_documents=render_sigmod_pages(corpus, seed=SEED, paper_keys=keys),
        observability=Observability(enabled=True),
    )


@pytest.fixture
def counted(monkeypatch):
    """Live counts of subtree copies and of assembled join witnesses."""
    calls = {"materialize": 0, "witness": 0}
    materialize = DocumentColumns.materialize
    assemble = tax_batch._assemble_product_witness

    def counting_materialize(self, *args, **kwargs):
        calls["materialize"] += 1
        return materialize(self, *args, **kwargs)

    def counting_assemble(*args, **kwargs):
        calls["witness"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(DocumentColumns, "materialize", counting_materialize)
    monkeypatch.setattr(tax_batch, "_assemble_product_witness", counting_assemble)
    return calls


def materialized():
    return METRICS.counter("tax.results.materialized").value


def verify_span(trace):
    return next(span for span in trace["children"] if span["name"] == "verify")


def reference(system, text, right_collection=None):
    parsed = parse_query(text)
    oracle = system.reference_executor()
    if right_collection is None:
        return oracle.selection("dblp", parsed.pattern, parsed.roots)
    return oracle.join("dblp", right_collection, parsed.pattern, parsed.roots)


def test_a_broad_selection_on_the_wire_copies_no_subtree(system, counted):
    before = materialized()
    report = system.query("dblp", BROAD)
    payload = report.to_dict(include_results=True, compact=True)
    assert counted["materialize"] == 0 and materialized() == before
    assert payload["result_count"] == report.result_count > PAPERS / 2
    assert verify_span(report.trace)["attributes"]["materialized"] == 0

    oracle = reference(system, BROAD)
    assert payload["results"] == [serialize(tree) for tree in oracle.results]
    # In-process callers still get trees: each answer materialised once.
    trees = report.results
    assert counted["materialize"] == report.result_count == len(trees)
    assert materialized() == before + report.result_count
    assert report.results is trees and counted["materialize"] == len(trees)
    # An index-exact plan over one paper per document: no SEO access.
    assert_matches_reference(report, oracle, accesses=False)
    assert report.ontology_accesses == 0


def test_the_textual_join_assembles_no_witness(system, counted):
    before = materialized()
    report = system.query("dblp", JOIN, right_collection="sigmod")
    texts = report.to_dict(include_results=True, compact=True)["results"]
    assert counted == {"materialize": 0, "witness": 0}
    assert materialized() == before
    assert 0 < report.pairs_materialized <= report.pairs_probed
    assert verify_span(report.trace)["attributes"]["materialized"] == 0

    oracle = reference(system, JOIN, right_collection="sigmod")
    assert texts == [serialize(tree) for tree in oracle.results]
    # A product is materialised as one tree: its root plus both subtrees.
    assert_matches_reference(report, oracle, accesses=False)
    assert counted["materialize"] == 2 * report.result_count
    assert counted["witness"] == 0
    assert materialized() == before + report.result_count


def test_a_write_after_the_query_leaves_its_report_alone(system):
    old = system.query("dblp", BROAD)
    expected = reference(system, BROAD)
    title = expected.results[0].find_first("title").text
    collection = system.database.get_collection("dblp")
    key, document = next(
        (key, serialize(root))
        for key, root in collection.documents()
        if f"<title>{escape_text(title)}</title>" in serialize(root)
    )
    rewritten = document.replace(
        f"<title>{escape_text(title)}</title>", "<title>Rewritten After The Query</title>"
    )
    system.replace_documents("dblp", {key: rewritten})
    system.build()

    # Neither texts nor trees were read before the write.
    old_texts = [serialize(tree) for tree in expected.results]
    assert old.result_texts() == old_texts
    assert [serialize(tree) for tree in old.results] == old_texts

    new = system.query("dblp", BROAD)
    # An index-exact plan over one paper per document: no SEO access.
    assert_matches_reference(new, reference(system, BROAD), accesses=False)
    assert new.ontology_accesses == 0
    assert any("Rewritten After The Query" in text for text in new.result_texts())
    assert not any("Rewritten After The Query" in text for text in old_texts)
