"""A join pair costs its cross product — shown by counts, not timings.

``join_pairs_batched`` lists every root-child group's matches once per
side entry and crosses the two entries' lists for each pair, so a right
entry that recurs across pairs is listed once per join.  A side-rooted
scan (the pattern root on a side row) runs only on an entry whose
interval holds every root-child head's tags strictly below its row; the
textual join's entries never do, and its ``verify`` span says so.
"""

import pytest

from repro.core.parser import parse_query
from repro.data import generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.experiments.workload import build_system
from repro.obs import Observability
from repro.tax import batch as tax_batch
from repro.tax.algebra import product_tree, selection
from repro.tax.conditions import DEFAULT_CONTEXT, And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.columnar import DocumentColumns
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

from tests.oracle import assert_matches_reference

JOIN = "inproceedings(title $a), //article(title $b) where $a ~ $b"


def tag_is(label, tag):
    return Comparison("=", NodeTag(label), Constant(tag))


def title_join():
    """The textual join's shape: an unrestricted root over an
    ``inproceedings`` and an ``article``, their titles equal."""
    return pattern_of(
        [(0, None, PC), (1, 0, AD), (2, 1, PC), (3, 0, AD), (4, 3, PC)],
        And(
            tag_is(1, "inproceedings"),
            tag_is(2, "title"),
            tag_is(3, "article"),
            tag_is(4, "title"),
            Comparison("=", NodeContent(2), NodeContent(4)),
        ),
    )


def entries(*texts):
    return [(DocumentColumns(parse_document(text)), 0) for text in texts]


def paper(tag, title):
    return f"<{tag}><title>{title}</title></{tag}>"


@pytest.fixture
def counted(monkeypatch):
    """Live counts of group-list builds and of side-rooted scans."""
    calls = {"group_lists": 0, "scan": 0}
    group_lists, scan = tax_batch._group_lists, tax_batch._scan

    def counting_group_lists(*args):
        calls["group_lists"] += 1
        return group_lists(*args)

    def counting_scan(*args):
        calls["scan"] += 1
        return scan(*args)

    monkeypatch.setattr(tax_batch, "_group_lists", counting_group_lists)
    monkeypatch.setattr(tax_batch, "_scan", counting_scan)
    return calls


def run(left, right, pattern, sl):
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    program = tax_batch.VerifyProgram.compile(pattern, DEFAULT_CONTEXT)
    results, _materialized, side_scans = tax_batch.join_pairs_batched(
        left, right, pairs, program, sl
    )
    products = [
        product_tree(left[i][0].nodes[left[i][1]], right[j][0].nodes[right[j][1]])
        for i, j in pairs
    ]
    expected = selection(products, pattern, sl)
    assert results.texts() == [serialize(tree) for tree in expected]
    return results, side_scans


def test_group_lists_are_built_once_per_side_entry(counted):
    left = entries(*(paper("inproceedings", title) for title in "xyzx"))
    right = entries(paper("article", "x"), paper("article", "z"))
    results, side_scans = run(left, right, title_join(), [1, 3])
    # 8 pairs, each right entry in 4 of them: one listing per entry.
    assert counted["group_lists"] == len(left) + len(right) == 6
    assert len(results) == 2
    # No entry holds both heads' tags below its row: no side-rooted scan.
    assert counted["scan"] == 0 and side_scans == 0


def test_only_an_entry_that_can_hold_a_match_is_scanned(counted):
    # The first left entry holds an inproceedings *and* an article below
    # its root, so the root may bind that row: it is scanned in each of
    # its pairs.  The second one is a plain paper and is never scanned.
    both = f"<proceedings>{paper('inproceedings', 'x')}{paper('article', 'x')}</proceedings>"
    left = entries(both, paper("inproceedings", "x"))
    right = entries(paper("article", "x"), paper("article", "y"), paper("article", "x"))
    results, side_scans = run(left, right, title_join(), [0])
    assert counted["scan"] == side_scans == len(right)
    assert counted["group_lists"] == len(left) + len(right)
    # The proceedings row answers on its own, beside the two products.
    assert any(text.startswith("<proceedings>") for text in results.texts())


def test_the_textual_join_reports_no_side_scans():
    corpus = generate_corpus(40, seed=7)
    keys = corpus.paper_keys()
    system = build_system(
        corpus,
        [render_dblp(corpus, seed=7, paper_keys=[key]) for key in keys],
        3.0,
        sigmod_documents=render_sigmod_pages(corpus, seed=7, paper_keys=keys),
        observability=Observability(enabled=True),
    )
    report = system.query("dblp", JOIN, right_collection="sigmod")
    verify = next(span for span in report.trace["children"] if span["name"] == "verify")
    assert report.pairs_probed > 0
    assert verify["attributes"]["side_scans"] == 0
    parsed = parse_query(JOIN)
    oracle = system.reference_executor().join(
        "dblp", "sigmod", parsed.pattern, parsed.roots
    )
    assert_matches_reference(report, oracle, accesses=False)
