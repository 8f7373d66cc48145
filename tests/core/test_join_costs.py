"""A join pair costs its cross product — shown by counts, not timings.

``join_pairs_batched`` lists every root-child group's matches once per
side entry and crosses the two entries' lists for each pair, so a right
entry that recurs across pairs is listed once per join.  A side-rooted
scan (the pattern root on a side row) runs only on an entry whose
interval holds every root-child head's tags strictly below its row; the
textual join's entries never do, and its ``verify`` span says so.

Those lists, and a join side's embeddings in a document, depend on the
document and the pattern's shape alone: they are kept on the document's
columns, so a repeated join walks no structure at all, the evaluator
still seeing exactly the cold run's bindings, and a bounded number of
shapes is kept per document.
"""

import dataclasses

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
from repro.xmldb.columnar import MATCH_MEMO_SHAPES, DocumentColumns
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


# ---------------------------------------------------------------------------
# A document's structure is walked once: the columns' match memo
# ---------------------------------------------------------------------------


def join_system(papers=40):
    corpus = generate_corpus(papers, seed=7)
    keys = corpus.paper_keys()
    return build_system(
        corpus,
        [render_dblp(corpus, seed=7, paper_keys=[key]) for key in keys],
        3.0,
        sigmod_documents=render_sigmod_pages(corpus, seed=7, paper_keys=keys),
        observability=Observability(enabled=True),
    )


def span(report, name):
    """The first span called ``name`` anywhere in the report's trace."""
    stack = [report.trace]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            return node
        stack.extend(reversed(node.get("children", ())))
    raise AssertionError(f"no {name} span")


def test_a_repeated_join_walks_no_structure(counted, monkeypatch):
    scan_star = tax_batch._scan_star

    def counting_scan_star(*args):
        counted["scan"] += 1
        return scan_star(*args)

    monkeypatch.setattr(tax_batch, "_scan_star", counting_scan_star)
    system = join_system()
    cold = system.query("dblp", JOIN, right_collection="sigmod")
    assert counted["group_lists"] > 0 and counted["scan"] > 0
    assert span(cold, "verify")["attributes"]["match_memo_misses"] > 0
    assert span(cold, "xpath.left")["attributes"]["match_memo_misses"] > 0
    assert span(cold, "xpath.right")["attributes"]["match_memo_misses"] > 0
    counted.update(group_lists=0, scan=0)
    warm = system.query("dblp", JOIN, right_collection="sigmod")
    assert counted == {"group_lists": 0, "scan": 0}
    for name in ("verify", "xpath.left", "xpath.right"):
        assert span(warm, name)["attributes"]["match_memo_misses"] == 0
    assert warm.result_texts() == cold.result_texts()
    assert (warm.candidates, warm.pairs_probed, warm.pairs_materialized) == (
        cold.candidates,
        cold.pairs_probed,
        cold.pairs_materialized,
    )


def recording(program, calls):
    """``program`` with an evaluator that logs every binding it sees."""
    evaluator = program.evaluator

    def record(binding):
        calls.append(tuple(sorted((label, id(node)) for label, node in binding.items())))
        return evaluator(binding)

    return dataclasses.replace(program, evaluator=record)


def test_the_evaluator_sees_the_cold_runs_bindings():
    left = entries(
        paper("inproceedings", "x"),
        f"<proceedings>{paper('inproceedings', 'x')}{paper('article', 'x')}</proceedings>",
        paper("inproceedings", "y"),
    )
    right = entries(paper("article", "x"), paper("article", "y"))
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    program = tax_batch.VerifyProgram.compile(title_join(), DEFAULT_CONTEXT)
    runs = []
    for _ in range(2):
        calls = []
        results, _materialized, _scans = tax_batch.join_pairs_batched(
            left, right, pairs, recording(program, calls), [0]
        )
        runs.append((calls, results.texts()))
    assert runs[0][0] and runs[0] == runs[1]

    # A join side's fetch replays the evaluator over the memoised
    # embeddings in exactly the order a scan of the document calls it.
    side = pattern_of(
        [(1, None, PC), (2, 1, PC)],
        And(
            tag_is(1, "inproceedings"),
            tag_is(2, "title"),
            Comparison("!=", NodeContent(2), Constant("y")),
        ),
    )
    side_program = tax_batch.VerifyProgram.compile(side, DEFAULT_CONTEXT)
    cols = DocumentColumns(
        parse_document(
            "<dblp>" + paper("inproceedings", "x") + paper("inproceedings", "y")
            + "<inproceedings><title>z</title><title>y</title></inproceedings></dblp>"
        )
    )
    scanned, found = [], {}
    rows = {}

    def emit():
        found[rows[1]] = None

    recording(side_program, scanned).scan(cols, 0, len(cols.nodes), {}, rows, emit)
    for _ in range(2):
        replayed = []
        assert recording(side_program, replayed).anchored_rows(cols) == sorted(found) == [1, 5]
        assert replayed == scanned


def test_a_replaced_page_is_walked_afresh():
    system = join_system()
    parsed = parse_query(JOIN)
    system.query("dblp", JOIN, right_collection="sigmod")
    sigmod = system.database.get_collection("sigmod")
    dblp = system.database.get_collection("dblp")
    key = next(iter(sigmod.keys()))
    # Retitle the page's first article after a DBLP paper: a new pair.
    title = next(
        node.text
        for _key, root in dblp.documents()
        for node in root.iter()
        if node.tag == "title"
    )
    page = sigmod.get_document(key).copy()
    next(node for node in page.iter() if node.tag == "title").text = title
    before = system.reference_executor().join("dblp", "sigmod", parsed.pattern, parsed.roots)
    system.replace_documents("sigmod", {key: serialize(page)})
    system.build()
    report = system.query("dblp", JOIN, right_collection="sigmod")
    oracle = system.reference_executor().join(
        "dblp", "sigmod", parsed.pattern, parsed.roots
    )
    assert [serialize(tree) for tree in oracle.results] != [
        serialize(tree) for tree in before.results
    ]
    assert_matches_reference(report, oracle, accesses=False)


def test_never_repeating_shapes_keep_the_memo_bounded():
    left = entries(paper("inproceedings", "x"), paper("inproceedings", "y"))
    right = entries(paper("article", "x"))
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    for shift in range(0, 30 * 3 * MATCH_MEMO_SHAPES, 30):
        # The same join under fresh labels: a shape no column set has seen.
        a, b, c, d, e = (shift + offset for offset in range(5))
        join = pattern_of(
            [(a, None, PC), (b, a, AD), (c, b, PC), (d, a, AD), (e, d, PC)],
            And(
                tag_is(b, "inproceedings"),
                tag_is(c, "title"),
                tag_is(d, "article"),
                tag_is(e, "title"),
                Comparison("=", NodeContent(c), NodeContent(e)),
            ),
        )
        program = tax_batch.VerifyProgram.compile(join, DEFAULT_CONTEXT)
        results, _materialized, _scans = tax_batch.join_pairs_batched(
            left, right, pairs, program, [a]
        )
        assert len(results) == 1
        side = pattern_of([(b, None, PC), (c, b, PC)], tag_is(b, "inproceedings"))
        side_program = tax_batch.VerifyProgram.compile(side, DEFAULT_CONTEXT)
        for cols, _row in left:
            assert side_program.anchored_rows(cols) == [0]
        for cols, _row in left + right:
            assert len(cols._matches) <= MATCH_MEMO_SHAPES
    assert all(len(cols._matches) == MATCH_MEMO_SHAPES for cols, _row in left)
