"""Index-exact plans: which texts the rule admits, and what booking costs.

A selection plan is index-exact (:func:`repro.core.planner.exact_tags`)
when the index probes decide every conjunct and every label has a tag of
its own.  On a store of one paper per document, every broad
``booktitle below`` text is exact, and each of its candidates is booked
without a scan: the report shows no SEO access and no verified
document.  No ``author ~`` point text is admitted, nor any shape the
rule lists as refused.  A document that holds a second ``<booktitle>``
fails the per-document witness and is scanned, with the reference's
answers.  Counts, not timings.
"""

import pytest

from repro.core.parser import parse_query
from repro.data import VENUE_POOL, generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.experiments.workload import build_system
from repro.errors import ResourceExhaustedError
from repro.guard import ResourceGuard
from repro.obs import Observability
from repro.obs.metrics import REGISTRY as METRICS
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag, Not, Or
from repro.xmldb.serializer import serialize

from tests.oracle import assert_matches_reference

SEED = 7
PAPERS = 300
CATEGORIES = tuple(sorted({venue.category for venue in VENUE_POOL}))
BROAD = 'inproceedings(booktitle below "conference", title)'
JOIN = (
    'inproceedings(title $a, booktitle below "database conference"), '
    "//article(title $b) where $a ~ $b"
)


def _build():
    corpus = generate_corpus(PAPERS, seed=SEED)
    keys = corpus.paper_keys()
    system = build_system(
        corpus,
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in keys],
        3.0,
        sigmod_documents=render_sigmod_pages(corpus, seed=SEED, paper_keys=keys),
        observability=Observability(enabled=True),
    )
    return corpus, system


@pytest.fixture(scope="module")
def store():
    return _build()


def _exact_tags(system, text, join=False):
    plan, _hit = system.executor._plan(parse_query(text).pattern, join=join)
    return plan.exact_tags


def _reference(system, text, right_collection=None):
    parsed = parse_query(text)
    oracle = system.reference_executor()
    if right_collection is None:
        return oracle.selection("dblp", parsed.pattern, parsed.roots)
    return oracle.join("dblp", right_collection, parsed.pattern, parsed.roots)


def _verify_span(report):
    return next(span for span in report.trace["children"] if span["name"] == "verify")


def _counts():
    return (
        METRICS.counter("tax.verify.exact").value,
        METRICS.counter("tax.verify.exact_scanned").value,
    )


def test_the_rule_admits_every_broad_text(store):
    _corpus, system = store
    admitted = []
    for target in CATEGORIES + ("conference",):
        for children, tags in (
            ("title", ("inproceedings", "booktitle", "title")),
            ("title, year", ("inproceedings", "booktitle", "title", "year")),
        ):
            text = f'inproceedings(booktitle below "{target}", {children})'
            assert _exact_tags(system, text) == tags, text
            admitted.append(text)
    assert len(admitted) == 14


def test_the_rule_admits_no_point_text(store):
    corpus, system = store
    authors = sorted(corpus.authors.values(), key=lambda author: author.entity_id)
    for author in authors[:20]:
        for category in CATEGORIES:
            text = f'inproceedings(author ~ "{author.canonical}", booktitle below "{category}")'
            assert _exact_tags(system, text) is None, text


def _conjoin(text, extra):
    """``text``'s pattern with ``extra(labels)`` conjoined to its condition."""
    parsed = parse_query(text)
    parsed.pattern.condition = And(parsed.pattern.condition, extra(parsed.variables))
    return parsed.pattern


REFUSED = {
    "similarity": lambda: parse_query('inproceedings(title ~ "Tree Patterns")').pattern,
    "negation": lambda: _conjoin(
        "inproceedings(booktitle $b, title)",
        lambda v: Not(Comparison("=", NodeContent(v["b"]), Constant("VLDB"))),
    ),
    "ordering": lambda: parse_query('inproceedings(year > "1999", title)').pattern,
    "multi-tag restriction": lambda: _conjoin(
        "*$p(title)",
        lambda v: Or(
            Comparison("=", NodeTag(v["p"]), Constant("inproceedings")),
            Comparison("=", NodeTag(v["p"]), Constant("article")),
        ),
    ),
    "missing restriction": lambda: parse_query('*(booktitle = "VLDB")').pattern,
    "repeated tag": lambda: parse_query("inproceedings(title, title)").pattern,
    "cross-label atom": lambda: parse_query(
        "inproceedings(title $t, booktitle $b) where $t = $b"
    ).pattern,
    # Verify raises on a label the pattern does not bind; booking may not
    # answer in its place.
    "unbound label": lambda: _conjoin(
        "inproceedings(title)",
        lambda v: Comparison("=", NodeContent(99), Constant("VLDB")),
    ),
}


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_the_rule_refuses_each_listed_shape(store, shape):
    _corpus, system = store
    plan, _hit = system.executor._plan(REFUSED[shape](), join=False)
    assert plan.exact_tags is None


def test_a_join_is_never_exact(store):
    _corpus, system = store
    assert _exact_tags(system, JOIN, join=True) is None
    report = system.query("dblp", JOIN, right_collection="sigmod")
    assert report.docs_verified == report.candidates > 0
    assert _verify_span(report)["attributes"]["exact"] == 0
    assert_matches_reference(
        report, _reference(system, JOIN, right_collection="sigmod"), accesses=False
    )


def test_a_projection_is_never_exact(store):
    _corpus, system = store
    parsed = parse_query(BROAD)
    # The selection's plan is exact; a projection through it still scans.
    assert system.executor._plan(parsed.pattern, join=False)[0].exact_tags is not None
    before = _counts()
    report = system.executor.projection("dblp", parsed.pattern, [parsed.roots[0]])
    oracle = system.reference_executor().projection(
        "dblp", parsed.pattern, [parsed.roots[0]]
    )
    assert report.docs_verified == report.candidates > 0
    assert report.ontology_accesses > 0
    assert_matches_reference(report, oracle)
    assert _counts() == before


def test_a_broad_selection_books_every_candidate(store):
    _corpus, system = store
    before = _counts()
    report = system.query("dblp", BROAD)
    assert report.result_count == report.candidates == PAPERS
    assert report.ontology_accesses == 0
    assert report.docs_verified == 0
    assert _verify_span(report)["attributes"]["exact"] == PAPERS
    exact, scanned = _counts()
    assert (exact - before[0], scanned - before[1]) == (PAPERS, 0)
    assert_matches_reference(report, _reference(system, BROAD), accesses=False)

    # Booked candidates are charged and capped like scanned ones.
    parsed = parse_query(BROAD)
    guard = ResourceGuard(max_steps=10**9)
    guarded = system.executor.selection("dblp", parsed.pattern, parsed.roots, guard=guard)
    assert guard.stage_steps["result verification"] == guarded.candidates == PAPERS
    with pytest.raises(ResourceExhaustedError):
        system.executor.selection(
            "dblp", parsed.pattern, parsed.roots, guard=ResourceGuard(max_results=PAPERS - 1)
        )


def test_explain_names_the_strategy_the_plan_uses(store):
    _corpus, system = store
    exact = system.executor.explain(parse_query(BROAD).pattern, join=False)
    assert "index-exact" in exact.index_plan[-1]
    assert "{inproceedings, booktitle, title}" in exact.index_plan[-1]
    point = system.executor.explain(
        parse_query('inproceedings(author ~ "Jeffrey D. Ullman", title)').pattern,
        join=False,
    )
    assert point.index_plan[-1] == "verify: set-oriented batch over columnar rows"


def test_a_second_booktitle_is_scanned():
    _corpus, system = _build()
    collection = system.database.get_collection("dblp")
    key, root = next(iter(collection.documents()))
    document = serialize(root)
    closing = "</booktitle>"
    at = document.index(closing) + len(closing)
    system.replace_documents(
        "dblp", {key: document[:at] + "<booktitle>VLDB</booktitle>" + document[at:]}
    )
    system.build()

    before = _counts()
    report = system.query("dblp", BROAD)
    assert report.docs_verified == 1
    assert report.candidates == PAPERS
    exact, scanned = _counts()
    assert (exact - before[0], scanned - before[1]) == (PAPERS - 1, 1)
    assert _verify_span(report)["attributes"]["exact"] == PAPERS - 1
    assert_matches_reference(report, _reference(system, BROAD), accesses=False)
