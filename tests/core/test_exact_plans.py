"""Index-exact plans: which texts the rule admits, and what booking costs.

A selection plan is index-exact (:func:`repro.core.planner.exact_tags`)
when the index probes decide every conjunct and every label has a tag of
its own.  On a store of one paper per document, every broad
``booktitle below`` text is exact, and each of its candidates is booked
without a scan: the report shows no SEO access and no verified
document.  No ``author ~`` point text is admitted, nor any shape the
rule lists as refused.  A document that holds a second ``<booktitle>``
fails the per-document witness and is scanned, with the reference's
answers.  The witness is a booking record on the document's columns,
built once per document version: equal answers dedupe to one, a write
builds one new record and no old one is read, and the guard charges and
trips the same cold (records built) as warm (records read).  Counts,
not timings.
"""

import pytest

from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.core.reference import ReferenceExecutor
from repro.data import VENUE_POOL, generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.experiments.workload import build_system
from repro.errors import QueryTimeoutError, ResourceExhaustedError
from repro.guard import ResourceGuard
from repro.obs import Observability
from repro.obs.metrics import REGISTRY as METRICS
from repro.tax import batch as tax_batch
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag, Not, Or
from repro.xmldb.database import Database
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


# ---------------------------------------------------------------------------
# Booking records: the witness, the root row and the dedupe hash are a fact
# of the document's columns
# ---------------------------------------------------------------------------

VLDB = 'inproceedings(booktitle = "VLDB", title)'


def _paper(title, attributes='key="p" mdate="2004"', venue="VLDB"):
    return (
        f"<dblp><inproceedings {attributes}><booktitle>{venue}</booktitle>"
        f"<title>{title}</title></inproceedings></dblp>"
    )


def _small(documents):
    """A one-collection database of ``documents`` and an executor over it."""
    database = Database()
    collection = database.create_collection("dblp")
    for index, text in enumerate(documents):
        collection.add_document(f"d{index}", text)
    executor = QueryExecutor(database, observability=Observability(enabled=True))
    return database, executor


def _select(executor, text, guard=None):
    parsed = parse_query(text)
    return executor.selection("dblp", parsed.pattern, parsed.roots, guard=guard)


def _oracle(database, text):
    parsed = parse_query(text)
    return ReferenceExecutor(database).selection("dblp", parsed.pattern, parsed.roots)


def test_equal_root_subtrees_give_one_answer():
    database, executor = _small([
        _paper("Tree Patterns"),
        _paper("Tree Patterns"),
        _paper("Tree Patterns", attributes='mdate="2004" key="p"'),
        _paper("Other Patterns"),
    ])
    assert executor._plan(parse_query(VLDB).pattern, join=False)[0].exact_tags
    for recorded in (4, 0):
        report = _select(executor, VLDB)
        assert report.candidates == 4 and report.docs_verified == 0
        assert report.result_count == 2
        attributes = _verify_span(report)["attributes"]
        assert (attributes["exact"], attributes["booking_records"]) == (4, recorded)
        assert_matches_reference(report, _oracle(database, VLDB), accesses=False)


def test_hash_equal_unequal_keys_are_both_answers():
    """Hand-built records give unequal subtrees one hash: the dedupe
    compares the keys in full and keeps both, and a third document equal
    to the second (the same hash again) is still a duplicate."""
    database, executor = _small([
        _paper("Tree Patterns"),
        _paper("Other Patterns"),
        _paper("Other Patterns"),
        _paper("Tree Patterns"),
    ])
    plan, _hit = executor._plan(parse_query(VLDB).pattern, join=False)
    collection = database.get_collection("dblp")
    for key, root in collection.documents():
        cols = collection.columns_for(key, root)
        (row,) = cols.tag_rows["inproceedings"]
        cols.book(plan.program.shape, (row, 42, cols.subtree_key(row)))
    report = _select(executor, VLDB)
    assert report.result_count == 2
    assert _verify_span(report)["attributes"]["booking_records"] == 0
    assert _verify_span(report)["attributes"]["exact"] == 4
    assert_matches_reference(report, _oracle(database, VLDB), accesses=False)


def test_verification_dedupes_hash_equal_keys_exactly():
    class Clashing(tuple):
        def __hash__(self):
            return 7

    results = tax_batch._Verification(None)
    first, second = Clashing(("a",)), Clashing(("b",))
    results.candidate_done([(first, 1), (second, 2), (Clashing(("b",)), 3)])
    results.candidate_done([(Clashing(("a",)), 4)])
    results.candidate_done([(Clashing(("c",)), 5)])
    assert results.out == [1, 2, 5]
    assert results.count == 4
    assert results.seen == {7: first}
    assert results.clashes == {second, Clashing(("c",))}


def _booking_records(report):
    return _verify_span(report)["attributes"]["booking_records"]


def test_a_write_builds_one_record_and_reads_no_stale_one():
    _corpus, system = _build()
    collection = system.database.get_collection("dblp")
    assert _booking_records(system.query("dblp", BROAD)) == PAPERS
    assert _booking_records(system.query("dblp", BROAD)) == 0
    key, root = next(iter(collection.documents()))
    old_cols = collection.columns_for(key, root)
    old_text = old_cols.subtree_text(old_cols.tag_rows["inproceedings"][0])
    document = serialize(root)
    closing = "</title>"
    at = document.index(closing)
    revisited = document[:at] + " Revisited" + document[at:]
    extended = document[:at] + " Extended" + document[at:]
    writes = (
        ("replace", lambda: system.replace_documents("dblp", {key: revisited}), 1, PAPERS),
        ("add", lambda: system.add_documents("dblp", extended), 1, PAPERS + 1),
        ("remove", lambda: system.remove_documents("dblp", [key]), 0, PAPERS),
    )
    for name, write, built, answers in writes:
        write()
        system.build()
        report = system.query("dblp", BROAD)
        assert _booking_records(report) == built, name
        assert report.result_count == report.candidates == answers, name
        assert report.docs_verified == 0, name
        assert old_text not in report.result_texts(), name
        assert_matches_reference(report, _reference(system, BROAD), accesses=False)
        assert _booking_records(system.query("dblp", BROAD)) == 0, name


# ---------------------------------------------------------------------------
# The guard charges what it charged before the records: warm equals cold
# ---------------------------------------------------------------------------


def _guarded(system, **limits):
    parsed = parse_query(BROAD)
    guard = ResourceGuard(**limits)
    try:
        report = system.executor.selection("dblp", parsed.pattern, parsed.roots, guard=guard)
        outcome = ("ok", report.result_texts())
    except (ResourceExhaustedError, QueryTimeoutError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, guard.steps, dict(guard.stage_steps)


def test_a_guarded_broad_selection_charges_per_document_and_candidate():
    _corpus, system = _build()
    cold = _guarded(system, max_steps=10**9)
    warm = _guarded(system, max_steps=10**9)
    assert cold == warm
    stages = warm[2]
    assert stages["xpath evaluation"] == 2 * PAPERS
    assert stages["result verification"] == PAPERS


@pytest.mark.parametrize("where", ["fetch", "verify"])
def test_a_step_budget_trips_on_the_same_step_cold_and_warm(where):
    _corpus, system = _build()
    full = _guarded(system, max_steps=10**9)
    before_fetch = full[1] - full[2]["xpath evaluation"] - full[2]["result verification"]
    if where == "fetch":
        budget, stage = before_fetch + PAPERS + 3, "xpath evaluation"
    else:
        budget, stage = full[1] - PAPERS // 2, "result verification"
    _corpus, cold_system = _build()
    cold = _guarded(cold_system, max_steps=budget)
    warm = _guarded(system, max_steps=budget)
    assert cold == warm
    assert cold[0] == (
        "ResourceExhaustedError",
        f"{stage} exceeded its evaluation budget of {budget} steps",
    )
    assert cold[1] == budget + 1


def test_a_result_cap_trips_with_the_same_message_cold_and_warm():
    _corpus, system = _build()
    cold = _guarded(system, max_results=PAPERS - 1)
    warm = _guarded(system, max_results=PAPERS - 1)
    assert cold == warm
    assert cold[0] == (
        "ResourceExhaustedError",
        f"query over 'dblp' produced {PAPERS} results, exceeding the cap of {PAPERS - 1}",
    )
