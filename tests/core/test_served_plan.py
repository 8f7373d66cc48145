"""The served plan holds only what answers the query.

A plan miss compiles the verify program, the probe specs and the
fetchers from the original condition; the paper's SEO rewrite and its
XPath text are written only by ``explain`` and the reference executor.
"""

import pytest

from repro.core import executor as executor_module
from repro.core import reference as reference_module
from repro.core.conditions import EXACT_FALLBACK_CONTEXT, SeoConditionContext
from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.core.reference import ReferenceExecutor
from repro.core.system import TossSystem
from repro.ontology import Hierarchy
from repro.serving import QueryServer
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.xmldb.database import Database

from tests.oracle import assert_matches_reference

DBLP = (
    "<dblp>"
    "<inproceedings><author>J. Smith</author><title>Paper One</title>"
    "<year>1999</year></inproceedings>"
    "<inproceedings><author>J. Smyth</author><title>Paper Two</title>"
    "<year>2000</year></inproceedings>"
    "</dblp>"
)
SIGMOD = (
    "<ProceedingsPage><article><title>Paper One</title>"
    "<author>J. Smith</author></article></ProceedingsPage>"
)

#: One query text per operator: the join's ``$a ~ $b`` is a cross-side
#: conjunct, the others hold a constant-sided semantic atom.
QUERIES = {
    "selection": 'inproceedings(author ~ "J. Smith", title)',
    "projection": 'inproceedings(author ~ "J. Smith", title)',
    "join": "inproceedings(title $a), article(title $b) where $a ~ $b",
}
#: Without a context a semantic atom raises, so plain TAX gets equalities.
TAX_QUERIES = {
    "selection": 'inproceedings(author = "J. Smith", title)',
    "projection": 'inproceedings(author = "J. Smith", title)',
    "join": "inproceedings(title $a), article(title $b) where $a = $b",
}


def _database():
    database = Database()
    database.create_collection("dblp").add_document("d", DBLP)
    database.create_collection("sigmod").add_document("s", SIGMOD)
    return database


def _seo_context():
    hierarchy = Hierarchy(
        [("J. Smith", "author"), ("J. Smyth", "author"),
         ("Paper One", "title"), ("Paper Two", "title")]
    )
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 1.0)
    return SeoConditionContext(seo)


def _run(runner, kind, parsed):
    if kind == "selection":
        return runner.selection("dblp", parsed.pattern, parsed.roots)
    if kind == "projection":
        return runner.projection("dblp", parsed.pattern, parsed.roots[:1])
    return runner.join("dblp", "sigmod", parsed.pattern, parsed.roots)


def _refuse(*_args, **_kwargs):
    raise AssertionError("the served path wrote the paper's rewrite or XPath")


@pytest.mark.parametrize("kind", ["selection", "projection", "join"])
@pytest.mark.parametrize("mode", ["seo", "exact_fallback", "none"])
def test_a_cold_query_writes_no_rewrite_and_no_xpath(monkeypatch, mode, kind):
    database = _database()
    if mode == "seo":
        context = _seo_context()
        executor = QueryExecutor(database, context)
    elif mode == "exact_fallback":
        context = EXACT_FALLBACK_CONTEXT
        executor = QueryExecutor(database, EXACT_FALLBACK_CONTEXT)
    else:
        context = None
        executor = QueryExecutor(database)
    parsed = parse_query((TAX_QUERIES if mode == "none" else QUERIES)[kind])
    oracle = _run(ReferenceExecutor(database, context), kind, parsed)
    monkeypatch.setattr(reference_module, "compile_pattern_to_xpath", _refuse)
    monkeypatch.setattr(reference_module, "rewrite_condition", _refuse)
    monkeypatch.setattr(executor_module, "rewrite_condition", _refuse)
    report = _run(executor, kind, parsed)
    assert not report.plan_cache_hit
    assert report.result_count > 0
    assert report.xpath_queries == []
    assert "xpath_queries" not in report.to_dict(compact=True)
    assert_matches_reference(report, oracle, accesses=False)


def test_explain_plans_the_operator_it_is_given():
    # ``*(title, year)`` is a selection whose root has two children: its
    # plan is one XPath, not a join's two sides.
    database = _database()
    executor = QueryExecutor(database)
    parsed = parse_query("*(title, year)")
    plan = executor.explain(parsed.pattern, join=False)
    oracle = ReferenceExecutor(database).selection(
        "dblp", parsed.pattern, parsed.roots
    )
    assert plan.xpath_queries == oracle.xpath_queries == ["//*[title][year]"]
    assert not any(line.startswith(("left:", "right:")) for line in plan.index_plan)
    report = executor.selection("dblp", parsed.pattern, parsed.roots)
    assert report.plan_cache_hit  # explain cached the plan the query runs
    assert report.result_count == 2


def test_a_served_outcome_carries_no_xpath():
    system = TossSystem(epsilon=1.0)
    system.add_instance("dblp", DBLP)
    system.build()
    with QueryServer(system, workers=1, default_collection="dblp") as server:
        (outcome,) = server.execute_many(['inproceedings(author ~ "J. Smith")'])
    assert outcome.ok and outcome.report.result_count > 0
    payload = outcome.report.to_dict(include_results=True, compact=True)
    assert "xpath_queries" not in payload
