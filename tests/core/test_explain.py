"""Unit tests for QueryExecutor.explain and the SEO expansion cache."""

import pytest

from repro.core.conditions import SeoConditionContext, SimilarTo
from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.xmldb.database import Database


@pytest.fixture
def executor():
    hierarchy = Hierarchy(
        [("J. Smith", "author"), ("J. Smyth", "author"),
         ("SIGMOD Conference", "database conference")]
    )
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 1.0)
    database = Database()
    database.create_collection("dblp")
    return QueryExecutor(database, SeoConditionContext(seo))


class TestExplain:
    def test_selection_plan_shows_expansion(self, executor):
        parsed = parse_query('inproceedings(author ~ "J. Smith")')
        plan = executor.explain(parsed.pattern, join=False)
        assert "~" in plan.original
        assert "J. Smyth" in plan.rewritten  # the SEO expansion is visible
        assert len(plan.xpath_queries) == 1
        assert plan.xpath_queries[0].startswith("//inproceedings")

    def test_join_plan_has_two_xpaths(self, executor):
        parsed = parse_query(
            "inproceedings(title $a), article(title $b) where $a ~ $b"
        )
        plan = executor.explain(parsed.pattern, join=True)
        assert len(plan.xpath_queries) == 2

    def test_str_rendering(self, executor):
        parsed = parse_query('inproceedings(author ~ "J. Smith")')
        text = str(executor.explain(parsed.pattern, join=False))
        assert "original" in text and "rewritten" in text and "xpath[0]" in text

    def test_tax_plan_is_identity(self):
        database = Database()
        tax = QueryExecutor(database, context=None)
        parsed = parse_query('inproceedings(author = "X")')
        plan = tax.explain(parsed.pattern, join=False)
        assert plan.original == plan.rewritten


class TestExpansionCache:
    def test_expansions_cached_and_stable(self, executor):
        seo = executor.context.seo
        first = seo.expand_below("database conference")
        second = seo.expand_below("database conference")
        assert first is second  # memoised
        assert seo.expand_similar("J. Smith") is seo.expand_similar("J. Smith")
        assert seo.expand_above("J. Smith") is seo.expand_above("J. Smith")

    def test_unknown_terms_cached_too(self, executor):
        seo = executor.context.seo
        assert seo.expand_similar("Zzzz") is seo.expand_similar("Zzzz")
