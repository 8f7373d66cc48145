"""The generated XPath is a sound prefilter; the verify program decides.

Each case below once lost or changed a true answer because the XPath
prefilter decided something TAX decides differently.  Every answer is
checked against the algebra over whole documents,
``tax.algebra.selection(collection.roots(), ...)``, and against the
reference executor, which still runs the XPath on the tree engine.
"""

import pytest

from repro.core import TossSystem
from repro.core.conditions import SeoConditionContext, SimilarTo
from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.core.reference import MAX_OR_ALTERNATIVES, ReferenceExecutor
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax import algebra
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import PC, pattern_of
from repro.xmldb.database import Database

from tests.oracle import answer


def _keys(trees):
    return [tree.canonical_key() for tree in trees]


def _expected(collection, pattern, sl, context=None):
    if context is None:
        return _keys(algebra.selection(collection.roots(), pattern, sl))
    return _keys(algebra.selection(collection.roots(), pattern, sl, context))


def _single(text, tag="inproceedings"):
    database = Database()
    collection = database.create_collection("dblp")
    collection.add_document("d", f"<dblp><{tag}>{text}</{tag}></dblp>")
    return database, collection


def test_seven_digit_ordering_constant_answers_through_the_query_language():
    # The pushdown once wrote number(.) > 1.23457e+06: XPathSyntaxError.
    system = TossSystem(measure="levenshtein", epsilon=1.0)
    system.add_instance(
        "dblp",
        "<dblp><inproceedings><pages>99999999</pages></inproceedings>"
        "<inproceedings><pages>12</pages></inproceedings></dblp>",
    )
    system.build()
    text = 'inproceedings(pages > "1234567")'
    report = system.query("dblp", text)
    parsed = parse_query(text)
    collection = system.database.get_collection("dblp")
    expected = _expected(collection, parsed.pattern, parsed.roots, system.context)
    assert _keys(report.results) == expected and len(expected) == 1
    plan = system.executor.explain(parsed.pattern, join=False)
    assert "1.23457e+06" not in " ".join(plan.xpath_queries)


def test_equality_is_the_node_text_not_the_subtree_text():
    # ". = 'X'" compared "X sub", the subtree's text; TAX content is "X".
    database, collection = _single("<title>X<i>sub</i></title>")
    parsed = parse_query('inproceedings(title = "X")')
    report = QueryExecutor(database).selection("dblp", parsed.pattern, parsed.roots)
    oracle = ReferenceExecutor(database).selection("dblp", parsed.pattern, parsed.roots)
    expected = _expected(collection, parsed.pattern, parsed.roots)
    assert _keys(report.results) == _keys(oracle.results) == expected
    assert len(expected) == 1
    assert "text() = 'X'" in oracle.xpath_queries[0]


def test_ordering_against_a_non_number_compares_strings():
    # XPath's number('n/a') is NaN; TAX compares "n/a" > "1999" as strings.
    database, collection = _single("<year>n/a</year>")
    parsed = parse_query('inproceedings(year > "1999")')
    report = QueryExecutor(database).selection("dblp", parsed.pattern, parsed.roots)
    oracle = ReferenceExecutor(database).selection("dblp", parsed.pattern, parsed.roots)
    expected = _expected(collection, parsed.pattern, parsed.roots)
    assert _keys(report.results) == _keys(oracle.results) == expected
    assert len(expected) == 1


def _near_terms(count):
    """``count`` strings at edit distance 1 from "tx", none of them "tz"."""
    letters = "abcdefghijklmnopqrstuvwy"
    terms = [f"t{c}" for c in letters] + [f"{c}x" for c in letters if c != "t"]
    assert len(terms) >= count
    return terms[:count]


@pytest.mark.parametrize("near", [10, MAX_OR_ALTERNATIVES + 6])
def test_similarity_does_not_depend_on_the_or_cap(near):
    # "tz" is outside the SEO and 1 edit from "tx" (epsilon 1): the SEO's
    # distance fallback accepts it.  A pushed ~ expansion rejected it
    # whenever the expansion fit under MAX_OR_ALTERNATIVES.
    seo = SimilarityEnhancedOntology.for_hierarchy(
        Hierarchy([(term, "name") for term in _near_terms(near)]),
        Levenshtein(),
        1.0,
    )
    assert "tz" not in seo and len(seo.expand_similar("tx")) == near + 1
    context = SeoConditionContext(seo)
    database, collection = _single("<author>tz</author>")
    pattern = pattern_of([(1, None, PC), (2, 1, PC)])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("author")),
        SimilarTo(NodeContent(2), Constant("tx")),
    )
    report = QueryExecutor(database, context).selection("dblp", pattern, [1])
    oracle = ReferenceExecutor(database, context).selection("dblp", pattern, [1])
    expected = _expected(collection, pattern, [1], context)
    assert answer(report) == answer(oracle)
    assert _keys(report.results) == expected and len(expected) == 1
    assert "tx" not in oracle.xpath_queries[0]
