"""Property: every generated XPath parses, is columnar, and prefilters soundly.

``compile_pattern_to_xpath`` splices query constants — tags and contents
the user chose — into an XPath string.  Whatever those constants hold
(spaces, ``:``, ``|``, ``[``, either quote or both, a leading digit, an
XPath keyword), the result must

* parse,
* lie inside the columnar subset (the production executor has no other
  fetch route and raises on a query outside it), and
* select a superset of the true answers, so that executor == reference.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.conditions import Below, SeoConditionContext, SimilarTo
from repro.core.executor import (
    QueryExecutor,
    compile_pattern_to_xpath,
    join_side_patterns,
)
from repro.core.reference import ReferenceExecutor
from repro.errors import QueryExecutionError
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax import algebra
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag, Or
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.database import Database
from repro.xmldb.model import XmlNode
from repro.xmldb.xpath import XPathQuery

from tests.oracle import assert_matches_reference

#: Constants that are not XPath names, or that XPath would read as syntax.
#: ``a/b`` is absent because no document can carry it: the XML reader and
#: ``Collection.add_document`` / ``replace_document`` both refuse a tag
#: containing ``/`` (tests/xmldb/test_collection.py).
HOSTILE = [
    "a b", "dc:title", "a|b", "a[1]", "it's", 'say "x"', "'\"", "1a",
    "self::a", "text()", "or", "and", "*", "..", "@id", "x=y",
]
TAGS = ["book", "title", "venue"] + HOSTILE
CONTENTS = ["alpha", "alphq", "SIGMOD", "VLDB", ""] + HOSTILE

_CONTEXT = SeoConditionContext(
    SimilarityEnhancedOntology.for_hierarchy(
        Hierarchy(
            [
                ("SIGMOD", "database conference"),
                ("VLDB", "database conference"),
                ("it's", "database conference"),
                ("'\"", "database conference"),
            ]
        ),
        Levenshtein(),
        1.0,
    )
)

field = st.tuples(st.sampled_from(TAGS), st.sampled_from(CONTENTS))


def stores(record_tags):
    """1-3 documents of 1-3 records (tag from ``record_tags``) of 1-3 fields."""
    record = st.tuples(
        st.sampled_from(record_tags), st.lists(field, min_size=1, max_size=3)
    )
    document = st.lists(record, min_size=1, max_size=3)
    return st.lists(document, min_size=1, max_size=3)


def tag_choices(tags):
    return st.lists(st.sampled_from(tags), min_size=1, max_size=2, unique=True)


def _collection(database, name, documents):
    # Built as trees: the XML reader would refuse most of these tags,
    # but a tree handed to the store (or a pattern constant) is free text.
    collection = database.create_collection(name)
    for number, records in enumerate(documents):
        root = XmlNode("lib")
        for tag, fields in records:
            node = root.append(XmlNode(tag))
            for field_tag, text in fields:
                node.append(XmlNode(field_tag, text))
        collection.add_document(f"d{number}", root)
    return collection


def _tag_condition(label, tags):
    atoms = [Comparison("=", NodeTag(label), Constant(tag)) for tag in tags]
    return atoms[0] if len(atoms) == 1 else Or(*atoms)


def _content_condition(label, kind, values):
    if kind == "equal" or (kind == "or" and len(values) == 1):
        return Comparison("=", NodeContent(label), Constant(values[0]))
    if kind == "or":
        return Or(
            *(Comparison("=", NodeContent(label), Constant(v)) for v in values)
        )
    if kind == "similar":
        return SimilarTo(NodeContent(label), Constant(values[0]))
    return Below(NodeContent(label), Constant("database conference"))


content_choice = st.tuples(
    st.sampled_from(["equal", "or", "similar", "below"]),
    st.lists(st.sampled_from(CONTENTS), min_size=1, max_size=3),
)


def _assert_closed(xpath):
    query = XPathQuery(xpath)  # parses
    assert query.columnar_rows() is not None, xpath


@given(
    documents=stores(TAGS),
    root_tags=tag_choices(TAGS),
    child_tags=tag_choices(TAGS),
    edge=st.sampled_from([PC, AD]),
    content=content_choice,
    sl=st.sampled_from([[1], [2], []]),
)
# An element tagged "@id" once had its term postings filed under its
# parent's tag, so the index pruned the one document that answers.
@example(
    documents=[[("book", [("@id", "alpha")])]],
    root_tags=["book"],
    child_tags=["@id"],
    edge=PC,
    content=("equal", ["alpha"]),
    sl=[1],
)
@settings(max_examples=150, deadline=None)
def test_selection_xpath_is_closed_and_sound(
    documents, root_tags, child_tags, edge, content, sl
):
    database = Database()
    _collection(database, "lib", documents)
    pattern = pattern_of([(1, None, PC), (2, 1, edge)])
    pattern.condition = And(
        _tag_condition(1, root_tags),
        _tag_condition(2, child_tags),
        _content_condition(2, *content),
    )
    executor = QueryExecutor(database, _CONTEXT)
    for xpath in executor.explain(pattern).xpath_queries:
        _assert_closed(xpath)
    reference = ReferenceExecutor(database, _CONTEXT)
    # Results only: where a disjunction holds an unquotable alternative
    # the XPath leaves it to verification, while the index still prunes
    # documents — the oracle then verifies (and asks the ontology about)
    # candidates production never fetches.
    assert_matches_reference(
        executor.selection("lib", pattern, sl_labels=sl),
        reference.selection("lib", pattern, sl_labels=sl),
        accesses=False,
    )
    assert_matches_reference(
        executor.projection("lib", pattern, [(2, True)]),
        reference.projection("lib", pattern, [(2, True)]),
        accesses=False,
    )


# A join pattern is only well defined when its left subtree can embed in
# left-collection trees alone and its right subtree in right ones alone
# (the executor's documented input shape): the two sides' record tags
# come from disjoint halves of the vocabulary.
LEFT_TAGS, RIGHT_TAGS = TAGS[0::2], TAGS[1::2]


@given(
    left=stores(LEFT_TAGS),
    right=stores(RIGHT_TAGS),
    left_tags=tag_choices(LEFT_TAGS),
    right_tags=tag_choices(RIGHT_TAGS),
    field_tags=tag_choices(TAGS),
    cross=st.sampled_from(["similar", "equal"]),
)
@settings(max_examples=60, deadline=None)
def test_join_xpaths_are_closed_and_sound(
    left, right, left_tags, right_tags, field_tags, cross
):
    database = Database()
    _collection(database, "left", left)
    _collection(database, "right", right)
    pattern = pattern_of(
        [(0, None, PC), (1, 0, AD), (2, 1, PC), (3, 0, AD), (4, 3, PC)]
    )
    pattern.condition = And(
        _tag_condition(1, left_tags),
        _tag_condition(3, right_tags),
        _tag_condition(2, field_tags),
        _tag_condition(4, field_tags),
        SimilarTo(NodeContent(2), NodeContent(4))
        if cross == "similar"
        else Comparison("=", NodeContent(2), NodeContent(4)),
    )
    for side in join_side_patterns(pattern, pattern.condition):
        _assert_closed(compile_pattern_to_xpath(side))
    assert_matches_reference(
        QueryExecutor(database, _CONTEXT).join("left", "right", pattern, [2, 4]),
        ReferenceExecutor(database, _CONTEXT).join("left", "right", pattern, [2, 4]),
        accesses=False,
    )


def _single_node(tag):
    pattern = pattern_of([(1, None, PC)])
    pattern.condition = Comparison("=", NodeTag(1), Constant(tag))
    return pattern


def test_namespaced_tag_selects_what_the_algebra_selects():
    # Regression: ``dc:title`` used to be spliced in bare and the
    # executor raised XPathSyntaxError("unexpected ':'").
    database = Database()
    collection = database.create_collection("c")
    collection.add_document("d", "<r><dc:title>x</dc:title><title>y</title></r>")
    pattern = _single_node("dc:title")
    assert compile_pattern_to_xpath(pattern) == "//*[name() = 'dc:title']"
    expected = algebra.selection(collection.roots(), pattern, [1])
    report = QueryExecutor(database).selection("c", pattern, [1])
    assert len(report.results) == len(expected) == 1
    assert report.results[0].canonical_key() == expected[0].canonical_key()


@pytest.mark.parametrize("tag", ["title", "a.b-c_d", "_x", "or", "text"])
def test_plain_names_are_still_inlined(tag):
    # Plan-cache keys, explain output and the e2e goldens' xpath_queries
    # depend on these staying byte-stable.
    assert compile_pattern_to_xpath(_single_node(tag)) == f"//{tag}"


def test_unquotable_tag_alternative_drops_the_whole_name_predicate():
    # ``name() = None`` would be a child-element test no node passes: a
    # node tagged with the other alternative could never be a candidate.
    pattern = pattern_of([(1, None, PC)])
    pattern.condition = _tag_condition(1, ["'\"", "t"])
    assert compile_pattern_to_xpath(pattern) == "//*"
    assert compile_pattern_to_xpath(_single_node("'\"")) == "//*"


def test_fetch_outside_the_columnar_subset_raises_naming_the_xpath():
    database = Database()
    database.create_collection("c").add_document("d", "<r><a/><a/></r>")
    xpath = "//a[position() = 2]"
    assert XPathQuery(xpath).columnar_rows() is None
    with pytest.raises(QueryExecutionError, match="position"):
        QueryExecutor(database)._fetch("c", xpath, None, None)
