"""Property: index-pruned execution equals the full scan, exactly.

The planner's whole contract is that pruning is invisible: for any
store, any condition shape it probes (equality, or-chains, ``~``, isa)
and any SEO context (present, absent with exact fallback, absent with
plain equality), the indexed production path returns the same result
sequence — same trees, same order, same bytes — as the reference
executor, which scans every document.  We fuzz synthetic
multi-document stores whose values are deliberate near-misses of each
other so every pruning rule (exact probes, SEO expansion, edit-distance
augmentation, cross-side pre-joins) is actually exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import (
    EXACT_FALLBACK_CONTEXT,
    Below,
    SeoConditionContext,
    SimilarTo,
)
from repro.core.executor import QueryExecutor
from repro.core.reference import ReferenceExecutor
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag, Or
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.database import Database

from tests.oracle import answer, assert_matches_reference

# Titles are near-misses of each other (edit distance 1-2) so similarity
# probes must use distance augmentation, not just exact lookup.
TITLES = ["alpha", "alphq", "aleph", "beta", "betta", "gamma", "gamm", ""]
VENUES = ["SIGMOD", "SIGM0D", "VLDB", "KDD", "ICDE"]

HIERARCHY = Hierarchy(
    [
        ("SIGMOD", "database conference"),
        ("VLDB", "database conference"),
        ("KDD", "data mining conference"),
        ("alpha", "greek letter"),
        ("beta", "greek letter"),
    ]
)

_SEO = {}


def _context(epsilon):
    if epsilon not in _SEO:
        _SEO[epsilon] = SeoConditionContext(
            SimilarityEnhancedOntology.for_hierarchy(
                HIERARCHY, Levenshtein(), epsilon
            )
        )
    return _SEO[epsilon]


def _render(books):
    parts = ["<lib>"]
    for title, venue in books:
        parts.append(
            f"<book><title>{title}</title><venue>{venue}</venue></book>"
        )
    parts.append("</lib>")
    return "".join(parts)


def _database(name, docs):
    db = Database()
    col = db.create_collection(name)
    for i, books in enumerate(docs):
        col.add_document(f"d{i}", _render(books))
    return db


book = st.tuples(st.sampled_from(TITLES), st.sampled_from(VENUES))
doc = st.lists(book, min_size=1, max_size=3)
docs = st.lists(doc, min_size=1, max_size=5)


def _selection_pattern(atom):
    pattern = pattern_of([(1, None, PC), (2, 1, PC), (3, 1, PC)])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("book")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("venue")),
        atom,
    )
    return pattern


def _atom(kind, title, venue):
    if kind == "equal":
        return Comparison("=", NodeContent(2), Constant(title))
    if kind == "or":
        return Or(
            Comparison("=", NodeContent(2), Constant(title)),
            Comparison("=", NodeContent(2), Constant(title[:-1] or "beta")),
        )
    if kind == "similar":
        return SimilarTo(NodeContent(2), Constant(title))
    return Below(NodeContent(3), Constant(venue))


@given(
    store=docs,
    kind=st.sampled_from(["equal", "or", "similar", "below"]),
    title=st.sampled_from(TITLES),
    category=st.sampled_from(
        ["database conference", "data mining conference", "greek letter"]
    ),
    epsilon=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_selection_with_seo_context(store, kind, title, category, epsilon):
    database = _database("lib", store)
    pattern = _selection_pattern(_atom(kind, title, category))
    context = _context(epsilon)
    indexed = QueryExecutor(database, context)
    scan = ReferenceExecutor(database, context)
    left = indexed.selection("lib", pattern, sl_labels=[1])
    assert_matches_reference(left, scan.selection("lib", pattern, sl_labels=[1]))
    assert left.docs_scanned <= left.docs_total
    projected = indexed.projection("lib", pattern, [2, (3, True)])
    assert_matches_reference(
        projected, scan.projection("lib", pattern, [2, (3, True)])
    )


@given(
    store=docs,
    kind=st.sampled_from(["equal", "or", "similar", "below"]),
    title=st.sampled_from(TITLES),
    exact_fallback=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_selection_without_seo_context(store, kind, title, exact_fallback):
    # No context: semantic atoms either degrade to exact matches
    # (exact_fallback) or make the query raise — in which case the
    # planner must refuse to prune so both paths raise identically.
    database = _database("lib", store)
    pattern = _selection_pattern(_atom(kind, title, "database conference"))
    indexed = QueryExecutor(database, None, exact_fallback=exact_fallback)
    scan = ReferenceExecutor(
        database, EXACT_FALLBACK_CONTEXT if exact_fallback else None
    )

    def run(executor):
        try:
            return answer(executor.selection("lib", pattern, sl_labels=[1]))
        except Exception as exc:
            return f"raised: {type(exc).__name__}"

    assert run(indexed) == run(scan)


def _join_pattern(cross_kind):
    pattern = pattern_of(
        [(0, None, PC), (1, 0, PC), (2, 1, PC), (4, 0, AD), (5, 4, PC)]
    )
    if cross_kind == "similar":
        cross = SimilarTo(NodeContent(2), NodeContent(5))
    else:
        cross = Comparison("=", NodeContent(2), NodeContent(5))
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("book")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(4), Constant("item")),
        Comparison("=", NodeTag(5), Constant("name")),
        cross,
    )
    return pattern


def _render_right(names):
    parts = ["<shop>"]
    for name in names:
        parts.append(f"<item><name>{name}</name></item>")
    parts.append("</shop>")
    return "".join(parts)


@given(
    left_store=st.lists(doc, min_size=1, max_size=3),
    right_store=st.lists(
        st.lists(st.sampled_from(TITLES), min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    ),
    cross_kind=st.sampled_from(["similar", "equal"]),
    sl=st.sampled_from([[2, 5], [0], [1]]),
    epsilon=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_join_equivalence(left_store, right_store, cross_kind, sl, epsilon):
    database = Database()
    left = database.create_collection("lib")
    for i, books in enumerate(left_store):
        left.add_document(f"l{i}", _render(books))
    right = database.create_collection("shop")
    for i, names in enumerate(right_store):
        right.add_document(f"r{i}", _render_right(names))

    pattern = _join_pattern(cross_kind)
    context = _context(epsilon)
    a = QueryExecutor(database, context).join("lib", "shop", pattern, sl_labels=sl)
    b = ReferenceExecutor(database, context).join(
        "lib", "shop", pattern, sl_labels=sl
    )
    # The cross probe and the hash join skip pairs the oracle's full
    # product evaluates: results only.
    assert_matches_reference(a, b, accesses=False)
    assert a.docs_scanned <= a.docs_total
