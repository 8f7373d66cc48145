"""Property: an answer read as text is the answer read as a tree.

Selections and joins return their answers as row references
(:class:`~repro.tax.batch.ResultRows`) that serialise from a per-row
text memo and materialise only when ``.results`` is read.  Over hostile
documents — ``& < > " '`` and U+2028 in text and attribute values, empty
text, childless elements, nested repeats of the queried tags — the
memo's text must be the materialised copy's, and a report's texts, taken
before its trees were ever touched, must be the bytes of its own trees
and of the reference executor's answer, for selections, joins with the
product root in SL and textual joins (both side roots in SL).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.core.reference import ReferenceExecutor
from repro.obs.metrics import REGISTRY as METRICS
from repro.tax import batch as tax_batch
from repro.xmldb.database import Database
from repro.xmldb.model import XmlNode
from repro.xmldb.serializer import serialize

TAGS = ["paper", "title", "x"]

texts = st.sampled_from(
    ["", "a & b", "x < y > z", 'say "hi"', "it's", "line\u2028sep", "<&>\"'", "t"]
) | st.text(st.sampled_from("ab &<>\"'\u2028"), max_size=6)

attributes = st.dictionaries(st.sampled_from(["key", "n"]), texts, max_size=2)


@st.composite
def trees(draw, depth=3):
    node = XmlNode(draw(st.sampled_from(TAGS)), draw(texts), draw(attributes))
    if depth:
        for child in draw(st.lists(trees(depth=depth - 1), max_size=3)):
            node.append(child)
    return node


documents = st.lists(trees(), min_size=1, max_size=4)

SELECTIONS = ["paper", "*", "paper(title)", "x(//title)", "title"]
JOINS = ["paper, x", "paper(title), //title", "x, paper(x)"]


def _database(left, right):
    database = Database()
    for name, docs in (("left", left), ("right", right)):
        collection = database.create_collection(name)
        for index, tree in enumerate(docs):
            collection.add_document(f"{name}-{index}", tree)
    return database


def _numbered(trees_):
    return [[(node.pre, node.post, node.depth) for node in tree.iter()] for tree in trees_]


def _materialized():
    return METRICS.counter("tax.results.materialized").value


def _check(production, oracle):
    before = _materialized()
    texts_first = production.result_texts()
    assert _materialized() == before
    assert isinstance(production._results, tax_batch.ResultRows)
    trees_ = production.results
    assert texts_first == [serialize(tree) for tree in trees_]
    assert texts_first == [serialize(tree) for tree in oracle.results]
    assert [t.canonical_key() for t in trees_] == [
        t.canonical_key() for t in oracle.results
    ]
    assert _numbered(trees_) == _numbered(oracle.results)


@settings(max_examples=60, deadline=None)
@given(docs=documents)
def test_memo_text_is_the_copy_text(docs):
    database = _database(docs, [])
    collection = database.get_collection("left")
    for key, root in collection.documents():
        columns = collection.columns_for(key, root)
        for row in range(len(columns.nodes)):
            assert columns.subtree_text(row) == serialize(columns.materialize(row))
            # Cached: the same string object on a second read.
            assert columns.subtree_text(row) is columns.subtree_text(row)


@settings(max_examples=60, deadline=None)
@given(docs=documents, text=st.sampled_from(SELECTIONS))
def test_selection_texts_before_trees(docs, text):
    database = _database(docs, [])
    parsed = parse_query(text)
    production = QueryExecutor(database).selection("left", parsed.pattern, parsed.roots)
    oracle = ReferenceExecutor(database).selection("left", parsed.pattern, parsed.roots)
    _check(production, oracle)


def _nested_papers():
    inner = XmlNode("paper")
    inner.append(XmlNode("x"))
    outer = XmlNode("paper")
    outer.append(inner)
    return outer


@settings(max_examples=60, deadline=None)
@given(
    left=documents,
    right=documents,
    text=st.sampled_from(JOINS),
    product_root_in_sl=st.booleans(),
)
# A side's candidates are the rows its pattern embeds at: the outer paper
# has no x child, so it must not hang off the product root, where the
# ad edge would bind paper(x) to the inner paper and answer the product
# of the whole outer subtree.
@example(
    left=[XmlNode("paper"), XmlNode("x")],
    right=[_nested_papers()],
    text="x, paper(x)",
    product_root_in_sl=False,
)
def test_join_texts_before_trees(left, right, text, product_root_in_sl):
    database = _database(left, right)
    parsed = parse_query(text)
    sl = [parsed.pattern.root] if product_root_in_sl else parsed.roots
    production = QueryExecutor(database).join("left", "right", parsed.pattern, sl)
    oracle = ReferenceExecutor(database).join("left", "right", parsed.pattern, sl)
    _check(production, oracle)
