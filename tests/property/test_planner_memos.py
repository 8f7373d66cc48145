"""Property-based tests: the planner's memos never change a probe.

The structural intersection is memoised in the search index, the
off-ontology residue a ``~`` probe scans in the executor, and a pruned
fetch orders its keys by insertion ordinal.  Across any interleaving of
adds, replaces, removes and builds, the memoised prune must keep the
document set a memo-free run over a freshly built index keeps, at the
same guard charges, cold and warm; answers must match the reference
oracle; and the ordinal fetch must list the documents a filter over the
collection in dict order lists.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.core.planner import prune_candidates
from repro.core.system import TossSystem
from repro.guard import ResourceGuard
from repro.xmldb.collection import Collection
from repro.xmldb.index import CollectionSearchIndex

from tests.oracle import assert_matches_reference

AUTHORS = ["J. Smith", "J. Smyth", "A. Stone", "A. Stane", "B. Swan"]
TITLES = ["Indexing", "Indexin", "Querying", "Fusion"]

#: Every author is an SEO term after a build (empty residue until a write
#: brings a new one); no title ever is, so the title scan does real work;
#: no document is an ``article``, so that probe's structure is empty.
QUERIES = [
    'inproceedings(author ~ "J. Smith")',
    'inproceedings(title ~ "Indexing")',
    'article(title ~ "Indexing")',
]


def make_doc(author: str, title: str, serial: int) -> str:
    return (
        f'<dblp><inproceedings key="x{serial}">'
        f"<author>{author}</author><title>{title}</title>"
        f"</inproceedings></dblp>"
    )


documents = st.builds(
    lambda author, digit, title, serial: make_doc(f"{author}{digit}", title, serial),
    author=st.sampled_from(AUTHORS),
    digit=st.sampled_from(["", "1", "2"]),
    title=st.sampled_from(TITLES),
    serial=st.integers(min_value=0, max_value=9),
)

operations = st.one_of(
    st.tuples(st.just("add"), documents),
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=99), documents),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("build")),
)


def apply(system, op):
    keys = list(system.database.get_collection("dblp").keys())
    kind = op[0]
    if kind == "add":
        system.add_documents("dblp", op[1])
    elif kind == "replace":
        system.replace_documents("dblp", {keys[op[1] % len(keys)]: op[2]})
    elif kind == "remove":
        if len(keys) > 1:  # keep the instance non-empty
            system.remove_documents("dblp", [keys[op[1] % len(keys)]])
    else:
        system.build()


def probe_charges(guard):
    return guard.steps, guard.stage_steps


def check_prunes(system):
    """Memoised prunes (cold, then warm) against a memo-free one."""
    executor = system.executor
    collection = system.database.get_collection("dblp")
    fresh = CollectionSearchIndex()
    for key, root in collection.documents():
        fresh.add_document(key, root)
    for text in QUERIES:
        plan, _hit = executor._plan(parse_query(text).pattern, join=False)
        guard = ResourceGuard()
        expected = prune_candidates(plan.specs[0], fresh, guard, executor.context.seo)
        for _pass in ("cold", "warm"):
            memoised = ResourceGuard()
            (docs,), total, scanned, _pairs = executor._prune(["dblp"], plan, memoised)
            assert set(docs) == set(expected)
            assert (total, scanned) == (len(collection), len(expected))
            assert probe_charges(memoised) == probe_charges(guard)


def check_answers(system):
    # Results only: every query is a ~ selection, which the oracle's XPath
    # does not narrow, so it asks the SEO about the documents the index
    # prunes before production fetches them.
    for text in QUERIES:
        parsed = parse_query(text)
        assert_matches_reference(
            system.select("dblp", parsed.pattern, parsed.roots),
            system.reference_executor().selection(
                "dblp", parsed.pattern, parsed.roots
            ),
            accesses=False,
        )


@given(
    initial=st.lists(documents, min_size=1, max_size=4),
    ops=st.lists(operations, min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_memoised_prunes_equal_a_memo_free_run(initial, ops):
    system = TossSystem(epsilon=1.0)
    system.add_instance("dblp", initial)
    system.build()
    check_prunes(system)
    check_answers(system)
    for op in ops:
        apply(system, op)
        # Between a write and its build the context still holds the old
        # SEO: the new document's author is off-ontology there.
        check_prunes(system)
        if op[0] == "build":
            check_answers(system)


KEYS = [f"k{i}" for i in range(6)]
#: Documents that are there from the start: beside them, a subset of
#: KEYS is small enough to be sorted by ordinal, or, past a quarter of
#: the collection, filtered in one pass.
FILLERS = [f"f{i}" for i in range(20)]

collection_ops = st.tuples(
    st.sampled_from(["add", "replace", "remove"]),
    st.sampled_from(KEYS + FILLERS[:2]),
)


@given(ops=st.lists(collection_ops, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_ordinal_fetch_is_the_dict_order_filter(ops):
    collection = Collection("c")
    for key in FILLERS:
        collection.add_document(key, "<d/>")
    for serial, (kind, key) in enumerate(ops):
        if kind == "remove":
            if key in collection:
                collection.remove_document(key)
        elif kind == "add" and key not in collection:
            collection.add_document(key, f"<d>{serial}</d>")
        else:  # a replace (of an absent key: a re-add) moves it to the end
            collection.replace_document(key, f"<d>{serial}</d>")
        for size in range(len(KEYS) + 1):
            for subset in itertools.combinations(KEYS + ["missing"], size):
                wanted = set(subset)
                items, kept = collection._selected(subset)
                assert [
                    item for item in items if kept is None or item[0] in kept
                ] == [
                    item for item in collection.documents() if item[0] in wanted
                ]
