"""The filtered bipartite probe finds exactly what all-pairs probing finds.

``similar_pairs`` must report every epsilon-similar pair across two string
sets and nothing else, whatever the filters skip; and the planner's cross
probe built on it must keep exactly the documents an all-pairs
``seo.similar`` sweep keeps — SEO-known terms (similar at any distance
through a shared node) included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import CrossProbe, prune_join_docs
from repro.guard import ResourceGuard
from repro.ontology import Hierarchy
from repro.similarity.candidates import bipartite_index, similar_pairs
from repro.similarity.measures import DamerauLevenshtein, Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.xmldb.database import Database

#: A small alphabet and short strings make near pairs common.
terms = st.text(alphabet="abc d", min_size=0, max_size=9)
term_sets = st.lists(terms, max_size=14, unique=True)
epsilons = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])


@given(left=term_sets, right=term_sets, epsilon=epsilons)
@settings(max_examples=200, deadline=None)
def test_filtered_pairs_equal_all_pairs(left, right, epsilon):
    measure = Levenshtein()
    truth = {
        (x, y) for x in left for y in right if measure.distance(x, y) <= epsilon
    }
    guard = ResourceGuard()
    matches, stats = similar_pairs(
        left, bipartite_index(right, measure, epsilon), measure, guard
    )
    assert set(matches) == truth and len(matches) == len(truth)
    assert stats.edges == len(truth) <= stats.candidates <= stats.length_compatible
    assert stats.length_compatible == sum(
        abs(len(x) - len(y)) <= epsilon for x in left for y in right
    )
    # one tick per probe string, one per verified pair
    assert guard.steps == len(left) + stats.candidates


@given(left=term_sets, right=term_sets, epsilon=epsilons)
@settings(max_examples=60, deadline=None)
def test_measures_without_the_count_bound_verify_every_compatible_pair(
    left, right, epsilon
):
    measure = DamerauLevenshtein()  # a transposition breaks Ukkonen's bound
    matches, stats = similar_pairs(
        left, bipartite_index(right, measure, epsilon), measure
    )
    assert stats.candidates == stats.length_compatible
    assert set(matches) == {
        (x, y)
        for x in left
        for y in right
        if abs(len(x) - len(y)) <= epsilon and measure.distance(x, y) <= epsilon
    }


def _collection(database, name, values):
    collection = database.create_collection(name)
    for number, value in enumerate(values):
        collection.add_document(f"{name}-{number}", f"<d><t>{value}</t></d>")
    return collection.search_index()


@given(
    left=term_sets,
    right=term_sets,
    known=st.lists(terms, max_size=6, unique=True),
    epsilon=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=120, deadline=None)
def test_cross_probe_keeps_the_documents_all_pairs_keeps(left, right, known, epsilon):
    # Strip/skip values the XML round trip would not preserve verbatim.
    left = [v for v in left if v == v.strip() and v]
    right = [v for v in right if v == v.strip() and v]
    known = [v for v in known if v == v.strip() and v]
    # ``known`` terms hang under one parent: the SEO may fuse them with
    # each other, so they can be "similar" beyond the string distance.
    hierarchy = Hierarchy([(term, "root") for term in known] or [("x", "root")])
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), epsilon)
    database = Database()
    left_index = _collection(database, "l", left + known[:3])
    right_index = _collection(database, "r", right + known[2:])
    probe = CrossProbe("similar", 1, 2, frozenset({"t"}), frozenset({"t"}))

    left_terms = left_index.terms_with_tags(probe.left_tags)
    right_terms = right_index.terms_with_tags(probe.right_tags)
    want_left, want_right = set(), set()
    for x, x_docs in left_terms.items():
        for y, y_docs in right_terms.items():
            if seo.similar(x, y):
                want_left |= x_docs
                want_right |= y_docs

    got = prune_join_docs(left_index, right_index, probe, seo, ResourceGuard())
    assert got == (want_left, want_right)
