"""Property-based tests: SEA output satisfies Definition 8 on random DAGs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaRefused, SimilarityInconsistencyError
from repro.ontology import Hierarchy
from repro.similarity.incremental import EpsilonGraphCache
from repro.similarity.measures import Levenshtein
from repro.similarity.sea import ORDER_SAFE, extend_enhancement, sea

# Short lower-case words: small alphabet so similarities actually occur.
words = st.text(alphabet="abcd", min_size=1, max_size=5)


@st.composite
def random_hierarchies(draw):
    """A random DAG: terms plus edges from earlier to later terms."""
    terms = draw(
        st.lists(words, min_size=2, max_size=8, unique=True)
    )
    edges = []
    for i, lower in enumerate(terms):
        for upper in terms[i + 1 :]:
            if draw(st.booleans()) and draw(st.booleans()):
                edges.append((lower, upper))
    return Hierarchy(edges, nodes=terms)


@given(hierarchy=random_hierarchies(), epsilon=st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_order_safe_sea_always_exists_and_verifies(hierarchy, epsilon):
    """Order-safe mode never raises and satisfies conditions 1, 2, 4."""
    enhancement = sea(
        hierarchy, Levenshtein(), epsilon, mode=ORDER_SAFE, verify=True
    )
    # mu is total: every original node appears in some enhanced node.
    for term in hierarchy.terms:
        assert enhancement.mu[term]


@given(hierarchy=random_hierarchies(), epsilon=st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_strict_sea_verifies_when_it_exists(hierarchy, epsilon):
    """Strict mode either raises Definition 9's inconsistency or returns a
    verified enhancement (Theorem 2)."""
    try:
        sea(hierarchy, Levenshtein(), epsilon, verify=True)
    except SimilarityInconsistencyError:
        pass


@given(hierarchy=random_hierarchies())
@settings(max_examples=40, deadline=None)
def test_epsilon_zero_is_isomorphic(hierarchy):
    """At epsilon 0 (distinct terms), H' ~ H: Theorem 1's base case."""
    enhancement = sea(hierarchy, Levenshtein(), 0.0, verify=True)
    assert len(enhancement.hierarchy) == len(hierarchy)
    mapping = {next(iter(node.members)): node for node in enhancement.hierarchy.terms}
    for lower in hierarchy.terms:
        for upper in hierarchy.terms:
            assert hierarchy.leq(lower, upper) == enhancement.hierarchy.leq(
                mapping[lower], mapping[upper]
            )


@given(hierarchy=random_hierarchies(), epsilon=st.sampled_from([1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_similarity_expansion_monotone_in_epsilon(hierarchy, epsilon):
    """cohabiting at epsilon implies cohabiting at any larger epsilon
    (order-safe mode, where enhancements always exist)."""
    small = sea(hierarchy, Levenshtein(), epsilon, mode=ORDER_SAFE)
    large = sea(hierarchy, Levenshtein(), epsilon + 1.0, mode=ORDER_SAFE)
    for a, b in itertools.combinations(hierarchy.terms, 2):
        if small.cohabiting(a, b):
            assert large.cohabiting(a, b)


@given(hierarchy=random_hierarchies(), epsilon=st.sampled_from([0.0, 1.0]))
@settings(max_examples=40, deadline=None)
def test_enhancement_theorem_1_uniqueness(hierarchy, epsilon):
    """Running SEA twice yields identical (not just isomorphic) output."""
    first = sea(hierarchy, Levenshtein(), epsilon, mode=ORDER_SAFE)
    second = sea(hierarchy, Levenshtein(), epsilon, mode=ORDER_SAFE)
    assert first.hierarchy == second.hierarchy
    assert first.mu == second.mu


# ---------------------------------------------------------------------------
# extend_enhancement: a patch for leaves that came and went == sea from scratch
# ---------------------------------------------------------------------------

ROOT = "RRRRRRRRRRRRRRRR"
TAGS = ("XXXXXXXX", "YYYYYYYYYYYY")  # far from each other and from any word


def leaf_hierarchy(leaves):
    """Two tags under one root; every word hangs below one tag or both."""
    edges = [(tag, ROOT) for tag in TAGS]
    edges += [(word, tag) for word, parents in leaves.items() for tag in parents]
    return Hierarchy(edges)


leaf_sets = st.dictionaries(
    words,
    st.sampled_from([TAGS[:1], TAGS[1:], TAGS]),
    min_size=2,
    max_size=7,
)


def assert_same_enhancement(patched, scratch):
    assert set(patched.hierarchy.terms) == set(scratch.hierarchy.terms)  # cliques
    assert patched.hierarchy == scratch.hierarchy  # H'
    assert patched.mu == scratch.mu
    assert {
        context: set(nodes) for context, nodes in patched.context_buckets.items()
    } == {context: set(nodes) for context, nodes in scratch.context_buckets.items()}


@given(
    base=leaf_sets,
    rounds=st.lists(
        st.tuples(st.sets(st.integers(min_value=0, max_value=6)), leaf_sets),
        min_size=1,
        max_size=3,
    ),
    epsilon=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=120, deadline=None)
def test_leaf_patch_equals_from_scratch_sea(base, rounds, epsilon):
    """Withdrawing and hanging minimal terms patches the enhancement to
    exactly what SEA builds from scratch: cliques, mu, H', buckets — round
    after round, on the verdict cache the patches themselves maintain."""
    cache = EpsilonGraphCache()
    leaves = dict(base)
    hierarchy = leaf_hierarchy(leaves)
    enhancement = sea(hierarchy, Levenshtein(), epsilon, mode=ORDER_SAFE, reuse=cache)
    for positions, arrivals in rounds:
        current = sorted(leaves)
        gone = {current[p % len(current)] for p in positions}
        after = {word: tags for word, tags in leaves.items() if word not in gone}
        after.update({w: t for w, t in arrivals.items() if w not in leaves})
        target = leaf_hierarchy(after)
        try:
            patched, removed, added = extend_enhancement(
                enhancement, hierarchy, target, epsilon, mode=ORDER_SAFE, reuse=cache
            )
        except DeltaRefused as refused:
            # Legitimate only when a tag's context landed on another node's
            # (e.g. both tags ended up over the same leaves), or the base
            # had no two leaves to compare.
            assert refused.reason in ("moved-context-collides", "no-verdict-cache")
            return
        scratch = sea(target, Levenshtein(), epsilon, mode=ORDER_SAFE, verify=True)
        assert_same_enhancement(patched, scratch)
        previous_cliques = set(enhancement.hierarchy.terms)
        assert set(removed) <= previous_cliques
        assert (previous_cliques - set(removed)) | set(added) == set(
            patched.hierarchy.terms
        )
        live_reps = set(after) | set(TAGS) | {ROOT}
        assert all(
            rep in live_reps for bucket in cache._buckets for rep in bucket.reps
        )
        leaves, hierarchy, enhancement = after, target, patched


def test_leaf_patch_refuses_on_a_non_singleton_ancestor():
    """A changed leaf moves its ancestors' contexts; an ancestor that is
    similar to another node cannot move without re-running SEA."""
    cache = EpsilonGraphCache()
    old = Hierarchy(
        [("aaaa", "tagx"), ("aaab", "tagx"), ("aaaa", "tagy"), ("aaab", "tagy")]
    )
    enhancement = sea(old, Levenshtein(), 1.0, mode=ORDER_SAFE, reuse=cache)
    assert enhancement.cohabiting("tagx", "tagy")
    for target in (
        Hierarchy([("aaaa", "tagx"), ("aaaa", "tagy")]),  # "aaab" withdrawn
        old.extended_with_lower_terms([("aaac", "tagx"), ("aaac", "tagy")]),
    ):
        with pytest.raises(DeltaRefused) as refusal:
            extend_enhancement(
                enhancement, old, target, 1.0, mode=ORDER_SAFE, reuse=cache
            )
        assert refusal.value.reason == "ancestor-not-singleton"


def test_leaf_patch_withdrawal_runs_no_distance_computation():
    class Counting(Levenshtein):
        calls = 0

        def bounded_distance(self, x, y, bound):
            Counting.calls += 1
            return super().bounded_distance(x, y, bound)

    cache = EpsilonGraphCache()
    leaves = {"aaaa": TAGS[:1], "aaab": TAGS[:1], "aabb": TAGS[:1], "dddd": TAGS[1:]}
    old = leaf_hierarchy(leaves)
    enhancement = sea(old, Counting(), 1.0, mode=ORDER_SAFE, reuse=cache)
    del leaves["aaab"]
    Counting.calls = 0
    patched, removed, added = extend_enhancement(
        enhancement, old, leaf_hierarchy(leaves), 1.0, mode=ORDER_SAFE, reuse=cache
    )
    assert Counting.calls == 0
    # {aaaa, aaab} and {aaab, aabb} die; their remainders are reborn.
    assert sorted(str(node) for node in removed) == ["{aaaa, aaab}", "{aaab, aabb}"]
    assert sorted(str(node) for node in added) == ["aaaa", "aabb"]
    assert "aaab" not in patched.mu
