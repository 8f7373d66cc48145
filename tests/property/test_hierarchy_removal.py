"""Property: removing a downward-closed term set equals rebuilding.

:meth:`~repro.ontology.hierarchy.Hierarchy.without_leaves` removes a set
of terms in which every child of a removed term is removed too — minimal
terms, or a fresh hypernym chain leaving with its top — without
re-reducing.  The result must be the hierarchy rebuilt from the
surviving edges, its covers and both closures included, whichever
closures the original had computed.  A set with a surviving term below
a removed one is refused.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology import Hierarchy


@st.composite
def hierarchies(draw):
    """An acyclic order over ``t0 .. tn-1`` (edges point to higher indices)."""
    count = draw(st.integers(1, 9))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).filter(
                lambda pair: pair[0] < pair[1]
            ),
            max_size=3 * count,
        )
    )
    return Hierarchy(
        [(f"t{lower}", f"t{upper}") for lower, upper in edges],
        nodes=[f"t{index}" for index in range(count)],
    )


def closed_below(hierarchy, seeds):
    """``seeds`` and everything below them: a downward-closed set."""
    closed = set(seeds)
    for seed in seeds:
        closed |= hierarchy.descendants(seed)
    return closed


def rebuilt(hierarchy, removed):
    survivors = set(hierarchy.terms) - removed
    return Hierarchy(
        [(lower, upper) for lower, upper in hierarchy.edges() if lower in survivors],
        nodes=survivors,
    )


@given(hierarchy=hierarchies(), data=st.data(), warm=st.sampled_from(["none", "up", "both"]))
@settings(max_examples=200, deadline=None)
def test_removing_a_downward_closed_set_equals_rebuilding(hierarchy, data, warm):
    terms = sorted(hierarchy.terms)
    seeds = data.draw(st.lists(st.sampled_from(terms), max_size=3))
    removed = closed_below(hierarchy, seeds)
    # The closures a caller already forced are carried, not recomputed.
    if warm in ("up", "both"):
        hierarchy.ancestors(terms[0])
    if warm == "both":
        hierarchy.descendants(terms[0])
    shrunk = hierarchy.without_leaves(removed)
    expected = rebuilt(hierarchy, removed)
    assert shrunk == expected
    for term in expected.terms:
        assert shrunk.children(term) == expected.children(term)
        assert shrunk.ancestors(term) == expected.ancestors(term)
        assert shrunk.descendants(term) == expected.descendants(term)


@given(hierarchy=hierarchies(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_survivor_below_a_removed_term_is_refused(hierarchy, data):
    terms = sorted(hierarchy.terms)
    uppers = [term for term in terms if hierarchy.children(term)]
    if not uppers:
        return
    upper = data.draw(st.sampled_from(uppers))
    survivor = data.draw(st.sampled_from(sorted(hierarchy.children(upper))))
    removed = closed_below(hierarchy, [upper]) - {survivor}
    assert hierarchy.without_leaves(removed) is None


def test_a_fresh_hypernym_chain_leaves_with_its_top():
    hierarchy = Hierarchy([("n0", "top0"), ("top0", "root"), ("leaf", "root")])
    shrunk = hierarchy.without_leaves(["top0", "n0"])
    assert shrunk == Hierarchy([("leaf", "root")])
    assert shrunk.descendants("root") == {"leaf"}
    assert hierarchy.without_leaves(["top0"]) is None
    assert hierarchy.without_leaves(["absent"]) is None
