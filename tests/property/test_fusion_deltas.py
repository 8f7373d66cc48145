"""Property: the fusion's leaf deltas agree with recomputing it.

The write path keeps a canonical fusion current without recondensing:
:func:`~repro.ontology.fusion.extend_fusion` grows it by terms new to a
source that sit below the existing order (isolated terms, leaves under
old terms, fresh hypernym chains), and
:func:`~repro.ontology.fusion.retract_fusion` withdraws such terms.
Both must build exactly what :func:`~repro.ontology.fusion.canonical_fusion`
builds on the grown or shrunk inputs, and a retraction must undo the
extension it follows.  Fused nodes are fresh objects on either route, so
fusions are compared up to isomorphism: by their nodes' member sets, the
Hasse edges between them and the witness of every scoped term.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology import Hierarchy
from repro.ontology.fusion import canonical_fusion, extend_fusion, retract_fusion

from tests.property.test_fusion_properties import hierarchy_pairs_with_constraints


@st.composite
def leaf_deltas(draw):
    """Base inputs, their constraints, and per source the new terms with
    the grown hierarchy: each new term is isolated or sits below old
    terms, earlier new terms or a fresh top of its own."""
    left, right, constraints = draw(hierarchy_pairs_with_constraints())
    base = {1: left, 2: right}
    grown, new_terms = {}, {}
    for source, hierarchy in base.items():
        old = sorted(hierarchy.terms)
        added, edges = [], []
        for index in range(draw(st.integers(0, 3))):
            term = f"n{index}"
            uppers = draw(st.lists(st.sampled_from(old + added + [f"top{index}"]), max_size=2))
            edges.extend((term, upper) for upper in uppers)
            added.append(term)
            added.extend(upper for upper in uppers if upper.startswith("top"))
        new_terms[source] = sorted(set(added))
        grown[source] = Hierarchy(
            list(hierarchy.edges()) + edges, nodes=set(hierarchy.terms) | set(added)
        )
    return base, grown, new_terms, constraints


def shape(fusion):
    """A fusion up to the identity of its node objects."""
    return (
        {node.members for node in fusion.hierarchy.terms},
        {(lower.members, upper.members) for lower, upper in fusion.hierarchy.edges()},
        {scoped: node.members for scoped, node in fusion.witness.items()},
    )


def delta_of(grown, new_terms):
    """``(added_edges, added_nodes)``: the grown Hasse pairs whose lower
    term is new, and the new terms with no such pair."""
    edges = {
        source: [(lower, upper) for lower, upper in grown[source].edges() if lower in terms]
        for source, terms in new_terms.items()
    }
    lowers = {source: {lower for lower, _ in pairs} for source, pairs in edges.items()}
    nodes = {
        source: [term for term in terms if term not in lowers[source]]
        for source, terms in new_terms.items()
    }
    return edges, nodes


@given(data=leaf_deltas())
@settings(max_examples=120, deadline=None)
def test_extension_equals_the_fusion_of_the_grown_inputs(data):
    base, grown, new_terms, constraints = data
    added_edges, added_nodes = delta_of(grown, new_terms)
    extended = extend_fusion(canonical_fusion(base, constraints), added_edges, added_nodes)
    assert shape(extended) == shape(canonical_fusion(grown, constraints))


@given(data=leaf_deltas())
@settings(max_examples=120, deadline=None)
def test_retraction_equals_the_fusion_of_the_shrunk_inputs(data):
    base, grown, new_terms, constraints = data
    removed_edges, _nodes = delta_of(grown, new_terms)
    retracted = retract_fusion(
        canonical_fusion(grown, constraints), new_terms, removed_edges, constraints
    )
    assert shape(retracted) == shape(canonical_fusion(base, constraints))


@given(data=leaf_deltas())
@settings(max_examples=120, deadline=None)
def test_retraction_undoes_an_extension(data):
    base, grown, new_terms, constraints = data
    added_edges, added_nodes = delta_of(grown, new_terms)
    fusion = canonical_fusion(base, constraints)
    extended = extend_fusion(fusion, added_edges, added_nodes)
    retracted = retract_fusion(extended, new_terms, added_edges, constraints)
    assert shape(retracted) == shape(fusion)
