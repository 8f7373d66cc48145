"""Unit tests for the Ontology Maker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaRefused
from repro.ontology.hierarchy import Ontology
from repro.ontology.lexicon import Lexicon
from repro.ontology.maker import CombinedExtraction, OntologyMaker
from repro.xmldb import parse_document

DBLP_DOC = """
<dblp>
  <inproceedings>
    <author>Jeffrey D. Ullman</author>
    <title>A Survey</title>
    <year>1999</year>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
</dblp>
"""


class TestPartOfExtraction:
    def test_nesting_becomes_part_of(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        part_of = ontology.part_of
        assert part_of.leq("author", "inproceedings")
        assert part_of.leq("inproceedings", "dblp")
        assert part_of.leq("author", "dblp")

    def test_self_nesting_does_not_cycle(self):
        doc = parse_document("<cite><cite><ref>x</ref></cite></cite>")
        ontology = OntologyMaker().make(doc)
        assert "cite" in ontology.part_of  # present, no crash

    def test_mutual_nesting_keeps_first_direction(self):
        doc = parse_document("<a><b><a><c/></a></b></a>")
        ontology = OntologyMaker().make(doc)
        part_of = ontology.part_of
        # one of the two directions survives, never both
        assert part_of.comparable("a", "b")

    def test_lexicon_holonyms_added_for_tags(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        # title part-of publication comes from the lexicon.
        assert ontology.part_of.leq("title", "publication")


class TestIsaExtraction:
    def test_tags_get_lexicon_hypernyms(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        isa = ontology.isa
        assert isa.leq("author", "person")
        assert isa.leq("inproceedings", "publication")

    def test_chains_are_transitive(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        assert ontology.isa.leq("author", "entity")

    def test_content_values_below_their_tag(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        assert ontology.isa.leq("Jeffrey D. Ullman", "author")
        assert ontology.isa.leq("SIGMOD Conference", "booktitle")

    def test_titles_not_lifted_by_default(self):
        ontology = OntologyMaker().make(parse_document(DBLP_DOC))
        assert "A Survey" not in ontology.isa

    def test_content_tags_configurable(self):
        maker = OntologyMaker(content_tags={"title"})
        ontology = maker.make(parse_document(DBLP_DOC))
        assert "A Survey" in ontology.isa
        assert "Jeffrey D. Ullman" not in ontology.isa

    def test_max_content_terms_caps_lifting(self):
        doc = parse_document(
            "<db>" + "".join(
                f"<r><author>Person {i}</author></r>" for i in range(10)
            ) + "</db>"
        )
        maker = OntologyMaker(max_content_terms=3)
        ontology = maker.make(doc)
        lifted = [t for t in ontology.isa.terms if str(t).startswith("Person")]
        assert len(lifted) == 3

    def test_all_tags_present_even_isolated(self):
        ontology = OntologyMaker().make(parse_document("<weird><thing/></weird>"))
        assert "weird" in ontology.isa
        assert "thing" in ontology.isa


class TestRules:
    def test_dba_rules_layered(self):
        maker = OntologyMaker(
            rules=[("isa", "SIGMOD Conference", "database conference")]
        )
        ontology = maker.make(parse_document(DBLP_DOC))
        assert ontology.isa.leq("SIGMOD Conference", "database conference")

    def test_part_of_rules(self):
        maker = OntologyMaker(rules=[("part-of", "year", "calendar")])
        ontology = maker.make(parse_document(DBLP_DOC))
        assert ontology.part_of.leq("year", "calendar")

    def test_unknown_relation_rejected(self):
        maker = OntologyMaker(rules=[("color-of", "a", "b")])
        with pytest.raises(ValueError):
            maker.make(parse_document(DBLP_DOC))


class TestCombined:
    def test_make_combined_unions_documents(self):
        docs = [
            parse_document("<db><r><author>A One</author></r></db>"),
            parse_document("<db><r><author>B Two</author></r></db>"),
        ]
        ontology = OntologyMaker().make_combined(docs)
        assert ontology.isa.leq("A One", "author")
        assert ontology.isa.leq("B Two", "author")

    def test_make_many_returns_one_per_document(self):
        docs = [parse_document("<a/>"), parse_document("<b/>")]
        ontologies = OntologyMaker().make_many(docs)
        assert len(ontologies) == 2
        assert all(isinstance(o, Ontology) for o in ontologies)


# ---------------------------------------------------------------------------
# CombinedExtraction: extend / retract == make_combined over the live documents
# ---------------------------------------------------------------------------

VALUES = ["A One", "A Ome", "B Two", "SIGMOD Conference", "VLDB"]


def _element(tag, children, value):
    if tag in ("author", "booktitle"):
        return f"<{tag}>{value}</{tag}>"
    return f"<{tag}>{''.join(children)}</{tag}>"


#: Small trees over a small vocabulary: tags nest in any order (so mutual
#: nestings, whose second direction the greedy pass drops, do occur) and
#: the content tags lift values that several documents share.
elements = st.recursive(
    st.builds(
        _element,
        st.sampled_from(["a", "author", "booktitle"]),
        st.just([]),
        st.sampled_from(VALUES),
    ),
    lambda inner: st.builds(
        _element,
        st.sampled_from(["a", "b", "c"]),
        st.lists(inner, min_size=1, max_size=3),
        st.just(""),
    ),
    max_leaves=6,
)
trees = elements.map(lambda body: parse_document(f"<db>{body}</db>"))


def ref_counts(state):
    return (state._accepted, state._dropped, state._degree, state._tags)


def fresh_state(maker, roots):
    state = CombinedExtraction(maker)
    state.extend(roots)
    return state


class TestCombinedExtraction:
    @given(
        kept=st.lists(trees, min_size=1, max_size=4),
        withdrawn=st.lists(trees, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_extend_then_retract_equals_make_combined_of_the_rest(
        self, kept, withdrawn
    ):
        maker = OntologyMaker()
        state = fresh_state(maker, kept + withdrawn)
        assert state.ontology == maker.make_combined(kept + withdrawn)
        try:
            state.retract(withdrawn)
        except DeltaRefused as refused:
            # Refusing leaves the state untouched (and still exact).
            assert refused.reason == "dropped-edge-live"
            assert ref_counts(state) == ref_counts(
                fresh_state(maker, kept + withdrawn)
            )
            return
        assert state.ontology == maker.make_combined(kept)
        assert ref_counts(state) == ref_counts(fresh_state(maker, kept))
        assert not any(state._dropped.values())

    @given(
        ops=st.lists(
            st.one_of(trees, st.integers(min_value=0, max_value=20)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_tracks_the_live_documents(self, ops):
        """A tree extends the state, an integer retracts the live document
        at that position; the deltas reported always add up."""
        maker = OntologyMaker()
        state = CombinedExtraction(maker)
        live = []
        terms = {relation: set() for relation in ("isa", "part-of")}
        for op in ops:
            if isinstance(op, int):
                if not live:
                    continue
                root = live[op % len(live)]
                try:
                    deltas = state.retract([root])
                except DeltaRefused:
                    continue
                live.remove(root)
            else:
                deltas = state.extend([op])
                live.append(op)
            for relation, delta in deltas.items():
                assert not delta.added_terms & terms[relation]
                assert delta.removed_terms <= terms[relation]
                terms[relation] |= delta.added_terms
                terms[relation] -= delta.removed_terms
                assert terms[relation] == set(state.ontology[relation].terms)
            assert state.ontology == maker.make_combined(live)
            assert ref_counts(state) == ref_counts(fresh_state(maker, live))

    def test_cycle_dropped_edge_makes_retract_refuse(self):
        maker = OntologyMaker()
        nesting = parse_document("<db><a><b><a><c/></a></b></a></db>")
        plain = parse_document("<db><r><author>A One</author></r></db>")
        other = parse_document("<db><r><author>B Two</author></r></db>")
        state = fresh_state(maker, [nesting, plain, other])
        assert state._dropped["part-of"] == {("b", "a"): 1}
        before = ref_counts(fresh_state(maker, [nesting, plain, other]))
        with pytest.raises(DeltaRefused) as refusal:
            state.retract([plain])  # a survivor still lists the dropped edge
        assert refusal.value.reason == "dropped-edge-live"
        assert ref_counts(state) == before
        # Withdrawing the listing document itself takes the edge with it.
        deltas = state.retract([nesting])
        assert ("a", "b") in deltas["part-of"].removed_edges
        assert {"a", "b", "c"} <= deltas["part-of"].removed_terms
        assert state.ontology == maker.make_combined([plain, other])
        deltas = state.retract([other])
        assert deltas["isa"].removed_edges == [("B Two", "author")]
        assert deltas["isa"].removed_terms == {"B Two"}

    def test_deltas_net_out_between_builds(self):
        maker = OntologyMaker()
        base = parse_document("<db><r><author>A One</author></r></db>")
        extra = parse_document("<db><r><author>B Two</author></r><x/></db>")
        state = fresh_state(maker, [base])
        pending = state.extend([extra])
        for relation, delta in state.retract([extra]).items():
            pending[relation].absorb(delta)
        assert all(delta.empty for delta in pending.values())
        assert not any(
            delta.added_terms or delta.removed_terms for delta in pending.values()
        )
