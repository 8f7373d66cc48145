"""Property-based tests: incremental maintenance equals building from scratch.

The tentpole invariant of online mutations: after ANY prefix of a random
add/replace/remove sequence, a system maintained incrementally (pending
deltas consumed by :meth:`TossSystem.build`) is indistinguishable from a
system built from scratch over the same final documents in the same scan
order — same serialized SEO (graph edges and cliques included), same
query verdicts, the same answer from every memo a write carried over
(SEO expansions, index probes), and a monotonically advancing generation.
"""

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.core.persistence import load_system, save_system
from repro.core.system import TossSystem
from repro.ontology import Ontology
from repro.similarity.persistence import dump_seo, seo_to_dict
from repro.xmldb.serializer import serialize
from tests.oracle import assert_matches_reference

AUTHORS = ["J. Smith", "J. Smyth", "A. Stone", "A. Stane", "B. Swan"]
TITLES = ["Indexing", "Querying", "Fusion"]

QUERY = 'inproceedings(author ~ "J. Smith")'

#: Outside every document, each within epsilon (1.0) of names later
#: writes may bring ("J. Smith5", "A. Stone", "B. Swan", "J. Smyth0").
UNKNOWN = ["J. Smith55", "A. Stonx", "B. Swa", "J. Smyth0x"]
CATEGORIES = ["author", "person", "entity", "inproceedings", "title"]
STRUCTURES = [
    (("tag", frozenset({"inproceedings"})), ("tag", frozenset({"author"})),
     ("pc", frozenset({("inproceedings", "author")}))),
    (("tag", frozenset({"article"})), ("tag", frozenset({"author"}))),
    (("tag", frozenset({"author"})), ("tag", frozenset({"article"})),
     ("tag", frozenset({"title"}))),
    (),
]


def _seo(system, relation=Ontology.ISA):
    return system.context.seos[relation]


def _index(system):
    return system.database.get_collection("dblp").search_index()


#: Every memo a write carries instead of dropping, as (label, probe): the
#: carried answer must be what a from-scratch system answers.
SEO_CARRIED = (
    [(f"~ {term}", lambda s, t=term: _seo(s).expand_similar(t)) for term in AUTHORS + UNKNOWN]
    + [(f"below {term}", lambda s, t=term: _seo(s).expand_below(t)) for term in CATEGORIES]
    + [(f"above {term}", lambda s, t=term: _seo(s).expand_above(t)) for term in AUTHORS + ["author"]]
    + [
        ("part-of below dblp", lambda s: _seo(s, Ontology.PART_OF).expand_below("dblp")),
        ("part-of above author", lambda s: _seo(s, Ontology.PART_OF).expand_above("author")),
    ]
)
#: The same for the search index's probes, which answer document keys.
INDEX_CARRIED = (
    [
        (f"term {value}", lambda s, v=value: _index(s).docs_with_term(v, frozenset({"author"})))
        for value in AUTHORS + ["J. Smith5"]
    ]
    + [
        (f"term {value}", lambda s, v=value: _index(s).docs_with_term(v, frozenset({"title"})))
        for value in TITLES
    ]
    + [
        ("term any", lambda s: _index(s).docs_with_term("J. Smith")),
        ("tag author", lambda s: _index(s).docs_with_any_tag(["author"])),
        ("tag article", lambda s: _index(s).docs_with_any_tag(["article"])),
        ("tag title|author", lambda s: _index(s).docs_with_any_tag(["title", "author"])),
        ("pc", lambda s: _index(s).docs_with_pc_pair([("inproceedings", "author")])),
        ("ad", lambda s: _index(s).docs_with_ad_pair([("dblp", "title")])),
        (
            "terms author",
            lambda s: sorted(_index(s).terms_with_tags(frozenset({"author"})).items()),
        ),
    ]
    + [
        (f"structure {probes}", lambda s, p=probes: _index(s).structure(p)[:2])
        for probes in STRUCTURES
    ]
)


def in_scan_order(system, answer):
    """An index probe's answer with each document key replaced by the
    document's position in the scan order (the systems key differently)."""
    position = {
        key: index
        for index, (key, _root) in enumerate(system.database.get_collection("dblp").documents())
    }

    def translate(value):
        if isinstance(value, str):
            return position.get(value, value)
        if isinstance(value, (frozenset, set)):
            return frozenset(translate(item) for item in value)
        if isinstance(value, (tuple, list)):
            return type(value)(translate(item) for item in value)
        return value

    return translate(answer)


def make_doc(author: str, title: str, serial: int) -> str:
    return (
        f'<dblp><inproceedings key="x{serial}">'
        f"<author>{author}</author><title>{title}</title>"
        f"</inproceedings></dblp>"
    )


#: Authors from a five-name pool: most removals only decrement a
#: reference count (some other document still carries the name).
shared_author_documents = st.builds(
    make_doc,
    author=st.sampled_from(AUTHORS),
    title=st.sampled_from(TITLES),
    serial=st.integers(min_value=0, max_value=9),
)

#: Fifty authors, each within edit distance 1 of several others: nearly
#: every document's author is its own, so removing or replacing it really
#: retracts an ontology term — and the cliques it sat in.
unique_author_documents = st.builds(
    lambda author, digit, title, serial: make_doc(f"{author}{digit}", title, serial),
    author=st.sampled_from(AUTHORS),
    digit=st.integers(min_value=0, max_value=9),
    title=st.sampled_from(TITLES),
    serial=st.integers(min_value=0, max_value=9),
)

documents = st.one_of(shared_author_documents, unique_author_documents)

#: Mutual nesting: the part-of pass accepts (a, b) and drops (b, a) as
#: cycle-closing.  While a document like this one is live, a removal
#: cannot be retracted from the extraction state.
MUTUAL_NESTING = "<dblp><a><b><a><c/></a></b></a></dblp>"

#: One mutation: ("add", text) | ("replace", position_seed, text)
#: | ("remove", position_seed).  Position seeds index into the live key
#: list modulo its length at application time.
operations = st.one_of(
    st.tuples(st.just("add"), documents),
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=99), documents),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
)


def seo_bytes(system, relation):
    return json.dumps(seo_to_dict(system.context.seos[relation]), sort_keys=True)


def verdicts(system):
    parsed = parse_query(QUERY)
    report = system.select("dblp", parsed.pattern, parsed.roots)
    return sorted(serialize(tree) for tree in report.results)


@given(
    initial=st.lists(documents, min_size=1, max_size=3),
    ops=st.lists(operations, min_size=1, max_size=5),
)
@settings(max_examples=25, deadline=None)
def test_incremental_equals_from_scratch_after_every_prefix(initial, ops):
    live = TossSystem(epsilon=1.0)
    live.add_instance("dblp", initial)
    live.build()

    # Shadow of the collection's scan order: (key, text) pairs mirroring
    # add-appends, replace-moves-to-end and remove semantics.
    shadow = list(zip(sorted(live.database.get_collection("dblp").keys()), initial))
    shadow = [
        (key, text)
        for key, _ in live.database.get_collection("dblp").documents()
        for skey, text in shadow
        if skey == key
    ]
    generation = live.database.get_collection("dblp").generation

    for op in ops:
        for _label, probe in SEO_CARRIED + INDEX_CARRIED:
            probe(live)  # warm the memos the write must carry
        kind = op[0]
        if kind == "add":
            receipt = live.add_documents("dblp", op[1])
            (new_key,) = receipt.documents_added
            shadow.append((new_key, op[1]))
        elif kind == "replace":
            key = shadow[op[1] % len(shadow)][0]
            receipt = live.replace_documents("dblp", {key: op[2]})
            shadow = [pair for pair in shadow if pair[0] != key]
            shadow.append((key, op[2]))
            assert receipt.documents_removed == (key,)
        else:
            if len(shadow) == 1:
                continue  # keep the instance non-empty
            key = shadow[op[1] % len(shadow)][0]
            receipt = live.remove_documents("dblp", (key,))
            shadow = [pair for pair in shadow if pair[0] != key]
            assert receipt.documents_removed == (key,)

        # Generations only move forward, and by what the receipt claims.
        after = live.database.get_collection("dblp").generation
        assert receipt.generation_after == after
        assert receipt.generation_after > receipt.generation_before
        assert after > generation
        generation = after

        live.build()

        fresh = TossSystem(epsilon=1.0)
        fresh.add_instance("dblp", [text for _key, text in shadow])
        fresh.build()

        # Same scan order...
        assert [
            serialize(root)
            for _key, root in live.database.get_collection("dblp").documents()
        ] == [
            serialize(root)
            for _key, root in fresh.database.get_collection("dblp").documents()
        ]
        # ...same serialized SEO for every relation (edges AND cliques)...
        for relation in (Ontology.ISA, Ontology.PART_OF):
            assert seo_bytes(live, relation) == seo_bytes(fresh, relation)
        # ...same carried memo answers...
        for label, probe in SEO_CARRIED:
            assert probe(live) == probe(fresh), label
        for label, probe in INDEX_CARRIED:
            assert in_scan_order(live, probe(live)) == in_scan_order(fresh, probe(fresh)), label
        # ...and same query verdicts.
        assert verdicts(live) == verdicts(fresh)


@given(
    ops=st.lists(operations, min_size=1, max_size=4),
    dropped_edge_live=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_chain_depth_tracks_delta_builds(ops, dropped_edge_live):
    """Chain depth only grows on delta builds and resets on full builds.
    A shrinking write (replace/remove) that retracts cleanly extends the
    chain like an add; one the extraction state refuses — a surviving
    document lists a cycle-dropped edge — re-extracts and resets it."""
    live = TossSystem(epsilon=1.0)
    initial = [make_doc(AUTHORS[0], TITLES[0], 0), make_doc(AUTHORS[1], TITLES[1], 1)]
    if dropped_edge_live:
        initial.insert(0, MUTUAL_NESTING)  # key dblp-0: never a target below
    live.add_instance("dblp", initial)
    live.build()
    depth = live.seo_chain_depths[Ontology.ISA]
    assert depth == 0
    for op in ops:
        keys = [
            key
            for key, _ in live.database.get_collection("dblp").documents()
            if not (dropped_edge_live and key == "dblp-0")
        ]
        if op[0] == "add":
            receipt = live.add_documents("dblp", op[1])
            shrinking = False
        elif op[0] == "replace":
            receipt = live.replace_documents("dblp", {keys[op[1] % len(keys)]: op[2]})
            shrinking = True
        else:
            if len(keys) == 1:
                continue  # keep a document every other one shares its tags with
            receipt = live.remove_documents("dblp", [keys[op[1] % len(keys)]])
            shrinking = True
        refused = shrinking and dropped_edge_live
        assert receipt.incremental == (not refused)
        assert receipt.fallback_reason == ("dropped-edge-live" if refused else None)
        live.build()
        new_depth = live.seo_chain_depths[Ontology.ISA]
        (isa,) = [r for r in live.build_report.relations if r.relation == Ontology.ISA]
        if refused:
            assert new_depth == 0
            assert isa.rung in ("delta", "full")
            assert isa.rung_reason == "dropped-edge-live"
        else:
            # A write whose delta nets out to nothing is a no-op reuse.
            assert new_depth == (depth if isa.rung == "reuse" else depth + 1)
            assert isa.rung in ("reuse", "patch"), isa.rung_reason
        depth = new_depth


@given(
    initial=st.lists(documents, min_size=1, max_size=3),
    ops=st.lists(operations, min_size=1, max_size=5),
    load_at=st.integers(min_value=0, max_value=5),
    build_on_load=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_a_save_and_load_between_writes_changes_no_build(
    initial, ops, load_at, build_on_load
):
    """The same writes with and without a save/load at a drawn point build
    byte-identical SEOs, and the first build after the load starts from
    the restored SEOs (patch / reuse, never first-build)."""
    twin = TossSystem(epsilon=1.0)
    live = TossSystem(epsilon=1.0)
    for system in (twin, live):
        system.add_instance("dblp", initial)
        system.build()
    keys = sorted(twin.database.get_collection("dblp").keys())
    #: One entry per live document: its key in the twin and in ``live``
    #: (a loaded store may issue a different key to the next add).
    shadow = [(key, key) for key in keys]
    load_at = min(load_at, len(ops))
    first_after_load = False

    def check_build():
        twin.build()
        live.build()
        for relation in (Ontology.ISA, Ontology.PART_OF):
            assert dump_seo(live.context.seos[relation]) == dump_seo(
                twin.context.seos[relation]
            )
        parsed = parse_query(QUERY)
        assert_matches_reference(
            live.select("dblp", parsed.pattern, parsed.roots),
            live.reference_executor().selection("dblp", parsed.pattern, parsed.roots),
            accesses=False,
        )
        return {entry.relation: entry for entry in live.build_report.relations}

    with tempfile.TemporaryDirectory() as root:
        for index in range(len(ops) + 1):
            if index == load_at:
                save_system(live, root)
                live = load_system(root)
                assert live._relation_state == {}
                first_after_load = True
                if build_on_load:
                    entries = check_build()
                    assert {e.rung for e in entries.values()} == {"reuse"}
                    assert {e.rung_reason for e in entries.values()} == {"restored"}
                    first_after_load = False
            if index == len(ops):
                break
            op = ops[index]
            if op[0] == "add":
                (twin_key,) = twin.add_documents("dblp", op[1]).documents_added
                (live_key,) = live.add_documents("dblp", op[1]).documents_added
                shadow.append((twin_key, live_key))
            elif op[0] == "replace":
                twin_key, live_key = shadow.pop(op[1] % len(shadow))
                twin.replace_documents("dblp", {twin_key: op[2]})
                live.replace_documents("dblp", {live_key: op[2]})
                shadow.append((twin_key, live_key))
            else:
                if len(shadow) == 1:
                    continue  # keep the instance non-empty
                twin_key, live_key = shadow.pop(op[1] % len(shadow))
                twin.remove_documents("dblp", (twin_key,))
                live.remove_documents("dblp", (live_key,))
            entries = check_build()
            if first_after_load:
                for entry in entries.values():
                    assert entry.rung in ("patch", "reuse"), entry.rung_reason
                    assert entry.rung_reason == "restored"
                first_after_load = False
            twin_rungs = {e.relation: e.rung for e in twin.build_report.relations}
            assert {r: e.rung for r, e in entries.items()} == twin_rungs
