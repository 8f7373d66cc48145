"""Property: genesis and deltas compose to the live system.

A pickle-mode worker boots by replaying its snapshot's genesis — the
:class:`~repro.serving.snapshot.SnapshotDelta` from an empty system —
with the same :func:`~repro.serving.snapshot.apply_snapshot_delta` a
live worker runs on a refresh.  So after any add / replace / remove /
build sequence taking S0 to Sk, a worker booted from ``genesis(S0)``
that then applies the refresh deltas up to Sk must be indistinguishable
from one booted from ``genesis(Sk)`` and from the live Sk: same
generation signature, same per-collection scan order and texts, same
serialized SEO per relation, same epsilon, measure and degraded flag,
and the reference executor's answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.core.system import TossSystem
from repro.serving.snapshot import PICKLE, SystemSnapshot, apply_snapshot_delta, boot
from repro.similarity.persistence import dump_seo
from repro.xmldb.serializer import serialize

from ..oracle import assert_matches_reference
from .test_online_mutations import documents

QUERIES = (
    'inproceedings(author ~ "J. Smith")',
    'inproceedings(author ~ "A. Stone3")',
    'inproceedings(title = "Fusion")',
)

#: Writes to the first source, and (rarely: it moves the build off the
#: patch rung) the second source's arrival.
source_writes = (
    st.tuples(st.just("add"), documents),
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=99), documents),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
)
writes = st.one_of(*source_writes, *source_writes, st.tuples(st.just("instance"), documents))

#: One round: some writes, then a build — mostly at the same epsilon (the
#: patch rung, so consecutive rounds chain SEO patches), sometimes at a
#: new one (a full rung, so the delta ships the whole SEO).
rounds = st.tuples(
    st.lists(writes, min_size=1, max_size=3),
    st.sampled_from([None] * 5 + [2.0]),
)


def state(system):
    """Everything a booted worker must agree on with the live system."""
    database = system.database
    return {
        "signature": database.generation_signature(),
        "documents": {
            collection.name: [
                (key, serialize(root)) for key, root in collection.documents()
            ]
            for collection in database.collections()
        },
        "seos": (
            {relation: dump_seo(seo) for relation, seo in system.context.seos.items()}
            if system.context is not None
            else None
        ),
        "epsilon": system.epsilon,
        "measure": system.measure.name,
        "degraded": system.degraded,
    }


def assert_answers_match(worker, live):
    for query in QUERIES:
        parsed = parse_query(query)
        for name in live.instances:
            # A ~ selection's oracle XPath does not narrow the candidates,
            # so it asks the SEO about documents the index prunes before
            # production fetches them: results only for those.
            assert_matches_reference(
                worker.select(name, parsed.pattern, parsed.roots),
                live.reference_executor().selection(
                    name, parsed.pattern, parsed.roots
                ),
                accesses="~" not in query,
            )


def apply(live, write):
    kind = write[0]
    keys = list(live.database.get_collection("dblp").keys())
    if kind == "add":
        live.add_documents("dblp", write[1])
    elif kind == "replace":
        live.replace_documents("dblp", {keys[write[1] % len(keys)]: write[2]})
    elif kind == "remove":
        if len(keys) > 1:  # keep the instance non-empty
            live.remove_documents("dblp", [keys[write[1] % len(keys)]])
    elif "sigmod" not in live.instances:
        live.add_instance("sigmod", [write[1]])


def replay(initial, plan, follow):
    """Run ``plan`` on a fresh live system; return it with a worker booted
    from the starting genesis.  ``follow`` refreshes the worker after
    every build (delta, then advance — what the pool does); otherwise
    one delta spans S0 -> Sk, carrying every build's SEO patch in order.
    """
    live = TossSystem(epsilon=1.0)
    live.add_instance("dblp", initial)
    live.build()
    snapshot = SystemSnapshot.capture(live, mode=PICKLE)
    worker = boot(snapshot.genesis())
    assert state(worker) == state(live)
    for round_writes, epsilon in plan:
        for write in round_writes:
            apply(live, write)
        live.build(epsilon=epsilon)
        if follow:
            delta = snapshot.delta()
            apply_snapshot_delta(worker, delta)
            snapshot.advance(delta)
    if not follow:
        apply_snapshot_delta(worker, snapshot.delta())
    return worker, live


@given(
    initial=st.lists(documents, min_size=1, max_size=3),
    plan=st.lists(rounds, min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_genesis_then_delta_equals_genesis_of_target(initial, plan):
    for follow in (False, True):
        worker, live = replay(initial, plan, follow)
        target = boot(SystemSnapshot.capture(live, mode=PICKLE).genesis())
        assert state(worker) == state(target) == state(live)
        assert_answers_match(worker, live)
        assert_answers_match(target, live)
