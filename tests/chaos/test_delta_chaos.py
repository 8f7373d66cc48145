"""Chaos: workers killed mid-delta-apply recover to a consistent generation.

The delta broadcast (:meth:`SupervisedWorkerPool.apply_delta`) stamps
every delta task with :data:`~repro.serving.supervisor.DELTA_FAULT_SEQ`,
so a fault plan targeting that sequence number kills a worker exactly
while it is replaying the delta — the worst possible moment, half the
documents applied.  The contract under test: the pool never serves from
that half-applied state.  The dead incarnation is discarded, the
respawn initializes from the already-advanced snapshot, and the next
batch answers bit-identically to serial execution on the live system.
"""

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.serving import RetryPolicy, SupervisedWorkerPool
from repro.serving.snapshot import PICKLE, SystemSnapshot
from repro.serving.supervisor import DELTA_FAULT_SEQ
from repro.xmldb.serializer import serialize

from ..serving.conftest import make_system

pytestmark = pytest.mark.chaos

QUERY = 'paper(author ~ "Author 0")'
NEW_DOCS = [
    f"<paper key='q{index}'><title>Fresh {index}</title>"
    f"<author>Author 0</author><year>2004</year></paper>"
    for index in range(3)
]

FAST = RetryPolicy(
    retry_backoff_base=0.005,
    retry_backoff_cap=0.02,
    respawn_backoff_base=0.005,
    respawn_backoff_cap=0.02,
)

KILL_MID_APPLY = FaultPlan(
    rules=(FaultRule(kind=faults.KILL, tasks=(DELTA_FAULT_SEQ,)),)
)


def make_task(query=QUERY):
    return {
        "query": query,
        "collection": "papers",
        "sl_variables": (),
        "right_collection": None,
        "guard": None,
        "collect_metrics": False,
        "trace": False,
    }


def serial(system, query=QUERY):
    return [serialize(tree) for tree in system.query("papers", query).results]


def batch_texts(outcomes):
    texts = []
    for outcome in outcomes:
        assert "report" in outcome, outcome.get("failure")
        texts.append(outcome["report"]["results"])
    return texts


@pytest.mark.parametrize("mode", [None, PICKLE])
def test_kill_every_worker_mid_delta_apply_recovers_consistent(mode):
    """Every worker dies while replaying the delta; the respawned fleet
    still answers from exactly the target generation."""
    system = make_system(count=8)
    snapshot = SystemSnapshot.capture(system, mode=mode)
    with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
        pool.run_batch([make_task()])  # fleet warm and ready
        system.add_documents("papers", NEW_DOCS)
        system.replace_documents(
            "papers",
            {next(iter(system.database.get_collection("papers").keys())):
             "<paper key='p0'><title>Rewritten</title>"
             "<author>Author 0</author><year>1990</year></paper>"},
        )
        system.build()
        delta = snapshot.delta()
        assert delta is not None and delta.documents_shipped >= 4

        pool.fault_plan = KILL_MID_APPLY
        try:
            stats = pool.apply_delta(delta)
        finally:
            pool.fault_plan = None
        # No survivor may have acked a half-applied state as success.
        assert stats["applied"] == 0
        assert stats["respawning"] == 2
        # The snapshot advanced regardless: respawns converge on it.
        assert snapshot.signature == system.database.generation_signature()

        outcomes = pool.run_batch([make_task() for _ in range(4)])
        assert batch_texts(outcomes) == [serial(system)] * 4
        assert pool.stats()["respawns"] >= 2


def test_kill_mid_apply_then_clean_delta_converges():
    """A second, unfaulted delta after a chaotic one still applies to the
    respawned workers and serves the newest generation."""
    system = make_system(count=6)
    snapshot = SystemSnapshot.capture(system)
    with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
        pool.run_batch([make_task()])
        system.add_documents("papers", NEW_DOCS[0])
        system.build()
        pool.fault_plan = KILL_MID_APPLY
        try:
            pool.apply_delta(snapshot.delta())
        finally:
            pool.fault_plan = None
        # Workers are respawning; a further write arrives meanwhile.
        system.add_documents("papers", NEW_DOCS[1])
        system.build()
        delta = snapshot.delta()
        assert delta is not None
        pool.apply_delta(delta)
        outcomes = pool.run_batch([make_task() for _ in range(3)])
        assert batch_texts(outcomes) == [serial(system)] * 3


@pytest.mark.parametrize("mode", [None, PICKLE])
def test_kill_mid_retraction_patch_converges(mode):
    """A replace and a remove that retract ontology terms ship as SEO
    patches; workers killed while replaying them respawn onto the target
    generation and answer exactly like the reference executor."""
    from repro.core.parser import parse_query

    from ..oracle import assert_matches_reference

    unique = (
        "<paper key='u{0}'><title>Unique {0}</title>"
        "<author>Author 9{0}</author><year>2004</year></paper>"
    )
    system = make_system(count=8)
    receipt = system.add_documents("papers", [unique.format(0), unique.format(1)])
    first, second = receipt.documents_added
    system.build()
    snapshot = SystemSnapshot.capture(system, mode=mode)
    with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
        pool.run_batch([make_task()])  # fleet warm and ready
        replaced = system.replace_documents("papers", {first: unique.format(2)})
        removed = system.remove_documents("papers", [second])
        assert replaced.incremental and removed.incremental
        assert {"Author 90", "Author 91"} <= replaced.terms_removed | removed.terms_removed
        system.build()
        delta = snapshot.delta()
        assert "patches" in delta.seos["isa"]

        pool.fault_plan = KILL_MID_APPLY
        try:
            stats = pool.apply_delta(delta)
        finally:
            pool.fault_plan = None
        assert stats == {"applied": 0, "respawning": 2}
        assert snapshot.signature == system.database.generation_signature()

        for query in (QUERY, 'paper(author ~ "Author 92")', 'paper(author ~ "Author 91")'):
            outcomes = pool.run_batch([make_task(query) for _ in range(3)])
            assert batch_texts(outcomes) == [serial(system, query)] * 3
            parsed = parse_query(query)
            assert_matches_reference(
                system.query("papers", query),
                system.reference_executor().selection(
                    "papers", parsed.pattern, parsed.roots
                ),
            )
        # A clean patch on top of the recovered fleet still applies.
        system.remove_documents("papers", [first])
        system.build()
        delta = snapshot.delta()
        assert "patches" in delta.seos["isa"]
        assert pool.apply_delta(delta)["respawning"] == 0
        query = 'paper(author ~ "Author 92")'
        assert batch_texts(pool.run_batch([make_task(query)])) == [serial(system, query)]
