"""Delta refresh: pools converge to the mutated system without respawn.

Covers the :class:`~repro.serving.snapshot.SnapshotDelta` protocol end
to end — computing a delta from a snapshot, replaying it worker-side
with :func:`~repro.serving.snapshot.apply_snapshot_delta`, broadcasting
it through :meth:`SupervisedWorkerPool.apply_delta`, and the
``noop``/``delta``/``full`` decision in :meth:`QueryServer.refresh`.
"""

import base64
import errno
import hashlib
import json
import pickle
import time

import pytest

from repro import faults
from repro.core.parser import parse_query
from repro.errors import SnapshotStaleError
from repro.faults import FaultPlan, FaultRule
from repro.serving import QueryServer, RetryPolicy, SupervisedWorkerPool
from repro.serving import supervisor
from repro.serving.snapshot import (
    PICKLE,
    SystemSnapshot,
    apply_snapshot_delta,
    boot,
)
from repro.similarity.persistence import seo_to_dict
from repro.xmldb.collection import CHANGELOG_CAPACITY
from repro.xmldb.serializer import serialize

from ..oracle import assert_matches_reference
from .conftest import make_system

NEW_DOC = (
    "<paper key='p99'><title>Paper 99</title>"
    "<author>Author 0</author><year>2004</year></paper>"
)
#: Writes whose author is a *new* ontology term within epsilon of the
#: existing ones — the incremental build takes the enhancement-patch
#: path, so the delta ships SEO patches instead of full SEOs.
NEW_TERM_DOC = (
    "<paper key='p98'><title>Paper 98</title>"
    "<author>Author 9</author><year>2003</year></paper>"
)
SECOND_TERM_DOC = (
    "<paper key='p97'><title>Paper 97</title>"
    "<author>Author 8</author><year>2002</year></paper>"
)
QUERY = 'paper(author ~ "Author 0")'

FAST = RetryPolicy(
    retry_backoff_base=0.005,
    retry_backoff_cap=0.02,
    respawn_backoff_base=0.005,
    respawn_backoff_cap=0.02,
)


def serial(system, query=QUERY):
    return [serialize(tree) for tree in system.query("papers", query).results]


def reference(system, query=QUERY):
    parsed = parse_query(query)
    return system.reference_executor().selection(
        "papers", parsed.pattern, parsed.roots
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


def batch_texts(outcomes):
    texts = []
    for outcome in outcomes:
        assert "report" in outcome, outcome.get("failure")
        texts.append(outcome["report"]["results"])
    return texts


class TestSnapshotDelta:
    def test_unchanged_system_yields_empty_delta(self):
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system)
        delta = snapshot.delta()
        assert delta is not None
        assert delta.collections == {} and delta.seos == {}
        assert delta.target_signature == snapshot.signature
        assert delta.documents_shipped == 0

    def test_mutated_but_unbuilt_system_yields_none(self):
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system)
        system.add_documents("papers", NEW_DOC)
        assert snapshot.delta() is None  # not queryable until build()

    def test_single_write_ships_one_document(self):
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system)
        receipt = system.add_documents("papers", NEW_DOC)
        assert receipt.incremental
        system.build()
        delta = snapshot.delta()
        assert delta is not None
        assert set(delta.collections) == {"papers"}
        assert delta.documents_shipped == 1
        assert delta.target_signature == system.database.generation_signature()

    def test_truncated_changelog_yields_none(self):
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system)
        collection = system.database.get_collection("papers")
        for _ in range(CHANGELOG_CAPACITY + 1):
            collection.replace_document("p0", NEW_DOC.replace("p99", "p0"))
        assert snapshot.stale()
        assert snapshot.delta() is None

    def test_dropped_collection_yields_none(self):
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system)
        system.database.drop_collection("papers")
        assert snapshot.delta() is None

    def test_pickle_worker_converges_on_replay(self):
        """A genesis-booted worker replaying a delta matches the live
        system document-for-document and verdict-for-verdict."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        keys = list(system.database.get_collection("papers").keys())
        system.add_documents("papers", NEW_DOC)
        system.replace_documents(
            "papers",
            {keys[2]: "<paper key='p2'><title>Rewritten</title>"
                      "<author>Author 0</author><year>1992</year></paper>"},
        )
        system.remove_documents("papers", (keys[3],))
        system.build()
        delta = snapshot.delta()
        assert delta is not None
        signature = apply_snapshot_delta(worker, delta)
        assert tuple(signature) == tuple(delta.target_signature)
        live_docs = [
            (key, serialize(root))
            for key, root in system.database.get_collection("papers").documents()
        ]
        worker_docs = [
            (key, serialize(root))
            for key, root in worker.database.get_collection("papers").documents()
        ]
        assert worker_docs == live_docs
        assert serial(worker) == serial(system)


def seo_dumps(system):
    return {
        relation: json.dumps(seo_to_dict(seo), sort_keys=True)
        for relation, seo in system.context.seos.items()
    }


class TestSeoPatchDelta:
    """Changed SEOs ship as enhancement patches when the builds allow it."""

    def test_patched_build_ships_patches_and_converges(self):
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        receipt = system.add_documents("papers", NEW_TERM_DOC)
        assert "Author 9" in receipt.terms_added
        system.build()
        assert any(
            r.enhancement_patched for r in system.build_report.relations
        )
        delta = snapshot.delta()
        assert delta is not None
        entry = delta.seos["isa"]
        assert "patches" in entry and len(entry["patches"]) == 1
        apply_snapshot_delta(worker, delta)
        assert seo_dumps(worker) == seo_dumps(system)
        query = 'paper(author ~ "Author 9")'
        assert serial(worker, query) == serial(system, query)

    def test_patch_replay_is_idempotent(self):
        """Replaying a delta a worker already applied is a no-op — the
        broadcast can legitimately reach an already-current worker."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        system.add_documents("papers", NEW_TERM_DOC)
        system.build()
        delta = snapshot.delta()
        assert "patches" in delta.seos["isa"]
        apply_snapshot_delta(worker, delta)
        apply_snapshot_delta(worker, delta)
        assert seo_dumps(worker) == seo_dumps(system)

    def test_multiple_builds_ship_the_patch_chain(self):
        """Two builds between refreshes ship both patches, oldest first,
        and the worker replays them in order."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        system.add_documents("papers", NEW_TERM_DOC)
        system.build()
        system.add_documents("papers", SECOND_TERM_DOC)
        system.build()
        delta = snapshot.delta()
        entry = delta.seos["isa"]
        assert "patches" in entry and len(entry["patches"]) == 2
        apply_snapshot_delta(worker, delta)
        assert seo_dumps(worker) == seo_dumps(system)

    def test_replace_and_remove_ship_patches_and_converge(self):
        """Shrinking writes travel the patch form too: the worker replays
        them, a second replay is a no-op, answers equal the oracle's."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        keys = list(system.database.get_collection("papers").keys())
        system.add_documents("papers", NEW_TERM_DOC)
        system.build()
        apply_snapshot_delta(worker, snapshot.delta())
        snapshot.advance(snapshot.delta())
        # "Author 9" leaves with its only paper; "Author 8" arrives.
        added_key = list(system.database.get_collection("papers").keys())[-1]
        for write in (
            lambda: system.replace_documents(
                "papers", {added_key: SECOND_TERM_DOC}
            ),
            lambda: system.remove_documents("papers", [added_key]),
            lambda: system.replace_documents(
                "papers", {keys[1]: NEW_TERM_DOC.replace("p98", "p1")}
            ),
        ):
            receipt = write()
            assert receipt.incremental
            assert receipt.terms_removed or receipt.terms_added
            system.build()
            assert {r.rung for r in system.build_report.relations} <= {
                "reuse",
                "patch",
            }
            delta = snapshot.delta()
            assert delta.seos and all("patches" in e for e in delta.seos.values())
            apply_snapshot_delta(worker, delta)
            once = seo_dumps(worker)
            apply_snapshot_delta(worker, delta)
            assert seo_dumps(worker) == once == seo_dumps(system)
            snapshot.advance(delta)
            for query in (QUERY, 'paper(author ~ "Author 9")'):
                assert serial(worker, query) == serial(system, query)
                assert_matches_reference(
                    system.query("papers", query), reference(system, query)
                )

    def test_full_seo_ships_when_chain_broken(self):
        """A mutation the incremental build cannot absorb (a known tag
        nested under a new parent is not a leaf change) rebuilds from
        scratch — no patch provenance, so the delta falls back to the
        full serialized SEO."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        worker = boot(snapshot.genesis())
        keys = list(system.database.get_collection("papers").keys())
        system.replace_documents(
            "papers",
            {keys[0]: "<paper key='p0'><title>Rewritten</title><meta>"
                      "<author>Author 9</author></meta><year>1990</year></paper>"},
        )
        system.build()
        reasons = {r.relation: r.rung_reason for r in system.build_report.relations}
        assert reasons["part-of"] == "added-term-exists"
        delta = snapshot.delta()
        assert delta is not None
        assert "patches" not in delta.seos["part-of"]
        apply_snapshot_delta(worker, delta)
        assert seo_dumps(worker) == seo_dumps(system)

    def test_refresh_after_every_write_never_ships_a_full_seo(self):
        """The chain cap counts links retained since the last refresh:
        advancing drops them, so the ninth patched build still ships a
        patch — while without refreshes the chain is cut at the cap."""
        from repro.similarity.seo import MAX_PATCH_CHAIN

        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system)
        for index in range(MAX_PATCH_CHAIN + 2):
            system.add_documents(
                "papers", NEW_TERM_DOC.replace("Author 9", f"Writer {index:02d}")
            )
            system.build()
            delta = snapshot.delta()
            assert all("patches" in e for e in delta.seos.values()), index
            snapshot.advance(delta)
            assert system.seo.patch is None and system.seo.patch_depth == 0

        stale = SystemSnapshot.capture(system)
        for index in range(MAX_PATCH_CHAIN + 1):
            system.add_documents(
                "papers", NEW_TERM_DOC.replace("Author 9", f"Editor {index:02d}")
            )
            system.build()
            assert system.seo.patch_depth <= MAX_PATCH_CHAIN
        assert "patches" not in stale.delta().seos["isa"]


class TestPoolDeltaApply:
    @pytest.mark.parametrize("mode", [None, PICKLE])
    def test_pool_serves_new_state_after_delta(self, mode):
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=mode)
        with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
            before = batch_texts(pool.run_batch([make_task()]))
            assert before == [serial(system)]
            system.add_documents("papers", NEW_DOC)
            system.build()
            delta = snapshot.delta()
            assert delta is not None
            stats = pool.apply_delta(delta)
            assert stats == {"applied": 2, "respawning": 0}
            assert snapshot.signature == system.database.generation_signature()
            after = batch_texts(pool.run_batch([make_task()]))
            assert after == [serial(system)]
            assert any("p99" in text for text in after[0])

    def test_pool_broadcasts_seo_patches(self):
        """The patch form travels the real pipe transport and converges
        a full fleet (wait_ready keeps spawn tails out of the picture)."""
        system = make_system(count=8)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
            assert pool.wait_ready() == 2
            system.add_documents("papers", NEW_TERM_DOC)
            system.build()
            delta = snapshot.delta()
            assert "patches" in delta.seos["isa"]
            assert pool.apply_delta(delta) == {"applied": 2, "respawning": 0}
            query = 'paper(author ~ "Author 9")'
            after = batch_texts(pool.run_batch([make_task(query)]))
            assert after == [serial(system, query)]

    def test_respawned_worker_after_delta_is_current(self):
        """A worker respawned *after* a delta was applied initializes
        from the advanced snapshot, not the stale capture state."""
        system = make_system(count=6)
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        with SupervisedWorkerPool(snapshot, 1, policy=FAST) as pool:
            pool.run_batch([make_task()])
            system.add_documents("papers", NEW_DOC)
            system.build()
            assert pool.apply_delta(snapshot.delta())["applied"] == 1
            # Kill the only worker; the respawn rebuilds the genesis from
            # the live (already-advanced) system.
            for pid in pool.worker_pids():
                if pid is not None:
                    import os
                    import signal

                    os.kill(pid, signal.SIGKILL)
            after = batch_texts(pool.run_batch([make_task()]))
            assert after == [serial(system)]


    def test_large_delta_does_not_block_on_a_booting_worker(self, monkeypatch):
        """A delta larger than a pipe buffer is sent only to a worker
        that is reading: a slot stuck in its spawn handshake times out
        and respawns from the advanced snapshot instead of stalling the
        broadcast until its handshake ends."""
        monkeypatch.setattr(supervisor, "DELTA_APPLY_TIMEOUT", 1.0)
        system = make_system(count=8)
        slow = FaultPlan(
            rules=(
                FaultRule(
                    kind=faults.SLOW_START, tasks=(1,), attempts=(0,),
                    seconds=60.0,
                ),
            )
        )
        with faults.inject(slow):
            pool = SupervisedWorkerPool(
                SystemSnapshot.capture(system), 2, policy=FAST
            )
        try:
            system.add_documents("papers", [big_paper(i) for i in range(24)])
            system.build()
            delta = pool.snapshot.delta()
            assert len(pickle.dumps(delta)) >= 128 * 1024
            started = time.monotonic()
            stats = pool.apply_delta(delta)
            assert time.monotonic() - started < 10.0
            assert stats == {"applied": 1, "respawning": 1}
            served_by_respawn = False
            deadline = time.monotonic() + 20.0
            while not served_by_respawn and time.monotonic() < deadline:
                outcomes = pool.run_batch([make_task() for _ in range(4)])
                assert batch_texts(outcomes) == [serial(system)] * 4
                respawned = pool.worker_pids()[1]
                served_by_respawn = respawned is not None and any(
                    outcome["worker_pid"] == respawned for outcome in outcomes
                )
            assert served_by_respawn
        finally:
            pool.close()


def big_paper(index):
    """An author-0 paper with an 8 KiB incompressible attribute."""
    blob = b"".join(
        hashlib.sha256(f"{index}-{block}".encode()).digest()
        for block in range(192)
    )
    return (
        f"<paper key='big{index}' blob='{base64.b64encode(blob).decode()}'>"
        f"<title>Big {index}</title><author>Author 0</author>"
        "<year>2000</year></paper>"
    )


class TestServerRefresh:
    def test_refresh_prefers_delta_then_noop(self):
        system = make_system(count=8)
        with QueryServer(
            system, workers=2, default_collection="papers", policy=FAST
        ) as server:
            assert server.refresh() == "noop"
            system.add_documents("papers", NEW_DOC)
            system.build()
            pool_before = server.pool
            assert server.refresh() == "delta"
            assert server.pool is pool_before  # no pool churn on delta
            assert server.refresh() == "noop"
            report = server.execute(QUERY)
            assert [serialize(t) for t in report.results] == serial(system)

    def test_wait_ready_reports_full_fleet(self):
        system = make_system(count=6)
        with QueryServer(
            system, workers=2, default_collection="papers", policy=FAST
        ) as server:
            assert server.wait_ready() == 2

    def test_refresh_full_when_changelog_truncated(self):
        system = make_system(count=6)
        with QueryServer(
            system, workers=2, default_collection="papers", policy=FAST
        ) as server:
            collection = system.database.get_collection("papers")
            for _ in range(CHANGELOG_CAPACITY + 1):
                collection.replace_document("p0", NEW_DOC.replace("p99", "p0"))
            assert server.refresh() == "full"

    def test_failed_full_refresh_keeps_refusing_the_stale_snapshot(
        self, monkeypatch
    ):
        """A full refresh whose new pool cannot start leaves the old
        snapshot in place: execution refuses it as stale instead of
        answering from the old pool, and a later refresh recovers."""
        system = make_system(count=6)
        with QueryServer(
            system, workers=1, default_collection="papers", policy=FAST
        ) as server:
            system.add_documents("papers", NEW_DOC)
            for _ in range(CHANGELOG_CAPACITY + 1):
                system.replace_documents("papers", {"p1": NEW_DOC.replace("p99", "p1")})
            system.build()
            assert server.snapshot.delta(system) is None

            def refuse(*_):
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(server, "_make_pool", refuse)
            with pytest.raises(OSError):
                server.refresh()
            with pytest.raises(SnapshotStaleError):
                server.execute_many([QUERY])
            monkeypatch.undo()
            assert server.refresh() == "full"
            report = server.execute(QUERY)
            assert [serialize(t) for t in report.results] == serial(system)
            assert any("p99" in text for text in serial(system))
