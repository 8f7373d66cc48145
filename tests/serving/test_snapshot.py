"""System snapshots: capture, staleness, and the genesis boot."""

import pytest

from repro.core.conditions import EXACT_FALLBACK_CONTEXT
from repro.errors import ServingError
from repro.core.system import TossSystem
from repro.guard import ResourceGuard
from repro.serving import SystemSnapshot
from repro.serving.snapshot import FORK, PICKLE, boot, default_mode
from repro.similarity.persistence import dump_seo
from repro.xmldb.serializer import serialize

from .conftest import make_documents, make_system

QUERY = 'paper(author ~ "Author 1")'


def result_texts(report):
    return [serialize(tree) for tree in report.results]


class TestCapture:
    def test_unbuilt_system_is_rejected(self):
        system = TossSystem()
        system.add_instance("papers", ["<paper><title>X</title></paper>"])
        with pytest.raises(ServingError, match="build"):
            SystemSnapshot.capture(system)

    def test_unknown_mode_is_rejected(self, system):
        with pytest.raises(ServingError, match="unknown snapshot mode"):
            SystemSnapshot.capture(system, mode="teleport")

    def test_default_mode_is_fork_on_posix(self, system):
        assert default_mode() in (FORK, PICKLE)
        snapshot = SystemSnapshot.capture(system)
        assert snapshot.mode == default_mode()

    def test_fork_capture_has_no_payload(self, system):
        snapshot = SystemSnapshot.capture(system, mode=FORK)
        assert snapshot.genesis() is None
        assert snapshot.system is system

    def test_pickle_capture_builds_payload(self, system):
        genesis = SystemSnapshot.capture(system, mode=PICKLE).genesis()
        assert genesis is not None
        assert genesis.base_signature == ()
        assert genesis.target_signature == system.database.generation_signature()
        assert set(genesis.collections) == {"papers"}
        assert set(genesis.seos) == set(system.context.seos)
        assert genesis.measure == system.measure.name


class TestStaleness:
    def test_fresh_by_default(self, system):
        assert not SystemSnapshot.capture(system, mode=FORK).stale()

    def test_add_document_stales(self):
        system = make_system(count=4)
        snapshot = SystemSnapshot.capture(system, mode=FORK)
        system.database.get_collection("papers").add_document(
            "extra", "<paper><title>New</title></paper>"
        )
        assert snapshot.stale()

    def test_remove_document_stales(self):
        system = make_system(count=4)
        snapshot = SystemSnapshot.capture(system, mode=FORK)
        system.database.get_collection("papers").remove_document("papers-0")
        assert snapshot.stale()

    def test_generation_signature_is_per_collection(self):
        system = make_system(count=3)
        before = system.database.generation_signature()
        system.database.get_collection("papers").add_document(
            "extra", "<paper><title>New</title></paper>"
        )
        after = system.database.generation_signature()
        assert dict(before)["papers"] + 1 == dict(after)["papers"]


class TestRestore:
    def test_fork_snapshot_does_not_restore(self):
        # Respawned fork workers inherit the live parent, so even an
        # advanced fork snapshot builds no genesis.
        system = make_system(count=4)
        snapshot = SystemSnapshot.capture(system, mode=FORK)
        system.add_documents("papers", "<paper><title>New</title></paper>")
        system.build()
        snapshot.advance(snapshot.delta())
        assert snapshot.genesis() is None

    def test_pickle_restore_answers_identically(self, system):
        serial = system.query("papers", QUERY)
        restored = boot(SystemSnapshot.capture(system, mode=PICKLE).genesis())
        report = restored.query("papers", QUERY)
        assert result_texts(report) == result_texts(serial)
        assert report.degraded == serial.degraded

    def test_restored_system_preserves_document_order(self, system):
        restored = boot(SystemSnapshot.capture(system, mode=PICKLE).genesis())
        original = system.database.get_collection("papers")
        copy = restored.database.get_collection("papers")
        assert list(copy.keys()) == list(original.keys())

    def test_restored_system_preserves_configuration(self, system):
        restored = boot(SystemSnapshot.capture(system, mode=PICKLE).genesis())
        assert restored.epsilon == system.epsilon
        assert restored.measure.name == system.measure.name

    def test_degraded_system_boots_to_exact_fallback(self):
        system = TossSystem(epsilon=2.0)
        system.add_instance("papers", make_documents(6))
        system.build(guard=ResourceGuard(deadline_seconds=0.0), on_failure="degrade")
        assert system.degraded and system.context is None
        genesis = SystemSnapshot.capture(system, mode=PICKLE).genesis()
        assert genesis.degraded and genesis.seos == {}
        restored = boot(genesis)
        assert restored.degraded and restored.context is None
        assert restored.executor.context is EXACT_FALLBACK_CONTEXT
        assert (
            restored.database.generation_signature()
            == system.database.generation_signature()
        )
        serial = system.query("papers", QUERY)
        report = restored.query("papers", QUERY)
        assert report.degraded and serial.degraded
        assert result_texts(report) == result_texts(serial)

    def test_two_collection_system_boots_whole(self):
        system = make_system(count=5)
        system.add_instance("more", make_documents(4)[::-1])
        system.remove_documents("papers", ["papers-1"])
        system.build()
        restored = boot(SystemSnapshot.capture(system, mode=PICKLE).genesis())
        assert (
            restored.database.generation_signature()
            == system.database.generation_signature()
        )
        for name in ("papers", "more"):
            assert list(restored.database.get_collection(name).keys()) == list(
                system.database.get_collection(name).keys()
            )
            serial = system.query(name, QUERY)
            assert result_texts(restored.query(name, QUERY)) == result_texts(serial)
        assert {
            relation: dump_seo(seo) for relation, seo in restored.context.seos.items()
        } == {relation: dump_seo(seo) for relation, seo in system.context.seos.items()}
