"""System snapshots: capture, staleness, and the pickle round trip."""

import pytest

from repro.errors import ServingError
from repro.core.system import TossSystem
from repro.serving import SystemSnapshot
from repro.serving.snapshot import FORK, PICKLE, default_mode
from repro.xmldb.serializer import serialize

from .conftest import make_system

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
        assert snapshot.payload is None
        assert snapshot.system is system

    def test_pickle_capture_builds_payload(self, system):
        snapshot = SystemSnapshot.capture(system, mode=PICKLE)
        assert snapshot.payload is not None
        assert set(snapshot.payload["collections"]) == {"papers"}
        assert snapshot.payload["measure"] == system.measure.name


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
    def test_fork_snapshot_does_not_restore(self, system):
        snapshot = SystemSnapshot.capture(system, mode=FORK)
        with pytest.raises(ServingError, match="inheritance"):
            snapshot.restore()

    def test_pickle_restore_answers_identically(self, system):
        serial = system.query("papers", QUERY)
        restored = SystemSnapshot.capture(system, mode=PICKLE).restore()
        report = restored.query("papers", QUERY)
        assert result_texts(report) == result_texts(serial)
        assert report.degraded == serial.degraded

    def test_restored_system_preserves_document_order(self, system):
        restored = SystemSnapshot.capture(system, mode=PICKLE).restore()
        original = system.database.get_collection("papers")
        copy = restored.database.get_collection("papers")
        assert list(copy.keys()) == list(original.keys())

    def test_restored_system_preserves_configuration(self, system):
        restored = SystemSnapshot.capture(system, mode=PICKLE).restore()
        assert restored.epsilon == system.epsilon
        assert restored.measure.name == system.measure.name
