"""Unit tests for database directory persistence."""

import hashlib
import json
import os

import pytest

from repro.errors import StorageCorruptionError, XmlDbError
from repro.ioutils import sha256_text
from repro.obs.metrics import REGISTRY
from repro.xmldb.database import Database
from repro.xmldb.serializer import serialize
from repro.xmldb.storage import (
    load_database,
    recover_database,
    save_database,
    verify_database,
)

DOC_A = "<dblp><inproceedings key='p1'><title>One</title></inproceedings></dblp>"
DOC_B = "<page><article key='p1'><title>One.</title></article></page>"


@pytest.fixture
def database():
    db = Database()
    db.create_collection("dblp").add_document("doc-a", DOC_A)
    sigmod = db.create_collection("sigmod")
    sigmod.add_document("doc-b", DOC_B)
    sigmod.add_document("weird key/with:chars", DOC_B)
    return db


def _manifest(root):
    return json.loads((root / "manifest.json").read_text())


def _segment(root, collection):
    """Path of the segment file the manifest names for ``collection``."""
    return root / _manifest(root)["collections"][collection]["segment"]


def _records(root, collection):
    return [
        json.loads(line)
        for line in _segment(root, collection).read_bytes().split(b"\n")
        if line
    ]


def _rewrite_record(root, collection, index, **changes):
    """Edit one record in place, keeping the manifest's segment digest in
    step — so only the record's own checksum can notice."""
    records = _records(root, collection)
    records[index].update(changes)
    data = "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"
        for r in records
    ).encode("utf-8")
    _segment(root, collection).write_bytes(data)
    manifest = _manifest(root)
    manifest["collections"][collection].update(
        sha256=hashlib.sha256(data).hexdigest(), bytes=len(data)
    )
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_structure_survives(self, database, tmp_path):
        save_database(database, str(tmp_path / "store"))
        loaded = load_database(str(tmp_path / "store"))
        assert sorted(loaded.collection_names()) == ["dblp", "sigmod"]
        assert len(loaded.get_collection("sigmod")) == 2
        original = database.get_collection("dblp").get_document("doc-a")
        reloaded = loaded.get_collection("dblp").get_document("doc-a")
        assert original.structurally_equal(reloaded)

    def test_queries_survive(self, database, tmp_path):
        save_database(database, str(tmp_path / "store"))
        loaded = load_database(str(tmp_path / "store"))
        titles = [n.text for n in loaded.xpath("dblp", "//title")]
        assert titles == ["One"]

    def test_segments_are_greppable_json_lines(self, database, tmp_path):
        root = tmp_path / "store"
        save_database(database, str(root))
        segments = sorted(p.name for p in root.glob("*.seg"))
        assert [name.split(".")[0] for name in segments] == ["dblp", "sigmod"]
        lines = _segment(root, "sigmod").read_text().splitlines()
        assert len(lines) == 2
        assert all("<title>One.</title>" in line for line in lines)
        assert [set(json.loads(line)) for line in lines] == [{"key", "sha256", "xml"}] * 2

    def test_load_order_is_key_order_not_insertion_order(self, tmp_path):
        # Pinned on purpose: the e2e goldens were recorded against stores
        # that come back sorted (docs/PERSISTENCE.md "Load order").
        db = Database()
        for name in ("zeta", "alpha"):
            coll = db.create_collection(name)
            for i in (2, 10, 1, 0):
                coll.add_document(f"{name}-{i}", f"<x>{i}</x>")
        assert list(db.get_collection("zeta").keys())[0] == "zeta-2"
        save_database(db, str(tmp_path / "s"))
        loaded = load_database(str(tmp_path / "s"))
        assert loaded.collection_names() == ["alpha", "zeta"]
        assert list(loaded.get_collection("zeta").keys()) == [
            "zeta-0", "zeta-1", "zeta-10", "zeta-2",
        ]

    def test_unsafe_keys_sanitised(self, database, tmp_path):
        root = tmp_path / "store"
        save_database(database, str(root))
        loaded = load_database(str(root))
        assert "weird key/with:chars" in loaded.get_collection("sigmod")

    def test_resave_overwrites(self, database, tmp_path):
        root = tmp_path / "store"
        save_database(database, str(root))
        before = sorted(p.name for p in root.iterdir())
        save_database(database, str(root))  # idempotent
        assert sorted(p.name for p in root.iterdir()) == before
        database.get_collection("dblp").add_document("doc-c", DOC_B)
        database.drop_collection("sigmod")
        (root / "notes.txt").write_text("not ours")
        save_database(database, str(root))
        loaded = load_database(str(root))
        assert len(loaded.get_collection("dblp")) == 2
        # superseded segments are gone, foreign files are left alone
        assert [p.name for p in root.glob("*.seg")] == [_segment(root, "dblp").name]
        assert (root / "notes.txt").exists()

    def test_size_cap_preserved(self, tmp_path):
        db = Database(max_document_bytes=1234)
        db.create_collection("x").max_document_bytes = 99999
        db.get_collection("x").add_document("d", "<a/>")
        save_database(db, str(tmp_path / "s"))
        loaded = load_database(str(tmp_path / "s"))
        assert loaded.max_document_bytes == 1234
        assert loaded.get_collection("x").max_document_bytes == 99999

    def test_size_cap_still_checked_on_load(self, tmp_path):
        """The loader hands the record's byte length to the cap check
        instead of re-serialising; the check and its number stay."""
        import json

        from repro.xmldb.serializer import document_bytes

        db = Database()
        root = db.create_collection("x").add_document("d", "<a><b>caf\u00e9</b></a>")
        size = document_bytes(root)
        save_database(db, str(tmp_path / "s"))
        manifest = tmp_path / "s" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["collections"]["x"]["max_document_bytes"] = size
        manifest.write_text(json.dumps(payload))
        assert len(load_database(str(tmp_path / "s")).get_collection("x")) == 1
        payload["collections"]["x"]["max_document_bytes"] = size - 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(XmlDbError, match=f"{size} bytes"):
            load_database(str(tmp_path / "s"))


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(XmlDbError):
            load_database(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(XmlDbError):
            load_database(str(tmp_path))

    def test_bad_format_version(self, tmp_path):
        # formats 1 and 2 (one .xml file per document) are not read any
        # more: every mode refuses them by name rather than guessing
        for version in (1, 2, 9):
            (tmp_path / "manifest.json").write_text(
                json.dumps({"format": version, "collections": {}})
            )
            for mode in ("raise", "quarantine"):
                with pytest.raises(XmlDbError, match=f"format {version}") as info:
                    load_database(str(tmp_path), on_corruption=mode)
                assert not isinstance(info.value, StorageCorruptionError)
            with pytest.raises(XmlDbError, match=f"format {version}"):
                verify_database(str(tmp_path))

    def test_bad_on_corruption_value(self, tmp_path):
        with pytest.raises(ValueError):
            load_database(str(tmp_path), on_corruption="shrug")


class TestFilenameCollisions:
    def test_sanitised_keys_get_distinct_files(self, tmp_path):
        db = Database()
        coll = db.create_collection("c")
        # keys never become file names (they live inside the records), so
        # keys that sanitise alike cannot overwrite one another ...
        coll.add_document("a b", "<x>one</x>")
        coll.add_document("a:b", "<x>two</x>")
        coll.add_document("1-a_b", "<x>three</x>")
        coll.add_document("a/b", "<x>four</x>")
        # ... and collection names that sanitise alike get distinct,
        # content-named segment files
        db.create_collection("c d").add_document("k", "<x>five</x>")
        db.create_collection("c:d").add_document("k", "<x>six</x>")
        root = str(tmp_path / "s")
        save_database(db, root)
        loaded = load_database(root)
        got = {
            key: loaded.get_collection("c").get_document(key).text
            for key in ("a b", "a:b", "1-a_b", "a/b")
        }
        assert got == {"a b": "one", "a:b": "two", "1-a_b": "three", "a/b": "four"}
        assert loaded.get_collection("c d").get_document("k").text == "five"
        assert loaded.get_collection("c:d").get_document("k").text == "six"
        assert len(list((tmp_path / "s").glob("c_d-*.seg"))) == 2


class TestPathTraversal:
    def _store(self, tmp_path):
        db = Database()
        db.create_collection("c").add_document("d", "<a/>")
        root = tmp_path / "s"
        save_database(db, str(root))
        return root

    def _point_segment_at(self, root, target):
        manifest = _manifest(root)
        manifest["collections"]["c"]["segment"] = target
        (root / "manifest.json").write_text(json.dumps(manifest))

    def test_directory_escape_rejected(self, tmp_path):
        root = self._store(tmp_path)
        outside = tmp_path / "evil.000000000000.seg"
        outside.write_bytes(_segment(root, "c").read_bytes())
        self._point_segment_at(root, "../evil.000000000000.seg")
        with pytest.raises(XmlDbError, match="unsafe") as info:
            load_database(str(root))
        assert not isinstance(info.value, StorageCorruptionError)

    def test_filename_escape_rejected(self, tmp_path):
        root = self._store(tmp_path)
        self._point_segment_at(root, "../../etc/passwd")
        with pytest.raises(XmlDbError, match="unsafe"):
            load_database(str(root))
        with pytest.raises(XmlDbError, match="unsafe"):
            verify_database(str(root))

    def test_traversal_rejected_even_in_quarantine_mode(self, tmp_path):
        root = self._store(tmp_path)
        self._point_segment_at(root, "..\\..\\boom.seg")
        with pytest.raises(XmlDbError):
            load_database(str(root), on_corruption="quarantine")
        assert not (root / ".quarantine").exists()

    def test_absolute_path_rejected(self, tmp_path):
        root = self._store(tmp_path)
        self._point_segment_at(root, "/etc/hostname")
        with pytest.raises(XmlDbError):
            load_database(str(root))

    def test_symlinked_segment_outside_root_rejected(self, tmp_path):
        root = self._store(tmp_path)
        outside = tmp_path / "outside.seg"
        outside.write_bytes(_segment(root, "c").read_bytes())
        os.symlink(outside, root / "link.000000000000.seg")
        self._point_segment_at(root, "link.000000000000.seg")
        with pytest.raises(XmlDbError, match="unsafe"):
            load_database(str(root), on_corruption="quarantine")


class TestFormatV3:
    def test_manifest_records_checksums(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        manifest = _manifest(root)
        assert manifest["format"] == 3
        entry = manifest["collections"]["dblp"]
        assert set(entry) == {
            "segment", "records", "bytes", "sha256", "max_document_bytes"
        }
        data = (root / entry["segment"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        assert entry["sha256"] == digest
        assert entry["segment"] == f"dblp.{digest[:12]}.seg"
        assert (entry["records"], entry["bytes"]) == (1, len(data))
        (record,) = _records(root, "dblp")
        tree = database.get_collection("dblp").get_document("doc-a")
        assert record["xml"] == serialize(tree)
        assert record["sha256"] == sha256_text("doc-a\n" + record["xml"])

    def test_checksum_mismatch_raises(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        # still well-formed XML under a segment digest the manifest agrees
        # with, so only the record's own checksum can catch it
        _rewrite_record(root, "sigmod", 0, xml=DOC_A)
        with pytest.raises(StorageCorruptionError, match="'doc-b'.*checksum"):
            load_database(str(root))

    def test_record_checksum_covers_the_key(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        _rewrite_record(root, "sigmod", 0, key="doc-x")
        with pytest.raises(StorageCorruptionError, match="'doc-x'.*checksum"):
            load_database(str(root))

    def test_segment_digest_catches_what_records_cannot(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        segment = _segment(root, "sigmod")
        lines = segment.read_bytes().split(b"\n")
        # every record still verifies on its own: a line went missing ...
        segment.write_bytes(lines[0] + b"\n")
        with pytest.raises(StorageCorruptionError, match="1 records missing"):
            load_database(str(root))
        # ... or came back twice under another key order
        segment.write_bytes(lines[1] + b"\n" + lines[0] + b"\n")
        with pytest.raises(StorageCorruptionError, match="segment checksum"):
            load_database(str(root))
        report = verify_database(str(root))
        assert [q.reason for q in report.quarantined] == [
            "segment checksum mismatch (every record verifies)"
        ]

    def test_fsyncs_do_not_depend_on_document_count(self, tmp_path):
        fsyncs = REGISTRY.counter("storage.fsyncs")
        written = REGISTRY.counter("storage.bytes_written")
        costs = {}
        for count in (10, 1000):
            db = Database()
            coll = db.create_collection("c")
            for i in range(count):
                coll.add_document(f"d{i}", f"<x>{i}</x>")
            before, bytes_before = fsyncs.value, written.value
            save_database(db, str(tmp_path / f"s{count}"), write_indexes=True)
            costs[count] = fsyncs.value - before
            on_disk = sum(
                p.stat().st_size
                for p in (tmp_path / f"s{count}").rglob("*") if p.is_file()
            )
            assert written.value - bytes_before == on_disk
        # segment, index and manifest: a file and a directory flush each
        assert costs == {10: 6, 1000: 6}

    def test_save_and_load_spans_carry_the_write_bill(self, database, tmp_path):
        from repro.obs.trace import Tracer

        root = tmp_path / "s"
        tracer = Tracer()
        with tracer.trace("test"):
            save_database(database, str(root))
            load_database(str(root))
        save, load = tracer.finish()["children"]
        on_disk = sum(p.stat().st_size for p in root.iterdir() if p.is_file())
        segments = sum(p.stat().st_size for p in root.glob("*.seg"))
        assert (save["name"], save["attributes"]) == (
            "storage.save", {"documents": 3, "bytes": on_disk, "fsyncs": 6}
        )
        assert (load["name"], load["attributes"]) == (
            "storage.load",
            {"documents": 3, "bytes": segments, "fsyncs": 0, "quarantined": 0},
        )


class TestVerifyAndRecover:
    def test_verify_clean_store(self, database, tmp_path):
        root = str(tmp_path / "s")
        save_database(database, root)
        report = verify_database(root)
        assert report.ok
        assert report.loaded_documents == 3
        assert report.database is None  # read-only

    def test_verify_reports_without_moving(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        victim = _segment(root, "dblp")
        victim.write_text("garbage\n")
        report = verify_database(str(root))
        assert not report.ok
        assert len(report.quarantined) == 1
        assert report.quarantined[0].quarantined_to is None
        assert victim.read_text() == "garbage\n"  # verify never touches files
        assert not (root / ".quarantine").exists()

    def test_recover_moves_and_salvages(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        segment = _segment(root, "sigmod")
        good, bad = segment.read_bytes().split(b"\n")[:2]
        bad = bad.replace(b"One.", b"Eno.")
        segment.write_bytes(good + b"\n" + bad + b"\n")
        report = recover_database(str(root))
        assert report.database is report.database.recovery_report.database
        assert list(report.database.get_collection("sigmod").keys()) == ["doc-b"]
        assert len(report.database.get_collection("dblp")) == 1
        (lost,) = report.quarantined
        assert (lost.collection, lost.key) == ("sigmod", "weird key/with:chars")
        # the damaged line is kept byte for byte, and nothing was deleted
        assert lost.quarantined_to.startswith(str(root / ".quarantine" / "sigmod"))
        assert open(lost.quarantined_to, "rb").read() == bad + b"\n"
        assert segment.exists()
        # recovering again finds the same damage and copies nothing new
        again = recover_database(str(root))
        assert [q.quarantined_to for q in again.quarantined] == [lost.quarantined_to]
        assert len(list((root / ".quarantine" / "sigmod").iterdir())) == 1

    def test_recover_then_resave_verifies_clean(self, database, tmp_path):
        root = tmp_path / "s"
        save_database(database, str(root))
        victim = _segment(root, "dblp")
        victim.write_text("garbage")
        report = recover_database(str(root))
        save_database(report.database, str(root))
        assert verify_database(str(root)).ok
        assert not victim.exists()  # superseded by the clean (empty) segment
        kept = report.quarantined[0].quarantined_to
        assert open(kept).read() == "garbage\n"
