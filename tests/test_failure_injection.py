"""Failure injection: malformed inputs and boundary conditions everywhere."""

import json
import os

import pytest

from repro.errors import (
    CollectionError,
    ConditionError,
    ConstraintError,
    DocumentTooLargeError,
    FusionInconsistencyError,
    HierarchyCycleError,
    PatternTreeError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    ResourceLimitError,
    SimilarityInconsistencyError,
    StorageCorruptionError,
    TossError,
    UnknownTermError,
    XPathSyntaxError,
    XmlDbError,
    XmlParseError,
)
from repro.core.system import TossSystem
from repro.guard import ResourceGuard
from repro.ontology import Hierarchy, parse_constraint
from repro.ontology.fusion import canonical_fusion
from repro.similarity.measures import Levenshtein
from repro.similarity.sea import sea
from repro.tax.pattern import PatternTree
from repro.xmldb.collection import Collection
from repro.xmldb.database import Database
from repro.xmldb.parser import parse_document
from repro.xmldb.storage import load_database, save_database, verify_database
from repro.xmldb.xpath import XPathQuery


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            CollectionError, ConditionError, ConstraintError,
            DocumentTooLargeError, FusionInconsistencyError,
            HierarchyCycleError, PatternTreeError, QueryTimeoutError,
            ResourceExhaustedError, ResourceLimitError,
            SimilarityInconsistencyError, StorageCorruptionError, TossError,
            UnknownTermError, XPathSyntaxError, XmlParseError,
        ],
    )
    def test_all_errors_are_repro_errors(self, exception):
        assert issubclass(exception, ReproError)

    def test_storage_corruption_is_an_xmldb_error(self):
        assert issubclass(StorageCorruptionError, XmlDbError)

    def test_timeout_and_exhaustion_are_resource_limit_errors(self):
        assert issubclass(QueryTimeoutError, ResourceLimitError)
        assert issubclass(ResourceExhaustedError, ResourceLimitError)


class TestMalformedXml:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "<",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "plain text",
            "<a attr=unquoted/>",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    def test_instance_with_malformed_xml_fails_cleanly(self):
        system = TossSystem()
        with pytest.raises(XmlParseError):
            system.add_instance("bad", "<a><b></a>")
        # the failed collection is created but the system stays usable
        system.add_instance("good", "<a><b>x</b></a>")


class TestOversizedDocuments:
    def test_document_cap_and_recovery(self):
        collection = Collection("tiny", max_document_bytes=50)
        with pytest.raises(DocumentTooLargeError):
            collection.add_document("big", "<a>" + "x" * 200 + "</a>")
        # the failed add leaves no partial state
        assert len(collection) == 0
        collection.add_document("small", "<a>ok</a>")
        assert len(collection) == 1


class TestBadQueries:
    @pytest.mark.parametrize(
        "query",
        ["", "//", "//a[", "//a]", "//a[@]", "//a/b[", "foo(", "1 +", "//a[''=]"],
    )
    def test_xpath_syntax_errors(self, query):
        with pytest.raises(XPathSyntaxError):
            XPathQuery(query)

    def test_pattern_validation(self):
        pattern = PatternTree()
        with pytest.raises(PatternTreeError):
            pattern.validate()


class TestInconsistentKnowledge:
    def test_contradictory_constraints(self):
        with pytest.raises(FusionInconsistencyError):
            canonical_fusion(
                {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
                [parse_constraint("a:1 = b:2"), parse_constraint("a:1 != b:2")],
            )

    def test_indirectly_contradictory_constraints(self):
        # a:1 <= b:2 plus b's hierarchy ordering b <= c plus c:2 <= a:1
        # forces {a, b, c} into one equivalence class; a != c then fails.
        hierarchies = {
            1: Hierarchy(nodes=["a"]),
            2: Hierarchy([("b", "c")]),
        }
        with pytest.raises(FusionInconsistencyError):
            canonical_fusion(
                hierarchies,
                [
                    parse_constraint("a:1 <= b:2"),
                    parse_constraint("c:2 <= a:1"),
                    parse_constraint("a:1 != c:2"),
                ],
            )

    def test_similarity_inconsistency_message_names_terms(self):
        hierarchy = Hierarchy([("article", "document")], nodes=["articles"])
        with pytest.raises(SimilarityInconsistencyError) as info:
            sea(hierarchy, Levenshtein(), 1.0)
        message = str(info.value)
        assert "article" in message and "document" in message

    def test_cyclic_ontology_rejected_at_construction(self):
        with pytest.raises(HierarchyCycleError):
            Hierarchy([("a", "b"), ("b", "c"), ("c", "a")])


class TestSystemMisuse:
    def test_unknown_collection_query(self):
        system = TossSystem()
        system.add_instance("dblp", "<a><b>x</b></a>")
        system.build()
        from repro.core.parser import parse_query

        parsed = parse_query("a(b)")
        with pytest.raises(CollectionError):
            system.select("nowhere", parsed.pattern)

    def test_join_needs_right_collection(self):
        system = TossSystem()
        system.add_instance("dblp", "<a><b>x</b></a>")
        system.build()
        with pytest.raises(TossError):
            system.query("dblp", "a(b $x), c(d $y) where $x ~ $y")

    def test_unknown_measure_name(self):
        with pytest.raises(KeyError):
            TossSystem(measure="frobnicator")

    def test_constraint_against_missing_source(self):
        system = TossSystem()
        system.add_instance("dblp", "<a><b>x</b></a>")
        system.add_constraint("b:dblp = c:missing")
        with pytest.raises(ConstraintError):
            system.build()


class TestDegenerateInputs:
    def test_empty_document_element(self):
        system = TossSystem()
        system.add_instance("empty", "<root/>")
        system.build()
        assert system.ontology_size() >= 1

    def test_single_node_hierarchy_sea(self):
        enhancement = sea(Hierarchy(nodes=["only"]), Levenshtein(), 5.0)
        assert len(enhancement.hierarchy) == 1

    def test_empty_hierarchy_sea(self):
        enhancement = sea(Hierarchy(), Levenshtein(), 1.0)
        assert len(enhancement.hierarchy) == 0

    def test_unicode_content_roundtrip(self):
        from repro.xmldb.serializer import serialize

        doc = parse_document("<a><b>Grüße, 世界 — “quotes”</b></a>")
        again = parse_document(serialize(doc))
        assert again.children[0].text == "Grüße, 世界 — “quotes”"

    def test_whitespace_only_content_dropped(self):
        doc = parse_document("<a>   \n\t  </a>")
        assert doc.text == ""


def _small_database(papers=4):
    db = Database()
    coll = db.create_collection("bib")
    for i in range(papers):
        coll.add_document(
            f"doc{i}", f"<bib><paper><title>Paper {i}</title></paper></bib>"
        )
    return db


def _store_files(root):
    """Every data file of a saved store (segments + manifest), sorted."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".quarantine"]
        for name in filenames:
            found.append(os.path.join(dirpath, name))
    return sorted(found)


def _segment_path(root):
    (path,) = [f for f in _store_files(root) if f.endswith(".seg")]
    return path


def _contents(db):
    """{collection: [(key, xml), ...]} in iteration order."""
    from repro.xmldb.serializer import serialize

    return {
        coll.name: [(key, serialize(tree)) for key, tree in coll.documents()]
        for coll in db.collections()
    }


class TestCrashRecovery:
    """A kill-9 mid-save must never leave the store unloadable."""

    def test_truncated_document_raise_mode(self, tmp_path):
        root = str(tmp_path / "s")
        save_database(_small_database(), root)
        segment = _segment_path(root)
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 10)  # inside doc3
        with pytest.raises(StorageCorruptionError, match="'doc3'"):
            load_database(root)

    def test_truncated_document_quarantine_mode(self, tmp_path):
        root = str(tmp_path / "s")
        save_database(_small_database(), root)
        segment = _segment_path(root)
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 10)
        db = load_database(root, on_corruption="quarantine")
        report = db.recovery_report
        assert not report.ok
        assert report.loaded_documents == 3
        (lost,) = report.quarantined
        assert lost.key == "doc3" and lost.reason.startswith("unreadable record")
        # the survivors still answer queries
        assert len(db.xpath("bib", "//title")) == 3

    def test_checksum_flip_detected_even_when_well_formed(self, tmp_path):
        root = str(tmp_path / "s")
        save_database(_small_database(), root)
        segment = _segment_path(root)
        with open(segment) as handle:
            text = handle.read()
        with open(segment, "w") as handle:
            handle.write(text.replace("Paper", "Papre", 1))  # still valid XML
        with pytest.raises(StorageCorruptionError, match="checksum"):
            load_database(root)
        db = load_database(root, on_corruption="quarantine")
        assert len(db.recovery_report.quarantined) == 1

    def test_every_record_corruption_is_pinned_to_its_key(self, tmp_path):
        """Flip one byte / cut inside every record in turn.

        Raise mode names the record hit; quarantine mode loses exactly
        the records from the damage to the next intact line, keeps their
        raw bytes, and deletes nothing.
        """
        import shutil

        pristine = tmp_path / "pristine"
        save_database(_small_database(6), str(pristine))
        segment = os.path.basename(_segment_path(str(pristine)))
        data = (pristine / segment).read_bytes()
        lines = data.split(b"\n")[:-1]
        keys = [f"doc{i}" for i in range(6)]
        offsets = [sum(len(l) + 1 for l in lines[:i]) for i in range(6)]
        for index, key in enumerate(keys):
            inside = offsets[index] + len(lines[index]) - 20  # in the xml field
            for action in ("flip", "truncate"):
                root = tmp_path / f"{action}-{index}"
                shutil.copytree(pristine, root)
                if action == "flip":
                    damaged = bytearray(data)
                    damaged[inside] ^= 0x01
                    (root / segment).write_bytes(bytes(damaged))
                    lost = [key]
                else:
                    (root / segment).write_bytes(data[:inside])
                    lost = keys[index:]
                with pytest.raises(StorageCorruptionError, match=repr(key)):
                    load_database(str(root))
                before = (root / segment).read_bytes()
                db = load_database(str(root), on_corruption="quarantine")
                assert list(db.get_collection("bib").keys()) == [
                    k for k in keys if k not in lost
                ]
                report = db.recovery_report
                assert report.quarantined[0].key == key
                kept = open(report.quarantined[0].quarantined_to, "rb").read()
                assert kept == before[offsets[index]:].split(b"\n")[0] + b"\n"
                if action == "truncate" and len(lost) > 1:
                    assert report.quarantined[1].reason == (
                        f"{len(lost) - 1} records missing (segment truncated)"
                    )
                assert (root / segment).read_bytes() == before  # never deleted

    def test_no_single_byte_flip_goes_unnoticed(self, tmp_path):
        root = tmp_path / "s"
        save_database(_small_database(2), str(root))
        segment = _segment_path(str(root))
        data = open(segment, "rb").read()
        for position in range(len(data)):
            damaged = bytearray(data)
            damaged[position] ^= 0x04
            with open(segment, "wb") as handle:
                handle.write(bytes(damaged))
            with pytest.raises(StorageCorruptionError):
                load_database(str(root))
            assert not verify_database(str(root)).ok

    def test_corrupt_manifest_quarantine_salvages_documents(self, tmp_path):
        root = tmp_path / "s"
        db = _small_database()
        db.get_collection("bib").add_document("odd key/..\n\"q\"", "<bib/>")
        save_database(db, str(root))
        (root / "manifest.json").write_text('{"format": 3, "collections": {')
        with pytest.raises(StorageCorruptionError, match="manifest"):
            load_database(str(root))
        assert not verify_database(str(root)).manifest_ok
        loaded = load_database(str(root), on_corruption="quarantine")
        report = loaded.recovery_report
        assert not report.manifest_ok
        # the documents are rebuilt from a scan of the segments, keys and all
        assert _contents(loaded) == _contents(load_database(str(root)))
        assert _contents(loaded)["bib"] == sorted(_contents(db)["bib"])
        # the torn manifest was moved aside, not destroyed
        moved = report.quarantined[0].quarantined_to
        assert moved and os.path.exists(moved)
        # a fresh manifest was rewritten: the next load is clean
        again = load_database(str(root))
        assert len(again.get_collection("bib")) == 5

    def test_salvage_after_a_crashed_resave_keeps_both_states(self, tmp_path):
        root = tmp_path / "s"
        save_database(_small_database(4), str(root))
        old = _segment_path(str(root))
        # a re-save died after writing its segment, then the manifest was lost
        other = tmp_path / "other"
        save_database(_small_database(5), str(other))
        new = _segment_path(str(other))
        os.replace(new, root / os.path.basename(new))
        os.utime(old, (1, 1))
        (root / "manifest.json").write_text("{torn")
        db = load_database(str(root), on_corruption="quarantine")
        # the newest segment gets the collection's name, the other one
        # comes back beside it: nothing is dropped, nothing is mixed
        older = os.path.basename(old)[: -len(".seg")]
        assert db.collection_names() == ["bib", older]
        assert len(db.get_collection("bib")) == 5
        assert len(db.get_collection(older)) == 4
        assert _contents(load_database(str(root))) == _contents(db)

    def test_kill9_sweep_store_always_loadable(self, tmp_path):
        """Simulate a crash at every possible point of a save.

        Atomic per-file writes mean the only states a kill -9 can leave
        behind are: a file fully written, absent, or (on filesystems
        without atomic rename, which we still defend against) torn.
        Sweep every file x {truncated, deleted}: quarantine-mode loading
        must always return a working database plus a recovery report.
        """
        pristine = tmp_path / "pristine"
        save_database(_small_database(), str(pristine))
        files = _store_files(str(pristine))
        assert len(files) == 2  # one segment + manifest
        import shutil

        for index, victim in enumerate(files):
            for action in ("truncate", "delete"):
                root = tmp_path / f"crash-{index}-{action}"
                shutil.copytree(pristine, root)
                target = os.path.join(str(root), os.path.relpath(victim, pristine))
                if action == "truncate":
                    with open(target, "r+") as handle:
                        handle.truncate(7)
                else:
                    os.remove(target)
                if target.endswith("manifest.json") and action == "delete":
                    # no manifest at all = not a database directory; that is
                    # a usage error, not silent data loss
                    with pytest.raises(XmlDbError):
                        load_database(str(root), on_corruption="quarantine")
                    continue
                db = load_database(str(root), on_corruption="quarantine")
                report = db.recovery_report
                assert report.database is db
                assert not report.ok
                assert report.loaded_documents == (0 if index == 0 else 4)
                # loading again after quarantine is clean or at least stable
                db2 = load_database(str(root), on_corruption="quarantine")
                assert db2.recovery_report.loaded_documents == report.loaded_documents

    def test_kill9_sweep_resave_loads_old_or_new_in_raise_mode(
        self, tmp_path, monkeypatch
    ):
        """Crash a re-save over an existing store at every step.

        Every durable step of ``save_database`` (each atomic write, each
        unlink of a superseded file) is cut short in turn — before it
        happens, or leaving a torn file behind: at the temporary name a
        kill -9 leaves, or at the final name a filesystem without atomic
        rename could leave.  The strict loader must then see exactly the
        old database (manifest not yet replaced) or exactly the new one,
        never a refusal and never a mix.
        """
        import itertools
        import shutil

        from repro import ioutils
        from repro.xmldb import storage
        from repro.xmldb.index import store as index_store

        old_db, new_db = _small_database(4), _small_database(4)
        new_db.get_collection("bib").replace_document(
            "doc1", "<bib><paper><title>Rewritten</title></paper></bib>"
        )
        new_db.get_collection("bib").add_document("doc9", "<bib/>")
        new_db.create_collection("extra").add_document("e", "<e/>")
        pristine, reference = tmp_path / "pristine", tmp_path / "reference"
        save_database(old_db, str(pristine), write_indexes=True)
        save_database(new_db, str(reference), write_indexes=True)
        old = _contents(load_database(str(pristine)))
        new = _contents(load_database(str(reference)))
        assert old != new

        class Kill9(BaseException):
            pass

        def crash_resave(root, cut_at, tear):
            """Re-save into ``root``, dying at step ``cut_at``; the files
            each step was about, and whether the save died."""
            steps = []

            def dying(real, tear):
                def step(path, *args):
                    steps.append(os.path.basename(path))
                    if len(steps) - 1 == cut_at:
                        if tear:
                            torn = path + ".k9.tmp" if tear == "temp" else path
                            with open(torn, "wb") as handle:
                                handle.write(b'{"key":"do')
                        raise Kill9()
                    return real(path, *args)

                return step

            with monkeypatch.context() as patch:
                write = dying(ioutils.atomic_write_bytes, tear)
                for module in (ioutils, storage, index_store):
                    patch.setattr(module, "atomic_write_bytes", write)
                patch.setattr(os, "unlink", dying(os.unlink, None))
                try:
                    save_database(new_db, str(root), write_indexes=True)
                except Kill9:
                    return steps, True
            return steps, False

        seen = set()
        for tear in (None, "temp", "final"):
            for cut_at in itertools.count():
                root = tmp_path / f"resave-{tear}-{cut_at}"
                shutil.copytree(pristine, root)
                steps, died = crash_resave(root, cut_at, tear)
                if tear == "final" and died and steps[-1] == "manifest.json":
                    continue  # the one state atomic rename exists to rule out
                committed = "manifest.json" in (steps[:-1] if died else steps)
                state = _contents(load_database(str(root)))  # raise mode
                assert state == (new if committed else old), (tear, steps)
                seen.add((steps[-1].rsplit(".", 1)[-1], committed))
                if not died:
                    # 2 segments + 2 indexes + manifest, then the old
                    # segment and index unlinked
                    assert len(steps) == 7
                    assert sorted(os.listdir(root)) == sorted(os.listdir(reference))
                    break
        assert seen == {
            ("seg", False), ("idx", False), ("json", False),  # before the commit
            ("seg", True), ("idx", True),  # while unlinking what it superseded
        }


class TestResourceGuard:
    def _big_database(self, papers=200):
        db = Database()
        body = "".join(
            f"<paper><title>Paper number {i}</title></paper>" for i in range(papers)
        )
        db.create_collection("bib").add_document("d", f"<bib>{body}</bib>")
        return db

    def test_guard_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            ResourceGuard(deadline_seconds=-1)
        with pytest.raises(ValueError):
            ResourceGuard(max_steps=-5)

    def test_deadline_raises_query_timeout(self):
        db = self._big_database()
        guard = ResourceGuard(deadline_seconds=0.0)
        guard.start()
        with pytest.raises(QueryTimeoutError) as info:
            db.xpath("bib", "//paper[title]", guard=guard)
        assert info.value.deadline == 0.0
        assert info.value.elapsed >= 0.0

    def test_deadline_enforced_within_twice_the_deadline(self):
        import time

        db = self._big_database(400)
        deadline = 0.02
        guard = ResourceGuard(deadline_seconds=deadline)
        guard.start()
        began = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            for _ in range(1000):  # keep issuing work until the guard trips
                db.xpath("bib", "//paper[contains(title, 'number')]", guard=guard)
        waited = time.monotonic() - began
        assert waited < 10 * deadline + 0.5  # generous CI bound; typical ~1x

    def test_step_budget_raises_resource_exhausted(self):
        db = self._big_database()
        guard = ResourceGuard(max_steps=50)
        guard.start()
        with pytest.raises(ResourceExhaustedError, match="evaluation budget"):
            db.xpath("bib", "//paper/title", guard=guard)

    def test_result_cap_raises_resource_exhausted(self):
        db = self._big_database()
        guard = ResourceGuard(max_results=10)
        guard.start()
        with pytest.raises(ResourceExhaustedError):
            db.xpath("bib", "//title", guard=guard)

    def test_unlimited_guard_is_a_no_op(self):
        db = self._big_database(20)
        guard = ResourceGuard()
        guard.start()
        results = db.xpath("bib", "//title", guard=guard)
        assert len(results) == 20
        assert guard.steps > 0

    def test_guarded_system_query_times_out(self):
        system = TossSystem(epsilon=1.0)
        body = "".join(
            f"<paper><author>Name {i}</author></paper>" for i in range(100)
        )
        system.add_instance("bib", f"<bib>{body}</bib>")
        system.build()
        system.executor.guard = ResourceGuard(deadline_seconds=0.0)
        with pytest.raises(QueryTimeoutError):
            system.query("bib", 'paper(author ~ "Name 1")')

    def test_guarded_seo_build_times_out(self):
        guard = ResourceGuard(deadline_seconds=0.0)
        system = TossSystem(epsilon=2.0, guard=guard)
        system.add_instance("bib", "<bib><paper><author>A</author></paper></bib>")
        with pytest.raises(QueryTimeoutError):
            system.build()

    def test_sea_respects_step_budget(self):
        hierarchy = Hierarchy(nodes=[f"term-{i:03d}" for i in range(60)])
        guard = ResourceGuard(max_steps=20)
        guard.start()
        with pytest.raises(ResourceExhaustedError):
            sea(hierarchy, Levenshtein(), 1.0, guard=guard)


class TestGracefulDegradation:
    def _failing_system(self):
        system = TossSystem(epsilon=2.0)
        system.add_instance(
            "bib",
            "<bib><paper><author>J. Ullman</author></paper>"
            "<paper><author>J Ullman</author></paper></bib>",
        )
        # reference a source that does not exist: build() must fail
        system.add_constraint("author:bib = writer:nowhere")
        return system

    def test_build_failure_raises_by_default(self):
        with pytest.raises(ConstraintError):
            self._failing_system().build()

    def test_build_failure_degrades_on_request(self):
        system = self._failing_system()
        system.build(on_failure="degrade")
        assert system.degraded
        assert isinstance(system.build_error, ConstraintError)
        report = system.query("bib", 'paper(author ~ "J. Ullman")')
        assert report.degraded
        # exact matching: only the literally equal author survives
        assert len(report.results) == 1

    def test_degraded_timeout_also_degrades(self):
        system = TossSystem(epsilon=2.0)
        system.add_instance(
            "bib", "<bib><paper><author>J. Ullman</author></paper></bib>"
        )
        system.build(guard=ResourceGuard(deadline_seconds=0.0), on_failure="degrade")
        assert system.degraded
        assert isinstance(system.build_error, QueryTimeoutError)
        report = system.query("bib", 'paper(author ~ "J. Ullman")')
        assert report.degraded and len(report.results) == 1

    def test_successful_rebuild_clears_degradation(self):
        system = TossSystem(epsilon=2.0)
        system.add_instance(
            "bib", "<bib><paper><author>J. Ullman</author></paper></bib>"
        )
        system.build(guard=ResourceGuard(deadline_seconds=0.0), on_failure="degrade")
        assert system.degraded
        system.build()  # no guard: succeeds
        assert not system.degraded
        assert system.build_error is None
        report = system.query("bib", 'paper(author ~ "J Ullman")')
        assert not report.degraded
        assert len(report.results) == 1  # similarity matching is back

    def test_invalid_on_failure_value(self):
        system = self._failing_system()
        with pytest.raises(ValueError):
            system.build(on_failure="explode")

    def test_degraded_instance_of_matches_nothing(self):
        system = self._failing_system()
        system.build(on_failure="degrade")
        report = system.query("bib", 'paper(author isa "person")')
        assert report.degraded
        assert len(report.results) == 0
