"""Unit tests for the collection search index: postings + persistence.

Covers the tentpole's correctness contract: indexes maintained
incrementally equal a from-scratch rebuild, survive a serialisation
round trip, and on any integrity failure (corruption, staleness) are
ignored and rebuilt — never trusted.
"""

import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmldb.database import Database
import zlib

from repro.xmldb.index import (
    CollectionSearchIndex,
    index_file_status,
    index_path,
    save_collection_index,
)
from repro.xmldb.storage import (
    build_indexes,
    index_status,
    load_database,
    save_database,
)

DOC_A = """
<dblp>
  <inproceedings key="p1">
    <author>J. Smith</author>
    <title>Paper One</title>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
</dblp>
"""

DOC_B = """
<dblp>
  <inproceedings key="p2">
    <author>J. Smyth</author>
    <title>Paper Two</title>
    <booktitle>VLDB</booktitle>
  </inproceedings>
</dblp>
"""

DOC_C = """
<proceedings>
  <article key="p3">
    <title>Paper One</title>
    <note></note>
  </article>
</proceedings>
"""


@pytest.fixture
def collection():
    db = Database()
    col = db.create_collection("dblp")
    col.add_document("a", DOC_A)
    col.add_document("b", DOC_B)
    col.add_document("c", DOC_C)
    return col


class TestPostings:
    def test_term_lookup_is_exact_and_tag_filterable(self, collection):
        index = collection.search_index()
        assert index.docs_with_term("Paper One") == {"a", "c"}
        assert index.docs_with_term(
            "Paper One", tags=frozenset({"title"})
        ) == {"a", "c"}
        # Tag filter excludes documents carrying the value elsewhere.
        assert index.docs_with_term(
            "J. Smith", tags=frozenset({"title"})
        ) == set()
        assert index.docs_with_term("J. Smith", tags=frozenset({"author"})) == {"a"}
        # No normalisation: a closely related value is a different term.
        assert index.docs_with_term("paper one") == set()

    def test_attribute_values_are_indexed(self, collection):
        attributes = collection.search_index().to_dict()["attributes"]
        assert set(attributes["p2"]) == {"b"}
        assert all(path.endswith("/@key") for path in attributes["p2"]["b"])

    def test_empty_text_is_a_term(self, collection):
        # <note></note> in DOC_C: the planner must be able to probe for
        # the empty string, since verification compares raw node.text.
        index = collection.search_index()
        assert "c" in index.docs_with_term("", tags=frozenset({"note"}))

    def test_structural_probes(self, collection):
        index = collection.search_index()
        assert index.docs_with_any_tag(["article"]) == {"c"}
        assert index.docs_with_pc_pair([("inproceedings", "title")]) == {"a", "b"}
        assert index.docs_with_pc_pair([("dblp", "title")]) == set()
        assert index.docs_with_ad_pair([("dblp", "title")]) == {"a", "b"}

    def test_terms_with_tags(self, collection):
        index = collection.search_index()
        by_title = index.terms_with_tags(frozenset({"title"}))
        assert by_title["Paper One"] == {"a", "c"}
        assert "J. Smith" not in by_title


class TestIncrementalMaintenance:
    def _rebuilt(self, collection):
        fresh = CollectionSearchIndex()
        for key, root in collection.documents():
            fresh.add_document(key, root)
        return fresh

    def test_remove_equals_rebuild(self, collection):
        index = collection.search_index()
        collection.remove_document("b")
        assert index.to_dict() == self._rebuilt(collection).to_dict()
        assert index.docs_with_term("J. Smyth") == set()

    def test_replace_equals_rebuild(self, collection):
        index = collection.search_index()
        collection.replace_document("a", DOC_B)
        assert index.to_dict() == self._rebuilt(collection).to_dict()
        assert index.docs_with_term("J. Smyth") == {"a", "b"}

    def test_add_equals_rebuild(self, collection):
        index = collection.search_index()
        collection.add_document("d", DOC_A)
        assert index.to_dict() == self._rebuilt(collection).to_dict()
        assert index.docs_with_term("J. Smith") == {"a", "d"}

    def test_readd_same_key_sweeps_old_contributions(self, collection):
        index = collection.search_index()
        index.add_document("a", collection.get_document("c"))
        assert "a" not in index.docs_with_term("J. Smith")
        assert index.docs_with_term("Paper One") == {"a", "c"}


TAG_SETS = (None, frozenset({"author"}), frozenset({"title", "booktitle"}))


class TestProbeMemoSurvivesWrites:
    """A write patches the ``terms_with_tags`` memo instead of clearing it."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "replace", "remove"]),
                st.integers(min_value=0, max_value=9),
                st.sampled_from([DOC_A, DOC_B, DOC_C]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_patched_memo_equals_a_fresh_index(self, ops):
        collection = Database().create_collection("dblp")
        for key, text in (("a", DOC_A), ("b", DOC_B), ("c", DOC_C)):
            collection.add_document(key, text)
        index = collection.search_index()
        serial = 0
        for kind, position, text in ops:
            # Warm every memo, and keep what was handed out.
            handed = {tags: index.terms_with_tags(tags) for tags in TAG_SETS}
            copies = {tags: dict(mapping) for tags, mapping in handed.items()}
            keys = list(collection.keys())
            if kind == "add" or not keys:
                serial += 1
                collection.add_document(f"n{serial}", text)
            elif kind == "replace":
                collection.replace_document(keys[position % len(keys)], text)
            else:
                collection.remove_document(keys[position % len(keys)])
            fresh = CollectionSearchIndex()
            for key, root in collection.documents():
                fresh.add_document(key, root)
            for tags in TAG_SETS:
                # The surviving memo entry is what a fresh index computes...
                assert ("terms", tags) in index._probe_cache
                assert index.terms_with_tags(tags) == fresh.terms_with_tags(tags)
                # ...and a mapping handed out before the write is untouched.
                assert handed[tags] == copies[tags]
            assert index.to_dict() == fresh.to_dict()
            for value in ("J. Smith", "J. Smyth", "Paper One", ""):
                assert index.docs_with_term(value) == fresh.docs_with_term(value)
            assert index.docs_with_any_tag(["article"]) == fresh.docs_with_any_tag(
                ["article"]
            )

    def test_write_touches_only_the_documents_values(self, collection):
        index = collection.search_index()
        before = index.terms_with_tags(frozenset({"author"}))
        collection.add_document("d", DOC_B.replace("J. Smyth", "K. Jones"))
        after = index.terms_with_tags(frozenset({"author"}))
        assert after is not before
        assert after["K. Jones"] == {"d"}
        assert "K. Jones" not in before
        # Untouched values keep sharing the very same document sets.
        assert after["J. Smith"] is before["J. Smith"]
        collection.remove_document("d")
        assert index.terms_with_tags(frozenset({"author"})) == before


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, collection):
        index = collection.search_index()
        payload = json.loads(json.dumps(index.to_dict()))
        restored = CollectionSearchIndex.from_dict(payload)
        assert restored.to_dict() == index.to_dict()
        # Derived structural maps are rebuilt, not serialised.
        assert restored.docs_with_pc_pair([("inproceedings", "title")]) == {
            "a",
            "b",
        }
        assert restored.docs_with_any_tag(["article"]) == {"c"}
        assert restored.stats() == index.stats()

    def test_from_dict_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CollectionSearchIndex.from_dict({"format": 999})


SEGMENT = "dblp.0123456789ab.seg"


def _envelope(path):
    return json.loads(zlib.decompress(open(path, "rb").read()))


def _write_envelope(path, envelope):
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    open(path, "wb").write(zlib.compress(text.encode("utf-8")))


def load_collection_index(root, segment, collection_name, digest):
    return index_file_status(root, segment, collection_name, digest).get("index")


class TestStorePersistence:
    def test_save_load_round_trip(self, collection, tmp_path):
        index = collection.search_index()
        path = save_collection_index(str(tmp_path), SEGMENT, "dblp", "digest", index)
        assert path == index_path(str(tmp_path), SEGMENT)
        assert os.path.basename(path) == "dblp.0123456789ab.idx"
        restored = load_collection_index(str(tmp_path), SEGMENT, "dblp", "digest")
        assert restored is not None
        assert restored.to_dict() == index.to_dict()
        # derived data is stored compressed: well under the plain JSON
        assert os.path.getsize(path) < len(json.dumps(index.to_dict())) / 2

    def test_stale_content_key_is_rejected(self, collection, tmp_path):
        index = collection.search_index()
        save_collection_index(str(tmp_path), SEGMENT, "dblp", "digest", index)
        assert load_collection_index(str(tmp_path), SEGMENT, "dblp", "CHANGED") is None
        status = index_file_status(str(tmp_path), SEGMENT, "dblp", "CHANGED")
        assert status["status"] == "stale" and "index" not in status

    def test_corrupt_file_is_rejected(self, collection, tmp_path):
        index = collection.search_index()
        path = save_collection_index(str(tmp_path), SEGMENT, "dblp", "digest", index)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        assert load_collection_index(str(tmp_path), SEGMENT, "dblp", "digest") is None

    def test_payload_checksum_is_checked(self, collection, tmp_path):
        # a well-formed envelope with the right content key whose payload
        # was altered: only the payload checksum stands in the way
        index = collection.search_index()
        path = save_collection_index(str(tmp_path), SEGMENT, "dblp", "digest", index)
        envelope = _envelope(path)
        envelope["index"] = CollectionSearchIndex().to_dict()
        _write_envelope(path, envelope)
        assert load_collection_index(str(tmp_path), SEGMENT, "dblp", "digest") is None
        status = index_file_status(str(tmp_path), SEGMENT, "dblp", "digest")
        assert status["status"] == "corrupt: payload checksum mismatch"

    def test_wrong_collection_is_rejected(self, collection, tmp_path):
        index = collection.search_index()
        save_collection_index(str(tmp_path), SEGMENT, "dblp", "digest", index)
        assert load_collection_index(str(tmp_path), SEGMENT, "other", "digest") is None


def _store(tmp_path):
    db = Database()
    col = db.create_collection("dblp")
    col.add_document("a", DOC_A)
    col.add_document("b", DOC_B)
    root = str(tmp_path / "store")
    save_database(db, root, write_indexes=True)
    return root


def _index_file(root):
    return index_status(root)["dblp"]["path"]


class TestStorageIntegration:
    def test_persisted_index_attaches_on_load(self, tmp_path):
        root = _store(tmp_path)
        assert index_status(root)["dblp"]["status"] == "ok"
        loaded = load_database(root)
        col = loaded.get_collection("dblp")
        attached = col.search_index(build=False)
        assert attached is not None
        assert attached.docs_with_term("J. Smith") == {"a"}

    def test_corrupt_index_is_ignored_and_lazily_rebuilt(self, tmp_path):
        root = _store(tmp_path)
        open(_index_file(root), "w").write("{not json")
        assert index_status(root)["dblp"]["status"].startswith("corrupt")
        loaded = load_database(root)
        col = loaded.get_collection("dblp")
        assert col.search_index(build=False) is None  # never trusted
        rebuilt = col.search_index(build=True)  # lazy rebuild from documents
        assert rebuilt.docs_with_term("J. Smyth") == {"b"}

    def test_stale_index_is_detected_and_not_attached(self, tmp_path):
        root = _store(tmp_path)
        old_index = _index_file(root)
        kept = str(tmp_path / "old.idx")
        shutil.copy(old_index, kept)
        db = load_database(root)
        db.get_collection("dblp").replace_document("a", DOC_C)
        # Re-save without index files: the new segment has another name,
        # so the old index is superseded, not left to be picked up ...
        save_database(db, root, write_indexes=False)
        assert not os.path.exists(old_index)
        assert index_status(root)["dblp"]["status"] == "missing"
        # ... and put back under the new segment's name it is still
        # refused: its content key binds it to the old segment's digest.
        shutil.copy(kept, _index_file(root))
        assert index_status(root)["dblp"]["status"] == "stale"
        col = load_database(root).get_collection("dblp")
        assert col.search_index(build=False) is None

    def test_index_not_adopted_beside_a_damaged_segment(self, tmp_path):
        # the index is sound and keyed to the manifest's digest, but the
        # segment on disk no longer is that segment
        root = _store(tmp_path)
        manifest = json.load(open(os.path.join(root, "manifest.json")))
        segment = os.path.join(root, manifest["collections"]["dblp"]["segment"])
        lines = open(segment, "rb").read().split(b"\n")
        open(segment, "wb").write(lines[0] + b"\n")
        assert index_status(root)["dblp"]["status"] == "ok"
        col = load_database(root, on_corruption="quarantine").get_collection("dblp")
        assert list(col.keys()) == ["a"]
        assert col.search_index(build=False) is None

    def test_build_indexes_repairs_stale_and_corrupt(self, tmp_path):
        root = _store(tmp_path)
        open(_index_file(root), "w").write("junk")
        stats = build_indexes(root)
        assert stats["dblp"]["documents"] == 2
        assert index_status(root)["dblp"]["status"] == "ok"
