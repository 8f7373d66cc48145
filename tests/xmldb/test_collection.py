"""Unit tests for collections and the database facade."""

import pytest

from repro.errors import CollectionError, DocumentTooLargeError, XmlDbError
from repro.xmldb.collection import Collection
from repro.xmldb.database import Database
from repro.xmldb.model import XmlNode
from repro.xmldb.parser import parse_document
from repro.xmldb.xpath import XPathQuery

DOC = "<dblp><inproceedings><author>A</author><year>1999</year></inproceedings></dblp>"


class TestCollection:
    def test_add_and_get(self):
        collection = Collection("dblp")
        root = collection.add_document("d1", DOC)
        assert collection.get_document("d1") is root
        assert "d1" in collection
        assert len(collection) == 1

    def test_add_parsed_tree(self):
        collection = Collection("dblp")
        tree = parse_document(DOC)
        assert collection.add_document("d1", tree) is tree

    def test_duplicate_key_rejected(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        with pytest.raises(CollectionError):
            collection.add_document("d1", DOC)

    def test_replace_document(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        collection.replace_document("d1", "<other/>")
        assert collection.get_document("d1").tag == "other"

    def test_remove_document(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        collection.remove_document("d1")
        assert "d1" not in collection
        with pytest.raises(CollectionError):
            collection.remove_document("d1")

    def test_missing_document(self):
        with pytest.raises(CollectionError):
            Collection("dblp").get_document("nope")

    def test_size_cap_enforced(self):
        collection = Collection("tiny", max_document_bytes=20)
        with pytest.raises(DocumentTooLargeError) as info:
            collection.add_document("big", DOC)
        assert info.value.limit == 20
        assert info.value.size > 20

    def test_tag_containing_slash_is_refused_at_the_door(self):
        # The search index keys tag paths by "/"-joined strings: stored,
        # this tree would be pruned away by the planner and a selection
        # for the tag ``a/b`` would answer with nothing (docs_scanned 0).
        # The XML reader never lets such a name in; trees get the same rule.
        collection = Collection("c")
        root = XmlNode("book")
        root.element("a/b", "x")
        with pytest.raises(XmlDbError, match=r"'d1'.*'a/b'"):
            collection.add_document("d1", root)
        assert "d1" not in collection and collection.generation == 0

    def test_refused_replacement_leaves_the_old_document(self):
        collection = Collection("c")
        collection.add_document("d1", DOC)
        collection.search_index(build=True)
        bad = XmlNode("a/b")
        with pytest.raises(XmlDbError, match=r"'d1'.*'a/b'"):
            collection.replace_document("d1", bad)
        assert collection.get_document("d1").tag == "dblp"
        assert collection.generation == 1
        authors = XPathQuery("//author").select(collection.get_document("d1"))
        assert [hit.tag for hit in authors] == ["author"]

    def test_empty_name_rejected(self):
        with pytest.raises(CollectionError):
            Collection("")

    def test_statistics(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        assert collection.total_bytes() > 0


class TestChangelog:
    def test_generation_counts_every_mutation(self):
        collection = Collection("dblp")
        assert collection.generation == 0
        collection.add_document("d1", DOC)
        collection.replace_document("d1", "<other/>")
        collection.remove_document("d1")
        assert collection.generation == 3

    def test_changes_since_replays_in_order(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        base = collection.generation
        collection.add_document("d2", DOC)
        collection.replace_document("d1", "<other/>")
        collection.remove_document("d2")
        assert collection.changes_since(base) == [
            ("add", "d2"),
            ("replace", "d1"),
            ("remove", "d2"),
        ]

    def test_changes_since_current_is_empty(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        assert collection.changes_since(collection.generation) == []

    def test_changes_since_future_generation_is_none(self):
        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        assert collection.changes_since(collection.generation + 1) is None

    def test_changes_since_truncated_ring_is_none(self):
        from repro.xmldb.collection import CHANGELOG_CAPACITY

        collection = Collection("dblp")
        collection.add_document("d1", DOC)
        base = collection.generation
        for _ in range(CHANGELOG_CAPACITY + 1):
            collection.replace_document("d1", DOC)
        assert collection.changes_since(base) is None
        # The ring still reaches recent history.
        assert collection.changes_since(collection.generation - 1) == [
            ("replace", "d1")
        ]


class TestDatabase:
    def test_create_get_drop(self):
        database = Database()
        database.create_collection("dblp")
        assert "dblp" in database
        assert database.get_collection("dblp").name == "dblp"
        database.drop_collection("dblp")
        assert "dblp" not in database
        with pytest.raises(CollectionError):
            database.drop_collection("dblp")

    def test_duplicate_collection_rejected(self):
        database = Database()
        database.create_collection("dblp")
        with pytest.raises(CollectionError):
            database.create_collection("dblp")

    def test_unknown_collection(self):
        with pytest.raises(CollectionError):
            Database().get_collection("nope")

    def test_document_size_limit_propagates(self):
        database = Database(max_document_bytes=10)
        collection = database.create_collection("tiny")
        with pytest.raises(DocumentTooLargeError):
            collection.add_document("big", DOC)

    def test_total_bytes(self):
        database = Database()
        database.create_collection("dblp").add_document("d1", DOC)
        assert database.total_bytes() > 0

    def test_collection_names(self):
        database = Database()
        database.create_collection("a")
        database.create_collection("b")
        assert database.collection_names() == ["a", "b"]
