"""Property-based test: a saved store loads back as the database saved.

Whatever the keys look like (path separators, ``..``, newlines, quotes,
non-ASCII, line separators JSON leaves unescaped) and whatever text and
attribute values the documents hold (``& < > "``), ``save_database`` →
``load_database`` returns the same collections with the same keys in key
order, the same trees and the same size caps.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmldb.database import Database
from repro.xmldb.model import XmlNode
from repro.xmldb.storage import load_database, save_database, verify_database

#: What XML 1.0 can carry as character data: no controls, surrogates,
#: private-use or unassigned code points.
_xml_chars = st.characters(blacklist_categories=("Cs", "Cc", "Co", "Cn"))

#: Text as the parser hands it back: stripped, so save → load is identity.
texts = st.text(_xml_chars, max_size=12).map(str.strip) | st.sampled_from(
    ["a & b", "x < y > z", 'say "hi"', "it's", "café 世界", "a b"]
)

#: Attribute values additionally survive XML attribute normalisation
#: only without literal whitespace other than spaces (Cc is excluded).
attributes = st.dictionaries(
    st.sampled_from(["key", "lang", "n"]), texts, max_size=2
)

keys = st.text(max_size=10) | st.sampled_from(
    ["a/b", "../../etc/passwd", "..", "line\nbreak", 'quo"te', "über", "a b", "", " "]
)


@st.composite
def trees(draw, depth=2):
    node = XmlNode(
        draw(st.sampled_from(["paper", "title", "author", "x"])),
        text=draw(texts),
        attributes=draw(attributes),
    )
    if depth:
        for child in draw(st.lists(trees(depth=depth - 1), max_size=3)):
            node.append(child)
    return node


collections = st.dictionaries(keys, trees(), max_size=5)
databases = st.dictionaries(
    st.sampled_from(["dblp", "sig mod", "sig:mod", "ü"]), collections, max_size=3
)


def _contents(database):
    return {
        collection.name: (
            collection.max_document_bytes,
            [(key, tree.canonical_key()) for key, tree in collection.documents()],
        )
        for collection in database.collections()
    }


def _store_names(root):
    return sorted(
        os.path.relpath(os.path.join(parent, name), root)
        for parent, _dirs, names in os.walk(root)
        for name in names
    )


@settings(max_examples=60, deadline=None)
@given(content=databases, cap=st.integers(min_value=10_000, max_value=10**7))
def test_save_load_is_identity_up_to_key_order(content, cap):
    database = Database(max_document_bytes=cap)
    for name, documents in content.items():
        collection = database.create_collection(name)
        collection.max_document_bytes = cap + len(name)
        for key, tree in documents.items():
            collection.add_document(key, tree)
    with tempfile.TemporaryDirectory() as root:
        save_database(database, root, write_indexes=True)
        assert verify_database(root).ok
        loaded = load_database(root)
        assert loaded.max_document_bytes == cap
        expected = {
            name: (cap_, sorted(documents))
            for name, (cap_, documents) in _contents(database).items()
        }
        assert _contents(loaded) == expected
        assert loaded.collection_names() == sorted(content)
        for name in content:
            restored = loaded.get_collection(name).search_index(build=False)
            assert restored is not None
            fresh = database.get_collection(name).search_index()
            assert restored.to_dict() == fresh.to_dict()
        # a second save of what was loaded writes the very same files
        with tempfile.TemporaryDirectory() as again:
            save_database(loaded, again, write_indexes=True)
            assert _store_names(again) == _store_names(root)
