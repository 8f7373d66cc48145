"""Persistent, incrementally-maintained search indexes over a collection.

Two content-addressed structures back index-driven candidate pruning in
the query executor (see :mod:`repro.core.planner`):

* an **inverted term index** mapping text values to
  ``(document, node-path)`` postings, and
* a **structural tag-path index** mapping root-to-leaf tag paths to the
  documents containing them (with derived tag / parent-child /
  ancestor-descendant occurrence maps).

:class:`CollectionSearchIndex` combines both for one collection;
:mod:`repro.xmldb.index.store` persists it next to the saved store,
checksummed and keyed by the digest of the collection's segment so a stale or
corrupt index file can only cause a rebuild, never a wrong answer.
"""

from .postings import CollectionSearchIndex
from .store import (
    INDEX_DIR,
    index_file_status,
    index_path,
    save_collection_index,
)

__all__ = [
    "CollectionSearchIndex",
    "INDEX_DIR",
    "index_file_status",
    "index_path",
    "save_collection_index",
]
