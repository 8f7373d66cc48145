"""The database facade: named collections.

Plays the role Apache Xindice plays in the paper's architecture (Figure 8).
The production executor fetches candidate rows from each
:class:`~repro.xmldb.collection.Collection` directly
(:meth:`~repro.xmldb.collection.Collection.fetch`); the reference
executor, the paper's Section 6 pipeline, runs its generated XPath
with :class:`~repro.xmldb.xpath.XPathQuery` over
``collection.documents()``; the engine reads only that grammar.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..errors import CollectionError
from .collection import XINDICE_DOCUMENT_LIMIT, Collection


class Database:
    """A set of named collections."""

    def __init__(self, max_document_bytes: int = XINDICE_DOCUMENT_LIMIT) -> None:
        self.max_document_bytes = max_document_bytes
        self._collections: Dict[str, Collection] = {}
        #: Set by :func:`repro.xmldb.storage.load_database` when the
        #: database was salvaged from a damaged directory.
        self.recovery_report = None

    # -- collection management --------------------------------------------------

    def create_collection(self, name: str) -> Collection:
        if name in self._collections:
            raise CollectionError(f"collection {name!r} already exists")
        collection = Collection(name, self.max_document_bytes)
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionError(f"no collection named {name!r}") from None

    def drop_collection(self, name: str) -> None:
        if name not in self._collections:
            raise CollectionError(f"no collection named {name!r}")
        del self._collections[name]

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def collections(self) -> Iterator[Collection]:
        return iter(self._collections.values())

    def collection_names(self) -> List[str]:
        return list(self._collections)

    # -- document state -----------------------------------------------------------

    def generation_signature(self) -> Tuple[Tuple[str, int], ...]:
        """A comparable fingerprint of the database's document state.

        ``((collection name, generation), ...)`` sorted by name: equal
        signatures mean no collection was created, dropped or mutated in
        between.  The serving layer uses this to invalidate worker-pool
        snapshots (see :class:`~repro.serving.snapshot.SystemSnapshot`).
        """
        return tuple(
            (name, self._collections[name].generation)
            for name in sorted(self._collections)
        )

    def total_bytes(self) -> int:
        return sum(c.total_bytes() for c in self._collections.values())

    def __repr__(self) -> str:
        inventory = ", ".join(
            f"{name}({len(collection)})"
            for name, collection in self._collections.items()
        )
        return f"Database({inventory})"
