"""Named collections of XML documents, Xindice style.

A collection stores documents under string keys, enforces a per-document
size cap (Xindice's "5MB maximum data size limitation" shapes the paper's
Section 6 experiments — we default to the same 5 MB and make it
configurable), and hands the query executor the candidate rows of its
documents (:meth:`Collection.fetch`).
"""

from __future__ import annotations

from collections import deque
from typing import (
    AbstractSet,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import CollectionError, DocumentTooLargeError, XmlDbError
from ..guard import CHECK_INTERVAL, ResourceGuard
from .columnar import DocumentColumns
from .index import CollectionSearchIndex
from .model import XmlNode
from .parser import parse_document
from .serializer import document_bytes

#: Apache Xindice's practical per-document limit, bytes.
XINDICE_DOCUMENT_LIMIT = 5 * 1024 * 1024

#: Mutations the changelog ring retains.  Deltas older than this force a
#: full snapshot refresh; sized for "live traffic" write rates (hundreds
#: of writes between two refreshes), not bulk loads.
CHANGELOG_CAPACITY = 512


class Collection:
    """An ordered mapping of document keys to XML trees."""

    def __init__(
        self,
        name: str,
        max_document_bytes: int = XINDICE_DOCUMENT_LIMIT,
    ) -> None:
        if not name:
            raise CollectionError("collection name must be non-empty")
        self.name = name
        self.max_document_bytes = max_document_bytes
        self._documents: Dict[str, XmlNode] = {}
        #: Key -> insertion ordinal, increasing in ``_documents``' order
        #: (a replace re-inserts its key, so it draws a fresh ordinal):
        #: a pruned fetch sorts its few keys by it instead of filtering
        #: every document (:meth:`_selected`).
        self._ordinals: Dict[str, int] = {}
        self._next_ordinal = 0
        #: Lazily built per-document columnar arrays, keyed by document
        #: key; each entry remembers the root it was built from so a
        #: replaced document can never serve stale columns.
        self._columns: Dict[str, Tuple[XmlNode, DocumentColumns]] = {}
        #: Collection-wide term/path search index (see repro.xmldb.index),
        #: built lazily on first use or attached from a persisted file;
        #: maintained incrementally once present.
        self._search_index: Optional[CollectionSearchIndex] = None
        #: Monotonic change counter, bumped on every document mutation.
        #: Snapshot consumers (the serving layer's worker pools) compare
        #: generations to detect that a snapshot went stale.
        self.generation = 0
        #: Ring of recent mutations: ``(generation, op, key)`` with ``op``
        #: one of add/replace/remove.  :meth:`changes_since` replays it
        #: so snapshot refreshes ship deltas instead of the whole
        #: collection.
        self._changelog: Deque[Tuple[int, str, str]] = deque(
            maxlen=CHANGELOG_CAPACITY
        )

    # -- document management ---------------------------------------------------

    def add_document(
        self,
        key: str,
        document: "XmlNode | str",
        serialized_bytes: Optional[int] = None,
    ) -> XmlNode:
        """Store a document under ``key``.

        Accepts a parsed tree or raw XML text.  Raises
        :class:`DocumentTooLargeError` if the serialised document exceeds
        the configured cap and :class:`CollectionError` on duplicate keys.
        ``serialized_bytes`` is the compact serialisation's byte length
        when the caller already knows it (the store loader does).
        """
        if key in self._documents:
            raise CollectionError(
                f"collection {self.name!r} already has a document {key!r}"
            )
        return self._store(key, document, "add", serialized_bytes)

    def _store(
        self,
        key: str,
        document: "XmlNode | str",
        op: str,
        serialized_bytes: Optional[int] = None,
    ) -> XmlNode:
        if isinstance(document, str):
            root = parse_document(document)
        else:
            root = document.renumber()
            # The XML reader refuses such names; a programmatic tree must
            # be held to the same rule, because the search index keys tag
            # paths by "/"-joined strings (it would mis-prune this
            # document) and the serializer would write XML that cannot
            # be loaded back.
            for node in root.iter():
                if "/" in node.tag:
                    raise XmlDbError(
                        f"document {key!r} has a tag containing '/': {node.tag!r}"
                    )
        size = serialized_bytes if serialized_bytes is not None else document_bytes(root)
        if size > self.max_document_bytes:
            raise DocumentTooLargeError(size, self.max_document_bytes)
        previous = self._documents.pop(key, None)
        if previous is not None:
            self._columns.pop(key, None)
            if self._search_index is not None:
                self._search_index.remove_document(key, previous)
        self._documents[key] = root
        self._ordinals[key] = self._next_ordinal
        self._next_ordinal += 1
        self.generation += 1
        self._changelog.append((self.generation, op, key))
        if self._search_index is not None:
            self._search_index.add_document(key, root)
        return root

    def replace_document(self, key: str, document: "XmlNode | str") -> XmlNode:
        """Overwrite (or create) the document under ``key``."""
        if key in self._documents:
            return self._store(key, document, "replace")
        return self.add_document(key, document)

    def remove_document(self, key: str) -> None:
        try:
            root = self._documents.pop(key)
        except KeyError:
            raise CollectionError(
                f"collection {self.name!r} has no document {key!r}"
            ) from None
        del self._ordinals[key]
        self.generation += 1
        self._changelog.append((self.generation, "remove", key))
        self._columns.pop(key, None)
        if self._search_index is not None:
            self._search_index.remove_document(key, root)

    def changes_since(self, generation: int) -> Optional[List[Tuple[str, str]]]:
        """Mutations after ``generation``, oldest first, or None.

        Returns ``(op, key)`` pairs — ``op`` one of ``add``, ``replace``,
        ``remove`` — covering every generation in ``(generation, current]``.
        Returns None when the ring no longer reaches back that far (or the
        asked-for generation is from another collection's history); the
        caller must then fall back to a full refresh.  Every mutation bumps
        the generation exactly once, so coverage is a simple count check.
        """
        if generation == self.generation:
            return []
        if generation > self.generation:
            return None
        changes = [
            (op, key)
            for gen, op, key in self._changelog
            if gen > generation
        ]
        if len(changes) != self.generation - generation:
            return None  # ring truncated: some mutations have been forgotten
        return changes

    def get_document(self, key: str) -> XmlNode:
        try:
            return self._documents[key]
        except KeyError:
            raise CollectionError(
                f"collection {self.name!r} has no document {key!r}"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def keys(self) -> Iterator[str]:
        return iter(self._documents)

    def documents(self) -> Iterator[Tuple[str, XmlNode]]:
        return iter(self._documents.items())

    def roots(self) -> List[XmlNode]:
        return list(self._documents.values())

    # -- statistics ----------------------------------------------------------

    def total_bytes(self) -> int:
        """Sum of compact-serialised document sizes (paper's data size)."""
        return sum(document_bytes(root) for root in self._documents.values())

    # -- querying ----------------------------------------------------------------

    def columns_for(
        self, key: str, root: XmlNode, guard: Optional[ResourceGuard] = None
    ) -> DocumentColumns:
        """Columnar arrays for a stored document (built lazily, cached).

        A build past ``guard``'s deadline raises and caches nothing.
        """
        entry = self._columns.get(key)
        if entry is not None and entry[0] is root:
            return entry[1]
        columns = DocumentColumns(root, guard)
        self._columns[key] = (root, columns)
        return columns

    def search_index(
        self, build: bool = True, guard: Optional[ResourceGuard] = None
    ) -> Optional[CollectionSearchIndex]:
        """The collection-wide search index, built on first request.

        With ``build=False``, returns whatever is already in memory
        (possibly None) without paying for construction.  A build past
        ``guard``'s deadline raises and keeps no index.
        """
        if self._search_index is None and build:
            index = CollectionSearchIndex()
            for key, root in self._documents.items():
                index.add_document(key, root, guard)
            self._search_index = index
        return self._search_index

    def attach_search_index(self, index: CollectionSearchIndex) -> None:
        """Adopt a prebuilt (e.g. loaded-from-disk) search index.

        The caller is responsible for having verified that the index
        matches the current documents — storage only attaches indexes
        whose content key matches the manifest's segment digest.
        """
        self._search_index = index

    def _selected(
        self, document_keys: Optional["Iterable[str]"]
    ) -> "Tuple[Iterable[Tuple[str, XmlNode]], Optional[AbstractSet[str]]]":
        """The documents a query covers, in collection insertion order:
        ``(items, wanted)``, where the caller skips an item whose key is
        not in ``wanted`` (None keeps every item).

        A subset costs what it holds: its keys are sorted by insertion
        ordinal.  Past a quarter of the collection one ordered pass over
        every document, skipping the unwanted ones as it goes, is the
        cheaper way to the same sequence.
        """
        documents = self._documents
        if document_keys is None:
            return documents.items(), None
        wanted = (
            document_keys
            if isinstance(document_keys, (set, frozenset))
            else set(document_keys)
        )
        if 4 * len(wanted) > len(documents):
            return documents.items(), wanted
        ordinals = self._ordinals
        return [
            (key, documents[key])
            for key in sorted(wanted & ordinals.keys(), key=ordinals.__getitem__)
        ], None

    def fetch(
        self,
        rows_of: Callable[[DocumentColumns], Sequence[int]],
        guard: Optional[ResourceGuard] = None,
        document_keys: Optional["Iterable[str]"] = None,
        booking: Optional[str] = None,
    ) -> List[Tuple[DocumentColumns, int]]:
        """The query executor's candidate fetch: ``(columns, row)`` pairs.

        ``rows_of`` picks a document's candidate rows (ascending) from
        its cached columns; the pairs come per selected document, in
        collection insertion order (see :meth:`_selected`).  ``booking``
        is an index-exact plan's shape: a document whose columns hold a
        passing booking record under it (:meth:`DocumentColumns.book`)
        contributes the record's root row — the one row ``rows_of``
        would pick — without calling ``rows_of``.  A guard is charged
        ``"xpath evaluation"`` one step per document plus one per row, a
        chunk per call, and its result cap is checked as rows accumulate.
        """
        pairs: List[Tuple[DocumentColumns, int]] = []
        append = pairs.append
        column_cache = self._columns
        cap = guard.max_results if guard is not None else None
        pending = 0
        items, wanted = self._selected(document_keys)
        for key, root in items:
            if wanted is not None and key not in wanted:
                continue
            entry = column_cache.get(key)
            if entry is not None and entry[0] is root:
                cols = entry[1]
            else:
                cols = self.columns_for(key, root, guard)
            record = cols.bookings.get(booking)
            if record is not None:
                append((cols, record[0]))
                found = 1
            else:
                rows = rows_of(cols)
                found = len(rows)
                if found == 1:
                    append((cols, rows[0]))
                elif found:
                    pairs.extend((cols, row) for row in rows)
            if guard is not None:
                pending += 1 + found
                if pending >= CHECK_INTERVAL:
                    guard.tick_each(pending, "xpath evaluation")
                    pending = 0
                if cap is not None and len(pairs) > cap:
                    guard.check_results(len(pairs), f"query over {self.name!r}")
        if pending:
            guard.tick_each(pending, "xpath evaluation")
        return pairs

    def __repr__(self) -> str:
        return f"Collection({self.name!r}, {len(self)} documents)"
