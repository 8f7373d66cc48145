"""Named collections of XML documents, Xindice style.

A collection stores documents under string keys, enforces a per-document
size cap (Xindice's "5MB maximum data size limitation" shapes the paper's
Section 6 experiments — we default to the same 5 MB and make it
configurable), and runs XPath queries over all or one of its documents.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import CollectionError, DocumentTooLargeError, XmlDbError
from ..guard import CHECK_INTERVAL, ResourceGuard
from .columnar import DocumentColumns
from .index import CollectionSearchIndex
from .model import XmlNode
from .parser import parse_document
from .serializer import document_bytes
from .xpath import XPathQuery
from .xpath.engine import ResultNode

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

    def columns_for(self, key: str, root: XmlNode) -> DocumentColumns:
        """Columnar arrays for a stored document (built lazily, cached)."""
        entry = self._columns.get(key)
        if entry is not None and entry[0] is root:
            return entry[1]
        columns = DocumentColumns(root)
        self._columns[key] = (root, columns)
        return columns

    def search_index(self, build: bool = True) -> Optional[CollectionSearchIndex]:
        """The collection-wide search index, built on first request.

        With ``build=False``, returns whatever is already in memory
        (possibly None) without paying for construction.
        """
        if self._search_index is None and build:
            index = CollectionSearchIndex()
            for key, root in self._documents.items():
                index.add_document(key, root)
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
    ) -> "Iterable[Tuple[str, XmlNode]]":
        """The documents a query covers, in collection insertion order.

        A subset costs what it holds: its keys are sorted by insertion
        ordinal.  Past a quarter of the collection one ordered pass over
        every document is the cheaper way to the same list.
        """
        documents = self._documents
        if document_keys is None:
            return documents.items()
        wanted = set(document_keys)
        if 4 * len(wanted) > len(documents):
            return [item for item in documents.items() if item[0] in wanted]
        ordinals = self._ordinals
        return [
            (key, documents[key])
            for key in sorted(wanted & ordinals.keys(), key=ordinals.__getitem__)
        ]

    def fetch(
        self,
        rows_of: Callable[[DocumentColumns], Sequence[int]],
        guard: Optional[ResourceGuard] = None,
        document_keys: Optional["Iterable[str]"] = None,
    ) -> List[Tuple[DocumentColumns, int]]:
        """The query executor's candidate fetch: ``(columns, row)`` pairs.

        ``rows_of`` picks a document's candidate rows (ascending) from
        its cached columns; the pairs come per selected document, in
        collection insertion order (see :meth:`_selected`).  A guard is
        charged ``"xpath evaluation"`` one step per document plus one
        per row, a chunk per call, and its result cap is checked as rows
        accumulate.
        """
        pairs: List[Tuple[DocumentColumns, int]] = []
        append = pairs.append
        column_cache = self._columns
        cap = guard.max_results if guard is not None else None
        pending = 0
        for key, root in self._selected(document_keys):
            entry = column_cache.get(key)
            if entry is not None and entry[0] is root:
                cols = entry[1]
            else:
                cols = self.columns_for(key, root)
            rows = rows_of(cols)
            if rows:
                if len(rows) == 1:
                    append((cols, rows[0]))
                else:
                    pairs.extend((cols, row) for row in rows)
            if guard is not None:
                pending += 1 + len(rows)
                if pending >= CHECK_INTERVAL:
                    guard.tick_each(pending, "xpath evaluation")
                    pending = 0
                if cap is not None and len(pairs) > cap:
                    guard.check_results(len(pairs), f"query over {self.name!r}")
        if pending:
            guard.tick_each(pending, "xpath evaluation")
        return pairs

    def xpath(
        self,
        query: "str | XPathQuery",
        guard: Optional[ResourceGuard] = None,
    ) -> List[ResultNode]:
        """Run an XPath query over every document, concatenating results
        in collection insertion order.

        A :class:`~repro.guard.ResourceGuard` bounds the evaluation: the
        tree engine charges its deadline and step budget per evaluation
        step, and its result cap is checked as results accumulate across
        documents.
        """
        compiled = query if isinstance(query, XPathQuery) else XPathQuery(query)
        results: List[ResultNode] = []
        for root in self._documents.values():
            results.extend(compiled.select(root, guard=guard))
            if guard is not None:
                guard.check_results(len(results), f"query over {self.name!r}")
        return results

    def __repr__(self) -> str:
        return f"Collection({self.name!r}, {len(self)} documents)"
