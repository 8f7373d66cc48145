"""Named collections of XML documents, Xindice style.

A collection stores documents under string keys, enforces a per-document
size cap (Xindice's "5MB maximum data size limitation" shapes the paper's
Section 6 experiments — we default to the same 5 MB and make it
configurable), and runs XPath queries over all or one of its documents.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import CollectionError, DocumentTooLargeError
from ..guard import ResourceGuard
from .columnar import DocumentColumns
from .index import CollectionSearchIndex
from .indexes import CollectionIndex, DocumentIndex
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
        self._index = CollectionIndex()
        #: Run unguarded XPath scans through compiled columnar matchers
        #: when the query supports them (ablatable; results identical).
        self.use_columnar = True
        #: Lazily built per-document columnar arrays, keyed by document
        #: key; each entry remembers the root it was built from so a
        #: replaced document can never serve stale columns.
        self._columns: Dict[str, Tuple[XmlNode, DocumentColumns]] = {}
        #: ``(generation, {id(root): key})`` — lazy reverse lookup from a
        #: document root object to its key, rebuilt when the generation
        #: moves (see :meth:`columns_for_root`).
        self._root_keys: Optional[Tuple[int, Dict[int, str]]] = None
        #: Collection-wide term/path search index (see repro.xmldb.index),
        #: built lazily on first use or attached from a persisted file;
        #: maintained incrementally once present.
        self._search_index: Optional[CollectionSearchIndex] = None
        #: Monotonic change counter, bumped on every document mutation.
        #: Snapshot consumers (the serving layer's worker pools) compare
        #: generations to detect that a snapshot went stale.
        self.generation = 0
        #: Ring of recent mutations: ``(generation, op, key, removed_id,
        #: added_id)`` with ``op`` one of add/replace/remove and the ids
        #: the ``id()`` of the outgoing/incoming root (None when absent).
        #: :meth:`changes_since` replays it so snapshot refreshes ship
        #: deltas instead of the whole collection, and
        #: :meth:`columns_for_root` patches its reverse map instead of
        #: rebuilding it per mutation.
        self._changelog: Deque[Tuple[int, str, str, Optional[int], Optional[int]]] = (
            deque(maxlen=CHANGELOG_CAPACITY)
        )

    # -- document management ---------------------------------------------------

    def add_document(self, key: str, document: "XmlNode | str") -> XmlNode:
        """Store a document under ``key``.

        Accepts a parsed tree or raw XML text.  Raises
        :class:`DocumentTooLargeError` if the serialised document exceeds
        the configured cap and :class:`CollectionError` on duplicate keys.
        """
        if key in self._documents:
            raise CollectionError(
                f"collection {self.name!r} already has a document {key!r}"
            )
        return self._store(key, document, "add", None)

    def _store(
        self,
        key: str,
        document: "XmlNode | str",
        op: str,
        removed_id: Optional[int],
    ) -> XmlNode:
        if isinstance(document, str):
            root = parse_document(document)
        else:
            root = document.renumber()
        size = document_bytes(root)
        if size > self.max_document_bytes:
            raise DocumentTooLargeError(size, self.max_document_bytes)
        self._documents[key] = root
        self.generation += 1
        self._changelog.append((self.generation, op, key, removed_id, id(root)))
        if self._search_index is not None:
            self._search_index.add_document(key, root)
        return root

    def replace_document(self, key: str, document: "XmlNode | str") -> XmlNode:
        """Overwrite (or create) the document under ``key``."""
        if key in self._documents:
            root = self._documents[key]
            self._index.invalidate(root)
            self._columns.pop(key, None)
            if self._search_index is not None:
                self._search_index.remove_document(key, root)
            del self._documents[key]
            return self._store(key, document, "replace", id(root))
        return self.add_document(key, document)

    def remove_document(self, key: str) -> None:
        try:
            root = self._documents.pop(key)
        except KeyError:
            raise CollectionError(
                f"collection {self.name!r} has no document {key!r}"
            ) from None
        self.generation += 1
        self._changelog.append((self.generation, "remove", key, id(root), None))
        self._index.invalidate(root)
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
            for gen, op, key, _removed, _added in self._changelog
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

    def total_nodes(self) -> int:
        return sum(root.size() for root in self._documents.values())

    # -- querying ----------------------------------------------------------------

    def index_for(self, root: XmlNode) -> DocumentIndex:
        """Per-document tag/value index (built lazily, cached)."""
        return self._index.index_for(root)

    def columns_for(self, key: str, root: XmlNode) -> DocumentColumns:
        """Columnar arrays for a stored document (built lazily, cached)."""
        entry = self._columns.get(key)
        if entry is not None and entry[0] is root:
            return entry[1]
        columns = DocumentColumns(root)
        self._columns[key] = (root, columns)
        return columns

    def columns_for_root(self, root: XmlNode) -> Optional[DocumentColumns]:
        """Columnar arrays for the stored document rooted at ``root``.

        ``root`` must be the *identical object* a current document is
        stored under — anything else (a copy, a replaced document, a
        foreign tree) returns None and the caller falls back to
        tree-walking verification.  The reverse id->key map is maintained
        copy-on-write: when the generation moves, the changelog entries
        since the map's generation are replayed onto it (cost proportional
        to the delta); only a truncated ring forces a full rebuild.
        """
        cached = self._root_keys
        if cached is not None and cached[0] != self.generation:
            mapping = cached[1]
            behind = cached[0]
            patched = False
            if self.generation - behind <= len(self._changelog):
                entries = [e for e in self._changelog if e[0] > behind]
                if len(entries) == self.generation - behind:
                    for _gen, _op, key, removed_id, added_id in entries:
                        if removed_id is not None:
                            mapping.pop(removed_id, None)
                        if added_id is not None:
                            mapping[added_id] = key
                    self._root_keys = cached = (self.generation, mapping)
                    patched = True
            if not patched:
                cached = None
        if cached is None:
            mapping = {id(node): key for key, node in self._documents.items()}
            self._root_keys = cached = (self.generation, mapping)
        key = cached[1].get(id(root))
        if key is None or self._documents.get(key) is not root:
            return None
        return self.columns_for(key, root)

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

    def xpath(
        self,
        query: "str | XPathQuery",
        guard: Optional[ResourceGuard] = None,
        document_keys: Optional["Iterable[str]"] = None,
    ) -> List[ResultNode]:
        """Run an XPath query over every document, concatenating results.

        ``document_keys`` restricts evaluation to a subset of documents
        (unknown keys are ignored); iteration stays in collection
        insertion order so a restricted run returns results in the same
        order as a full scan filtered to those documents.

        A :class:`~repro.guard.ResourceGuard` bounds the evaluation: its
        deadline and step budget apply inside the XPath engine, and its
        result cap is checked as results accumulate across documents.
        """
        compiled = query if isinstance(query, XPathQuery) else XPathQuery(query)
        wanted = None if document_keys is None else set(document_keys)
        # The columnar fast path never ticks a guard, so a guarded scan
        # always runs the (tick-accurate) AST engine.
        matcher = (
            compiled.columnar_matcher()
            if guard is None and self.use_columnar
            else None
        )
        results: List[ResultNode] = []
        for key, root in self._documents.items():
            if wanted is not None and key not in wanted:
                continue
            if matcher is not None:
                results.extend(matcher(self.columns_for(key, root)))
            else:
                results.extend(compiled.select(root, guard=guard))
            if guard is not None:
                guard.check_results(len(results), f"query over {self.name!r}")
        return results

    def xpath_rows(
        self,
        query: "str | XPathQuery",
        document_keys: Optional["Iterable[str]"] = None,
    ) -> Optional[List[Tuple[DocumentColumns, int]]]:
        """Columnar ``(columns, row)`` results of an unguarded query, or None.

        Returns None when the query falls outside the columnar subset or
        :attr:`use_columnar` is off — the caller must then run
        :meth:`xpath` and resolve nodes itself.  When supported, the
        returned pairs cover exactly the node sequence :meth:`xpath`
        yields (same documents, same order): ``columns.nodes[row]`` is
        that node.  Never ticks a guard, hence unguarded-only (mirrors
        the columnar-matcher rule in :meth:`xpath`).
        """
        if not self.use_columnar:
            return None
        compiled = query if isinstance(query, XPathQuery) else XPathQuery(query)
        rows_fn = compiled.columnar_rows()
        if rows_fn is None:
            return None
        wanted = None if document_keys is None else set(document_keys)
        pairs: List[Tuple[DocumentColumns, int]] = []
        append = pairs.append
        column_cache = self._columns
        for key, root in self._documents.items():
            if wanted is not None and key not in wanted:
                continue
            entry = column_cache.get(key)
            if entry is not None and entry[0] is root:
                cols = entry[1]
            else:
                cols = self.columns_for(key, root)
            rows = rows_fn(cols)
            if rows:
                if len(rows) == 1:
                    append((cols, rows[0]))
                else:
                    pairs.extend((cols, row) for row in rows)
        return pairs

    def xpath_document(
        self,
        key: str,
        query: "str | XPathQuery",
        guard: Optional[ResourceGuard] = None,
    ) -> List[ResultNode]:
        """Run an XPath query over a single document."""
        compiled = query if isinstance(query, XPathQuery) else XPathQuery(query)
        root = self.get_document(key)
        if guard is None and self.use_columnar:
            matcher = compiled.columnar_matcher()
            if matcher is not None:
                return list(matcher(self.columns_for(key, root)))
        return compiled.select(root, guard=guard)

    def __repr__(self) -> str:
        return f"Collection({self.name!r}, {len(self)} documents)"
