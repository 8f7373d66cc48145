"""The in-memory search index structures: term postings + tag paths.

Values are indexed **verbatim** (including the empty string): the
verification phase compares ``node.text`` with raw string equality, so
any normalisation here would let the planner prune a document the
verifier would have accepted.  Ingest-time whitespace stripping (the
parser stores stripped character data) is the only normalisation.

Node paths are root-to-node tag sequences joined with ``/``; attribute
postings append ``/@name``.  The last path segment is the carrying
node's tag, which is what the planner's tag-restricted probes filter on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ...obs.metrics import REGISTRY as METRICS
from ..model import XmlNode

#: Serialisation format of :meth:`CollectionSearchIndex.to_dict`.
INDEX_FORMAT = 1

PathSet = Set[str]
Postings = Dict[str, Dict[str, Tuple[str, ...]]]


def _node_tag(path: str) -> str:
    """The carrying node's tag — the last segment of a term's node path.

    Only term paths come here, so a trailing ``/@x`` segment is an
    element tagged ``@x`` (a tree may carry one), not an attribute.
    """
    return path.rsplit("/", 1)[-1]


class CollectionSearchIndex:
    """Inverted term postings + structural tag-path index for one collection.

    Maintained incrementally: :meth:`add_document` and
    :meth:`remove_document` keep every map exact as documents come and
    go, so an index built incrementally equals one rebuilt from scratch
    (asserted by the test suite).  ``remove_document`` must be handed the
    same tree that was added — contributions are recomputed from it.
    """

    def __init__(self) -> None:
        #: text value -> {doc key -> sorted node paths of carrying nodes}
        self._terms: Postings = {}
        #: attribute value -> {doc key -> sorted "path/@name" postings}
        self._attributes: Postings = {}
        #: root-to-leaf tag path -> doc keys containing it
        self._paths: Dict[str, Set[str]] = {}
        self._documents: Set[str] = set()
        # Derived occurrence maps (rebuilt from ``_paths`` on restore):
        self._tag_docs: Dict[str, Set[str]] = {}
        self._pc_docs: Dict[Tuple[str, str], Set[str]] = {}
        self._ad_docs: Dict[Tuple[str, str], Set[str]] = {}
        # Memo for repeated probes (the plan-cache workload re-runs the
        # same lookups every query).  A document mutation drops the
        # single-lookup entries and patches the ``("terms", tags)``
        # mappings — the one probe that walks every term — for just the
        # values the document carries (:meth:`_patch_probe_cache`).
        # Callers keep results derived from the index alone here too
        # (:meth:`memo_put`: the planner's structural intersection).
        # Cached values are shared with callers and must stay read-only.
        self._probe_cache: Dict[Tuple, object] = {}

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _contributions(
        root: XmlNode,
    ) -> Tuple[Dict[str, PathSet], Dict[str, PathSet], Set[str]]:
        """(term -> paths, attribute value -> paths, root-to-leaf paths)."""
        term_paths: Dict[str, PathSet] = {}
        attr_paths: Dict[str, PathSet] = {}
        leaf_paths: Set[str] = set()
        for node, path in root.iter_with_paths():
            joined = "/".join(path)
            term_paths.setdefault(node.text, set()).add(joined)
            for name, value in node.attributes.items():
                attr_paths.setdefault(value, set()).add(f"{joined}/@{name}")
            if not node.children:
                leaf_paths.add(joined)
        return term_paths, attr_paths, leaf_paths

    def _derived_entries(self, path: str) -> Tuple[List[str], List[Tuple[str, str]], List[Tuple[str, str]]]:
        tags = path.split("/")
        pc = [(tags[i], tags[i + 1]) for i in range(len(tags) - 1)]
        ad = [
            (tags[i], tags[j])
            for i in range(len(tags))
            for j in range(i + 1, len(tags))
        ]
        return tags, pc, ad

    def add_document(self, key: str, root: XmlNode) -> None:
        if key in self._documents:
            self.remove_document_by_key(key)
        term_paths, attr_paths, leaf_paths = self._contributions(root)
        for value, paths in term_paths.items():
            self._terms.setdefault(value, {})[key] = tuple(sorted(paths))
        for value, paths in attr_paths.items():
            self._attributes.setdefault(value, {})[key] = tuple(sorted(paths))
        for path in leaf_paths:
            self._paths.setdefault(path, set()).add(key)
            tags, pc, ad = self._derived_entries(path)
            for tag in tags:
                self._tag_docs.setdefault(tag, set()).add(key)
            for pair in pc:
                self._pc_docs.setdefault(pair, set()).add(key)
            for pair in ad:
                self._ad_docs.setdefault(pair, set()).add(key)
        self._documents.add(key)
        self._patch_probe_cache(key, term_paths, added=True)

    def remove_document(self, key: str, root: XmlNode) -> None:
        """Remove ``key``'s contributions, recomputed from its stored tree."""
        if key not in self._documents:
            return
        term_paths, attr_paths, leaf_paths = self._contributions(root)
        for value in term_paths:
            self._drop_posting(self._terms, value, key)
        for value in attr_paths:
            self._drop_posting(self._attributes, value, key)
        for path in leaf_paths:
            self._discard(self._paths, path, key)
            tags, pc, ad = self._derived_entries(path)
            for tag in tags:
                self._discard(self._tag_docs, tag, key)
            for pair in pc:
                self._discard(self._pc_docs, pair, key)
            for pair in ad:
                self._discard(self._ad_docs, pair, key)
        self._documents.discard(key)
        self._patch_probe_cache(key, term_paths, added=False)

    def _patch_probe_cache(
        self, key: str, term_paths: Dict[str, PathSet], added: bool
    ) -> None:
        """Carry the probe memo across one document's arrival or departure.

        Only :meth:`terms_with_tags` mappings survive: one the document
        touches is replaced by a copy in which just the document's own
        values gained or lost ``key`` (work proportional to the
        document's terms times the cached tag sets), so a mapping handed
        out earlier keeps describing the index as it was.  Every other
        entry is a single dictionary lookup to recompute and is dropped.
        """
        patched: Dict[Tuple, object] = {}
        for cache_key, mapping in self._probe_cache.items():
            if cache_key[0] != "terms":
                continue
            tags = cache_key[1]
            carried = [
                value
                for value, paths in term_paths.items()
                if tags is None or any(_node_tag(path) in tags for path in paths)
            ]
            if carried:
                mapping = dict(mapping)  # type: ignore[call-overload]
                for value in carried:
                    docs = mapping.get(value, frozenset())
                    docs = docs | {key} if added else docs - {key}
                    if docs:
                        mapping[value] = docs
                    else:
                        mapping.pop(value, None)
            patched[cache_key] = mapping
        self._probe_cache = patched

    def remove_document_by_key(self, key: str) -> None:
        """Remove ``key`` everywhere (full sweep; used on re-add only)."""
        for postings in (self._terms, self._attributes):
            for value in [v for v, entry in postings.items() if key in entry]:
                self._drop_posting(postings, value, key)
        for mapping in (self._paths, self._tag_docs, self._pc_docs, self._ad_docs):
            for entry_key in [k for k, docs in mapping.items() if key in docs]:
                self._discard(mapping, entry_key, key)
        self._documents.discard(key)
        self._probe_cache.clear()

    @staticmethod
    def _drop_posting(postings: Postings, value: str, key: str) -> None:
        entry = postings.get(value)
        if entry is None:
            return
        entry.pop(key, None)
        if not entry:
            del postings[value]

    @staticmethod
    def _discard(mapping: Dict, entry_key, doc_key: str) -> None:
        docs = mapping.get(entry_key)
        if docs is None:
            return
        docs.discard(doc_key)
        if not docs:
            del mapping[entry_key]

    # -- probes --------------------------------------------------------------

    @property
    def documents(self) -> FrozenSet[str]:
        return frozenset(self._documents)

    def __len__(self) -> int:
        """The number of indexed documents."""
        return len(self._documents)

    def term_postings(self, value: str) -> Mapping[str, Tuple[str, ...]]:
        """``{doc key -> node paths}`` for an exact text value (may be empty)."""
        return self._terms.get(value, {})

    def attribute_postings(self, value: str) -> Mapping[str, Tuple[str, ...]]:
        return self._attributes.get(value, {})

    #: Probe-memo capacity: storing past it evicts the oldest entry
    #: (counted as ``index.probe_memo.evictions``), so a long-lived
    #: worker's newest probes — its structural intersection after a
    #: write, say — are always memoised.
    _PROBE_CACHE_LIMIT = 1024

    def _memo(self, key: Tuple, result):
        cache = self._probe_cache
        if key not in cache and len(cache) >= self._PROBE_CACHE_LIMIT:
            del cache[next(iter(cache))]
            METRICS.counter("index.probe_memo.evictions").inc()
        cache[key] = result
        return result

    def memo_get(self, key: Tuple):
        """What a caller memoised under ``key`` (:meth:`memo_put`), or None."""
        return self._probe_cache.get(key)

    def memo_put(self, key: Tuple, result) -> None:
        """Memoise a caller's result derived from this index alone.

        It lives beside the index's own probe memo and, like every entry
        but the ``("terms", tags)`` mappings, is dropped by the next
        document mutation.  ``key[0]`` must not be ``"terms"``.
        """
        self._memo(key, result)

    def docs_with_term(
        self, value: str, tags: Optional[FrozenSet[str]] = None
    ) -> FrozenSet[str]:
        """Documents containing a node with exactly this text (tag-filtered).

        The returned set is memoised and shared — treat it as read-only.
        """
        key = ("term", value, tags)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        entry = self._terms.get(value)
        if not entry:
            result: FrozenSet[str] = frozenset()
        elif tags is None:
            result = frozenset(entry)
        else:
            result = frozenset(
                doc
                for doc, paths in entry.items()
                if any(_node_tag(path) in tags for path in paths)
            )
        return self._memo(key, result)

    def docs_with_any_tag(self, tags: Iterable[str]) -> FrozenSet[str]:
        return self._union_probe("tag", self._tag_docs, frozenset(tags))

    def docs_with_pc_pair(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> FrozenSet[str]:
        return self._union_probe("pc", self._pc_docs, frozenset(pairs))

    def docs_with_ad_pair(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> FrozenSet[str]:
        return self._union_probe("ad", self._ad_docs, frozenset(pairs))

    def _union_probe(self, kind: str, mapping: Dict, entries: FrozenSet):
        key = (kind, entries)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached
        docs: Set[str] = set()
        for entry in entries:
            docs |= mapping.get(entry, set())
        return self._memo(key, frozenset(docs))

    def terms_with_tags(
        self, tags: Optional[FrozenSet[str]] = None
    ) -> Dict[str, FrozenSet[str]]:
        """Every distinct text value (tag-filtered) with its document set.

        The planner walks this for probes that cannot be answered by
        exact lookup: the off-ontology tail of a ``~`` atom and
        cross-side similarity/equality pre-joins.  The returned mapping
        is memoised and shared — treat it as read-only.
        """
        key = ("terms", tags)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        result: Dict[str, FrozenSet[str]] = {}
        for value, entry in self._terms.items():
            if tags is None:
                result[value] = frozenset(entry)
                continue
            docs = frozenset(
                doc
                for doc, paths in entry.items()
                if any(_node_tag(path) in tags for path in paths)
            )
            if docs:
                result[value] = docs
        return self._memo(key, result)

    # -- statistics ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "documents": len(self._documents),
            "terms": len(self._terms),
            "attribute_terms": len(self._attributes),
            "postings": sum(len(entry) for entry in self._terms.values())
            + sum(len(entry) for entry in self._attributes.values()),
            "paths": len(self._paths),
        }

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A deterministic, JSON-serialisable rendering of the index."""
        return {
            "format": INDEX_FORMAT,
            "documents": sorted(self._documents),
            "terms": {
                value: {doc: list(paths) for doc, paths in sorted(entry.items())}
                for value, entry in sorted(self._terms.items())
            },
            "attributes": {
                value: {doc: list(paths) for doc, paths in sorted(entry.items())}
                for value, entry in sorted(self._attributes.items())
            },
            "paths": {
                path: sorted(docs) for path, docs in sorted(self._paths.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CollectionSearchIndex":
        if payload.get("format") != INDEX_FORMAT:
            raise ValueError(f"unsupported index format {payload.get('format')!r}")
        index = cls()
        index._documents = set(payload.get("documents", ()))  # type: ignore[arg-type]
        for attr, field in (("_terms", "terms"), ("_attributes", "attributes")):
            postings: Postings = {}
            for value, entry in dict(payload.get(field, {})).items():  # type: ignore[arg-type]
                postings[str(value)] = {
                    str(doc): tuple(str(p) for p in paths)
                    for doc, paths in dict(entry).items()
                }
            setattr(index, attr, postings)
        for path, docs in dict(payload.get("paths", {})).items():  # type: ignore[arg-type]
            doc_set = {str(doc) for doc in docs}
            index._paths[str(path)] = doc_set
            tags, pc, ad = index._derived_entries(str(path))
            for doc in doc_set:
                for tag in tags:
                    index._tag_docs.setdefault(tag, set()).add(doc)
                for pair in pc:
                    index._pc_docs.setdefault(pair, set()).add(doc)
                for pair in ad:
                    index._ad_docs.setdefault(pair, set()).add(doc)
        return index

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"CollectionSearchIndex({stats['documents']} documents, "
            f"{stats['terms']} terms, {stats['paths']} paths)"
        )
