"""The in-memory search index structures: term postings + tag paths.

Values are indexed **verbatim** (including the empty string): the
verification phase compares ``node.text`` with raw string equality, so
any normalisation here would let the planner prune a document the
verifier would have accepted.  Ingest-time whitespace stripping (the
parser stores stripped character data) is the only normalisation.

Node paths are root-to-node tag sequences joined with ``/``.  The last
path segment is the carrying node's tag, which is what the planner's
tag-restricted probes filter on.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ...guard import ResourceGuard, paced
from ...obs.metrics import REGISTRY as METRICS
from ..model import XmlNode

#: Serialisation format of :meth:`CollectionSearchIndex.to_dict`.
INDEX_FORMAT = 1

PathSet = Set[str]
Postings = Dict[str, Dict[str, Tuple[str, ...]]]
#: One structural probe: ``(kind, entries)`` with kind ``"tag"``, ``"pc"``
#: or ``"ad"`` — a document passes when it carries any of the entries.
StructureProbe = Tuple[str, FrozenSet]

#: The probe-memo atom every write touches (entries any document changes).
_EVERY_WRITE = ("*",)
#: The atom every structural intersection also depends on: a write that
#: empties the index, or fills an empty one, changes them all.
_STRUCTURES = ("structure",)
#: Writes the probe memo remembers; an entry last read before the oldest
#: of them is recomputed on its next read instead of patched.
WRITE_LOG_SIZE = 64


class _Write(NamedTuple):
    """One document's arrival or departure, as the probe memo replays it."""

    version: int
    key: str
    added: bool
    #: The document's text values -> node paths carrying them.
    term_paths: Dict[str, "PathSet"]
    #: ``"tag"`` / ``"pc"`` / ``"ad"`` -> the tags and pairs it carries.
    carried: Dict[str, Set]
    #: Every memo atom the document carries (see :func:`_memo_atoms`).
    atoms: FrozenSet[Hashable]
    #: A removal that left the index with no documents.
    emptied: bool


def _node_tag(path: str) -> str:
    """The carrying node's tag — the last segment of a term's node path
    (a trailing ``/@x`` segment is an element tagged ``@x``: XML
    attributes are not indexed)."""
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
        #: root-to-leaf tag path -> doc keys containing it
        self._paths: Dict[str, Set[str]] = {}
        self._documents: Set[str] = set()
        # Derived occurrence maps (rebuilt from ``_paths`` on restore):
        self._tag_docs: Dict[str, Set[str]] = {}
        self._pc_docs: Dict[Tuple[str, str], Set[str]] = {}
        self._ad_docs: Dict[Tuple[str, str], Set[str]] = {}
        # Memo for repeated probes (the plan-cache workload re-runs the
        # same lookups every query): key -> (version, result).  A write
        # bumps ``_version`` and is logged in ``_writes``; an entry read
        # at an older version replays the logged writes that touch it
        # (:meth:`_cached`).  Cached results are shared with callers and
        # must stay read-only.
        self._probe_cache: Dict[Tuple, Tuple[int, object]] = {}
        self._version = 0
        self._writes: Deque[_Write] = deque(maxlen=WRITE_LOG_SIZE)

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _contributions(
        root: XmlNode, guard: Optional[ResourceGuard] = None
    ) -> Tuple[Dict[str, PathSet], Set[str]]:
        """(term -> paths, root-to-leaf paths)."""
        term_paths: Dict[str, PathSet] = {}
        leaf_paths: Set[str] = set()
        for node, path in paced(root.iter_with_paths(), guard, "search index build"):
            joined = "/".join(path)
            term_paths.setdefault(node.text, set()).add(joined)
            if not node.children:
                leaf_paths.add(joined)
        return term_paths, leaf_paths

    def _derived_entries(self, path: str) -> Tuple[List[str], List[Tuple[str, str]], List[Tuple[str, str]]]:
        tags = path.split("/")
        pc = [(tags[i], tags[i + 1]) for i in range(len(tags) - 1)]
        ad = [
            (tags[i], tags[j])
            for i in range(len(tags))
            for j in range(i + 1, len(tags))
        ]
        return tags, pc, ad

    def _carried(self, leaf_paths: Iterable[str]) -> Dict[str, Set]:
        """``"tag"`` / ``"pc"`` / ``"ad"`` -> the tags, parent-child and
        ancestor-descendant tag pairs along ``leaf_paths``."""
        carried: Dict[str, Set] = {"tag": set(), "pc": set(), "ad": set()}
        for path in leaf_paths:
            tags, pc, ad = self._derived_entries(path)
            carried["tag"].update(tags)
            carried["pc"].update(pc)
            carried["ad"].update(ad)
        return carried

    def _occurrences(self) -> Dict[str, Dict]:
        return {"tag": self._tag_docs, "pc": self._pc_docs, "ad": self._ad_docs}

    def add_document(
        self, key: str, root: XmlNode, guard: Optional[ResourceGuard] = None
    ) -> None:
        """Index ``key``'s tree; a lazy build passes its query's ``guard``,
        whose deadline the walks check (:func:`~repro.guard.paced`)."""
        if key in self._documents:
            self.remove_document_by_key(key)
        term_paths, leaf_paths = self._contributions(root, guard)
        for value, paths in paced(term_paths.items(), guard, "search index build"):
            self._terms.setdefault(value, {})[key] = tuple(sorted(paths))
        for path in leaf_paths:
            self._paths.setdefault(path, set()).add(key)
        carried = self._carried(leaf_paths)
        occurrences = self._occurrences()
        for kind, entries in carried.items():
            for entry in entries:
                occurrences[kind].setdefault(entry, set()).add(key)
        self._documents.add(key)
        self._patch_probe_cache(key, term_paths, carried, added=True)

    def remove_document(self, key: str, root: XmlNode) -> None:
        """Remove ``key``'s contributions, recomputed from its stored tree."""
        if key not in self._documents:
            return
        term_paths, leaf_paths = self._contributions(root)
        for value in term_paths:
            self._drop_posting(self._terms, value, key)
        for path in leaf_paths:
            self._discard(self._paths, path, key)
        carried = self._carried(leaf_paths)
        occurrences = self._occurrences()
        for kind, entries in carried.items():
            for entry in entries:
                self._discard(occurrences[kind], entry, key)
        self._documents.discard(key)
        self._patch_probe_cache(key, term_paths, carried, added=False)

    def _patch_probe_cache(
        self,
        key: str,
        term_paths: Dict[str, PathSet],
        carried: Dict[str, Set],
        added: bool,
    ) -> None:
        """Carry the probe memo across one document's arrival or departure.

        Nothing is recomputed here: the write is logged, and each memo
        entry is patched on its next read (:meth:`_cached`), so a write
        costs the document's terms and paths, and an entry nobody reads
        again costs nothing.  With an empty memo there is nothing to
        patch and nothing is logged.
        """
        self._version += 1
        if not self._probe_cache:
            return
        atoms: Set[Hashable] = {_EVERY_WRITE}
        if len(self._documents) == (1 if added else 0):
            atoms.add(_STRUCTURES)
        atoms.update(("value", value) for value in term_paths)
        for kind, entries in carried.items():
            atoms.update((kind, entry) for entry in entries)
        self._writes.append(
            _Write(
                self._version, key, added, term_paths, carried,
                frozenset(atoms), not self._documents,
            )
        )

    def _cached(self, key: Tuple):
        """The memoised result under ``key``, brought up to date, or None.

        An entry changes only when a write's document carries its value,
        one of its tags or tag pairs (:func:`_memo_atoms`), so only those
        logged writes are replayed on it (:func:`_patched_entry`), each
        giving a new object: a result handed out earlier keeps describing
        the index as it was.  An entry older than the log, or one a
        replay cannot patch, is dropped and recomputed by the caller.
        """
        entry = self._probe_cache.get(key)
        if entry is None:
            return None
        version, result = entry
        if version == self._version:
            return result
        writes = self._writes
        if not writes or writes[0].version > version + 1:
            del self._probe_cache[key]
            return None
        atoms = _memo_atoms(key)
        for write in writes:
            if write.version <= version or write.atoms.isdisjoint(atoms):
                continue
            result = _patched_entry(key, result, write)
            if result is None:
                del self._probe_cache[key]
                return None
        self._probe_cache[key] = (self._version, result)
        return result

    def remove_document_by_key(self, key: str) -> None:
        """Remove ``key`` everywhere (full sweep; used on re-add only)."""
        for value in [v for v, entry in self._terms.items() if key in entry]:
            self._drop_posting(self._terms, value, key)
        for mapping in (self._paths, self._tag_docs, self._pc_docs, self._ad_docs):
            for entry_key in [k for k, docs in mapping.items() if key in docs]:
                self._discard(mapping, entry_key, key)
        self._documents.discard(key)
        self._clear_memo()

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
        cache[key] = (self._version, result)
        return result

    def _clear_memo(self) -> None:
        self._probe_cache.clear()
        self._writes.clear()

    def docs_with_term(
        self, value: str, tags: Optional[FrozenSet[str]] = None
    ) -> FrozenSet[str]:
        """Documents containing a node with exactly this text (tag-filtered).

        The returned set is memoised and shared — treat it as read-only.
        """
        key = ("term", value, tags)
        cached = self._cached(key)
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
        cached = self._cached(key)
        if cached is not None:
            return cached
        docs: Set[str] = set()
        for entry in entries:
            docs |= mapping.get(entry, set())
        return self._memo(key, frozenset(docs))

    def structure(
        self, probes: Tuple[StructureProbe, ...]
    ) -> Tuple[FrozenSet[str], int, bool]:
        """(documents, probes run, memo hit) of a structural intersection.

        Every indexed document, intersected with each probe's union in
        turn; the walk stops at the first empty intersection, so fewer
        probes than given may run.  Memoised under the probes and patched
        by writes like the unions it is made of.
        """
        key = ("structure", probes)
        cached = self._cached(key)
        if cached is not None:
            return (*cached, True)  # type: ignore[misc]
        lookups = {
            "tag": self.docs_with_any_tag,
            "pc": self.docs_with_pc_pair,
            "ad": self.docs_with_ad_pair,
        }
        docs = self.documents
        ran = 0
        for kind, entries in probes:
            if not docs:
                break
            ran += 1
            docs = docs & lookups[kind](entries)
        self._memo(key, (docs, ran))
        return docs, ran, False

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
        cached = self._cached(key)
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
            "postings": sum(len(entry) for entry in self._terms.values()),
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
        for value, entry in dict(payload.get("terms", {})).items():  # type: ignore[arg-type]
            index._terms[str(value)] = {
                str(doc): tuple(str(p) for p in paths)
                for doc, paths in dict(entry).items()
            }
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


def _patched_entry(cache_key: Tuple, value: object, write: _Write) -> object:
    """One probe-memo entry after ``write`` (None: recompute it instead)."""
    key, added = write.key, write.added

    def moved(docs: FrozenSet[str]) -> FrozenSet[str]:
        return docs | {key} if added else docs - {key}

    def holds(tags: Optional[FrozenSet[str]], paths: PathSet) -> bool:
        return tags is None or any(_node_tag(path) in tags for path in paths)

    kind = cache_key[0]
    if kind == "term":
        paths = write.term_paths.get(cache_key[1])
        return moved(value) if paths and holds(cache_key[2], paths) else value  # type: ignore[arg-type]
    if kind == "terms":
        tags = cache_key[1]
        mapping = dict(value)  # type: ignore[call-overload]
        for term, paths in write.term_paths.items():
            if holds(tags, paths):
                docs = moved(mapping.get(term, frozenset()))
                if docs:
                    mapping[term] = docs
                else:
                    mapping.pop(term, None)
        return mapping
    if kind == "structure":
        probes = cache_key[1]
        docs, ran = value  # type: ignore[misc]
        passes = [
            not entries.isdisjoint(write.carried[probe]) for probe, entries in probes
        ]
        if not added:
            if write.emptied:
                return (frozenset(), 0)
            if passes and not passes[0]:
                return value  # in no intersection: only the start set shrank
            if key in docs and len(docs) > 1:
                return (docs - {key}, ran)
            return None  # the intersection it left may now stop earlier
        if ran == len(probes):
            return (docs | {key}, ran) if all(passes) else value
        if not all(passes[:ran]):
            return value
        # It stopped on an empty intersection the new document now
        # passes: carry on with that document alone.
        while ran < len(probes) and passes[ran]:
            ran += 1
        if ran < len(probes):
            return (frozenset(), ran + 1)
        return (frozenset({key}), ran)
    # A tag / pc / ad union: the write carries one of its entries.
    return moved(value)  # type: ignore[arg-type]


def _memo_atoms(key: Tuple) -> List[Hashable]:
    """What a document must carry for a write to change memo entry ``key``.

    A term entry its value; a union one of its entries; a ``("terms",
    tags)`` mapping a node under one of the tags (every node carries a
    text, possibly empty); a structural intersection one entry of its
    first probe, since a document failing that probe is in none of the
    intersections (or a write that empties or fills the index:
    ``_STRUCTURES``).  An entry with no tags or no probes is changed by
    every write.
    """
    kind = key[0]
    if kind == "term":
        return [("value", key[1])]
    if kind == "terms":
        tags = key[1]
        return [_EVERY_WRITE] if tags is None else [("tag", tag) for tag in tags]
    if kind == "structure":
        probes = key[1]
        if not probes:
            return [_STRUCTURES, _EVERY_WRITE]
        first, entries = probes[0]
        return [_STRUCTURES] + [(first, entry) for entry in entries]
    return [(kind, entry) for entry in key[1]]
