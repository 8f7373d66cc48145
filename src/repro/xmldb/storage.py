"""On-disk persistence for the XML database, crash-safe.

Xindice stores collections in a filesystem-backed repository; this module
gives the in-memory substitute the same capability — ``save_database``
writes one *segment* file per collection plus a manifest,
``load_database`` reconstructs the database from them.  A segment is
line-oriented so it stays inspectable with ``head``/``grep``: one JSON
record ``{"key", "sha256", "xml"}`` per document, in key order.

    root/
      manifest.json              {"format": 3, "collections": {...}, ...}
      <collection>.<sha12>.seg   one record per line
      .indexes/<collection>.<sha12>.idx
      .quarantine/               damaged lines copied aside during recovery
        <collection>/<segment>.<sha12>.lines

Durability (format 3, see ``docs/PERSISTENCE.md``):

* every file is written via write-to-temp + fsync + atomic ``os.replace``
  (:mod:`repro.ioutils`) and named after its content, the manifest last,
  superseded files unlinked only once the manifest is durable — a crash
  mid-save leaves either the previous consistent state or the new one,
  never a torn file, on a first save and on a re-save alike;
* a save costs a number of fsyncs that does not depend on the number of
  documents;
* every record carries a SHA-256 over its key and XML and the manifest
  one over each whole segment, so silent corruption is detected at load
  time and pinned to the record it hit;
* :func:`load_database` with ``on_corruption="quarantine"`` never dies on
  a damaged store: bad lines are copied under ``root/.quarantine/`` and a
  structured :class:`RecoveryReport` lists what was lost.

Stores of format 1 or 2 (one ``.xml`` file per document) are refused with
an :class:`~repro.errors.XmlDbError` naming the format found.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import StorageCorruptionError, XmlDbError
from ..ioutils import (
    atomic_write_bytes,
    atomic_write_text,
    file_holds,
    fsync_directory,
    sha256_bytes,
    sha256_text,
)
from ..obs.metrics import REGISTRY as METRICS
from ..obs.trace import current_tracer
from .collection import Collection
from .database import Database
from .index import (
    INDEX_DIR,
    index_file_status,
    index_path,
    save_collection_index,
)
from .serializer import serialize

MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = ".quarantine"
FORMAT_VERSION = 3
_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]")
#: ``<sanitised collection name>.<first 12 hex of the segment's sha256>.seg``,
#: and the same stem with ``.idx`` for the segment's search index.
_CONTENT_NAMED = re.compile(r"(.+)\.([0-9a-f]{12})\.(seg|idx)")
#: The key of a record line whose JSON no longer parses (best effort).
_RAW_KEY = re.compile(rb'\{"key":("(?:[^"\\]|\\.)*")')


def _check_inside(root_dir: str, part: str) -> None:
    """Refuse a manifest-supplied file name that is anything but a plain
    name resolving inside ``root_dir`` (``..``, a separator, an absolute
    path, a symlink pointing out)."""
    base = os.path.realpath(root_dir)
    if (
        part in ("", ".", "..")
        or part != os.path.basename(part)
        or "/" in part
        or "\\" in part
        or not os.path.realpath(os.path.join(base, part)).startswith(base + os.sep)
    ):
        raise XmlDbError(
            f"manifest names unsafe path {part!r}; refusing to read outside "
            f"the database root {root_dir!r}"
        )


def _stem(collection_name: str) -> str:
    """File-name stem of a collection: its name when that is a safe file
    name, else sanitised plus a digest of the real name, so two
    collections never share a file."""
    safe = _SAFE_COMPONENT.sub("_", collection_name)
    if safe == collection_name:
        return safe
    return f"{safe}-{sha256_text(collection_name)[:8]}"


def _record_sha(key: str, xml: str) -> str:
    return sha256_text(f"{key}\n{xml}")


def _write_bill() -> Tuple[int, int]:
    """(bytes written, fsyncs) by this process so far (ioutils counters)."""
    names = ("storage.bytes_written", "storage.fsyncs")
    return tuple(getattr(METRICS.get(name), "value", 0) for name in names)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


def save_database(
    database: Database,
    root_dir: str,
    write_indexes: Optional[bool] = None,
) -> None:
    """Write every collection under ``root_dir``, atomically.

    The directory is created if missing.  Each collection becomes one
    content-named segment (documents in lexicographic key order), written
    first, then any search-index files, the manifest last; segments and
    indexes the new manifest no longer names are unlinked after it is
    durable.  So the store always has a manifest describing fully-written
    files, no matter where a crash lands, and foreign files are left
    alone.  A segment or index file already present under its content
    name is kept, not rewritten, when its bytes hash to what this save
    would write; so re-saving an unchanged collection costs no fsync.

    ``write_indexes`` controls search-index persistence: ``None``
    (default) persists whatever indexes are already built in memory,
    ``True`` builds and persists an index for every collection, ``False``
    writes none.  Each index file is content-keyed to the digest of its
    segment, so it can never be adopted for other documents.
    """
    started = time.perf_counter()
    bytes_before, fsyncs_before = _write_bill()
    documents_written = 0
    os.makedirs(root_dir, exist_ok=True)
    collections: Dict[str, Dict[str, object]] = {}
    live = {MANIFEST_NAME}
    for collection in database.collections():
        lines = [
            json.dumps(
                {"key": key, "sha256": _record_sha(key, xml), "xml": xml},
                ensure_ascii=False,
                separators=(",", ":"),
            )
            for key, xml in sorted(
                (key, serialize(tree)) for key, tree in collection.documents()
            )
        ]
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        digest = sha256_bytes(data)
        segment = f"{_stem(collection.name)}.{digest[:12]}.seg"
        path = os.path.join(root_dir, segment)
        if not file_holds(path, digest):
            atomic_write_bytes(path, data)
        live.update((segment, os.path.basename(index_path(root_dir, segment))))
        documents_written += len(lines)
        collections[collection.name] = {
            "segment": segment,
            "records": len(lines),
            "bytes": len(data),
            "sha256": digest,
            "max_document_bytes": collection.max_document_bytes,
        }
        if write_indexes is False:
            continue
        index = collection.search_index(build=bool(write_indexes))
        if index is not None:
            save_collection_index(root_dir, segment, collection.name, digest, index)
    manifest = {
        "format": FORMAT_VERSION,
        "max_document_bytes": database.max_document_bytes,
        "collections": collections,
    }
    atomic_write_text(
        os.path.join(root_dir, MANIFEST_NAME), json.dumps(manifest, sort_keys=True)
    )
    # Only now that the manifest is durable: drop what it superseded (and
    # what a crashed save orphaned).
    for directory in (root_dir, os.path.join(root_dir, INDEX_DIR)):
        if os.path.isdir(directory):
            for name in os.listdir(directory):
                if name not in live and _CONTENT_NAMED.fullmatch(name):
                    os.unlink(os.path.join(directory, name))
    seconds = time.perf_counter() - started
    bytes_after, fsyncs_after = _write_bill()
    METRICS.counter("storage.saves").inc()
    METRICS.counter("storage.documents_written").inc(documents_written)
    METRICS.histogram("storage.save_seconds").observe(seconds)
    current_tracer().record_span(
        "storage.save",
        seconds,
        attributes={
            "documents": documents_written,
            "bytes": bytes_after - bytes_before,
            "fsyncs": fsyncs_after - fsyncs_before,
        },
    )


def build_indexes(root_dir: str) -> Dict[str, Dict[str, int]]:
    """Build (or rebuild) persisted search indexes for a saved database.

    Loads the store, builds a fresh index per collection and writes each
    one keyed to the manifest's segment digest.  Returns per-collection
    index statistics.  Raises on a damaged store — indexes for
    unverifiable documents would be untrustworthy.
    """
    database = load_database(root_dir)
    stats: Dict[str, Dict[str, int]] = {}
    for name, (segment, _records, digest) in _manifest_segments(root_dir).items():
        index = database.get_collection(name).search_index(build=True)
        assert index is not None
        save_collection_index(root_dir, segment, name, digest, index)
        stats[name] = index.stats()
    return stats


def index_status(root_dir: str) -> Dict[str, Dict[str, object]]:
    """Per-collection index health for ``db index verify`` / ``db stats``.

    ``{collection: index_file_status(...)}`` for every collection the
    manifest names; raises :class:`~repro.errors.XmlDbError` when the
    manifest itself cannot be read.
    """
    return {
        name: index_file_status(root_dir, segment, name, digest)
        for name, (segment, _records, digest) in _manifest_segments(root_dir).items()
    }


def store_bytes(root_dir: str) -> Dict[str, int]:
    """On-disk bytes of a saved store by part: segments, indexes, manifest."""
    sizes = {"segments": 0, "indexes": 0}
    for segment, _records, _digest in _manifest_segments(root_dir).values():
        sizes["segments"] += os.path.getsize(os.path.join(root_dir, segment))
        index = index_path(root_dir, segment)
        if os.path.exists(index):
            sizes["indexes"] += os.path.getsize(index)
    sizes["manifest"] = os.path.getsize(os.path.join(root_dir, MANIFEST_NAME))
    return sizes


# ---------------------------------------------------------------------------
# Recovery reporting
# ---------------------------------------------------------------------------


@dataclass
class QuarantinedDocument:
    """One record (or segment, or the manifest) that failed integrity checks."""

    collection: str
    key: str
    filename: Optional[str]
    reason: str
    #: Where the damaged bytes were put, or None when there was nothing
    #: to keep (a missing file) or the load ran in verify-only mode.
    quarantined_to: Optional[str] = None

    def __str__(self) -> str:
        where = f" -> {self.quarantined_to}" if self.quarantined_to else ""
        return f"{self.collection}/{self.key} ({self.reason}){where}"


@dataclass
class RecoveryReport:
    """What :func:`load_database` found (and salvaged) in a directory."""

    root_dir: str
    format: Optional[int] = None
    manifest_ok: bool = True
    loaded_documents: int = 0
    loaded_bytes: int = 0
    quarantined: List[QuarantinedDocument] = field(default_factory=list)
    #: The salvaged database (populated by load/recover, None for verify).
    database: Optional[Database] = None

    @property
    def ok(self) -> bool:
        """True when every file loaded clean."""
        return self.manifest_ok and not self.quarantined

    def summary(self) -> str:
        lines = [
            f"database at {self.root_dir}: format {self.format}, "
            f"{self.loaded_documents} documents ok, "
            f"{len(self.quarantined)} quarantined"
        ]
        if not self.manifest_ok:
            lines.append("manifest: CORRUPT (documents recoverable by segment scan)")
        for item in self.quarantined:
            lines.append(f"  - {item}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Loading / verification
# ---------------------------------------------------------------------------

_RAISE = "raise"
_QUARANTINE = "quarantine"
_VERIFY = "verify"


def load_database(root_dir: str, on_corruption: str = _RAISE) -> Database:
    """Rebuild a database from :func:`save_database` output.

    Collections come back in name order and each collection's documents
    in lexicographic key order (the order they were written in), whatever
    order the saved database had inserted them in.

    ``on_corruption`` selects the failure policy for truncated, missing,
    unparseable or checksum-mismatched records:

    ``"raise"`` (default)
        Raise :class:`~repro.errors.StorageCorruptionError` on the first
        damaged record, naming its key (suitable for callers that treat
        any damage as fatal).

    ``"quarantine"``
        Never die: damaged lines are copied under ``root/.quarantine/``,
        the surviving documents are loaded, and the returned database
        carries a :class:`RecoveryReport` as ``database.recovery_report``
        listing every quarantined record.  The damaged segment stays in
        place until the store is re-saved (``db recover`` does).
    """
    if on_corruption not in (_RAISE, _QUARANTINE):
        raise ValueError(
            f"on_corruption must be 'raise' or 'quarantine', got {on_corruption!r}"
        )
    started = time.perf_counter()
    fsyncs_before = _write_bill()[1]
    report = _load(root_dir, on_corruption)
    assert report.database is not None
    report.database.recovery_report = report
    seconds = time.perf_counter() - started
    METRICS.counter("storage.loads").inc()
    METRICS.histogram("storage.load_seconds").observe(seconds)
    if report.quarantined:
        METRICS.counter("storage.documents_quarantined").inc(
            len(report.quarantined)
        )
    current_tracer().record_span(
        "storage.load",
        seconds,
        attributes={
            "documents": report.loaded_documents,
            "bytes": report.loaded_bytes,
            "fsyncs": _write_bill()[1] - fsyncs_before,
            "quarantined": len(report.quarantined),
        },
    )
    return report.database


def recover_database(root_dir: str) -> RecoveryReport:
    """Quarantine-load ``root_dir``; the report carries the salvaged database."""
    return load_database(root_dir, _QUARANTINE).recovery_report


def verify_database(root_dir: str) -> RecoveryReport:
    """Integrity-check a saved database without modifying anything.

    Reads the manifest, re-parses every record and re-computes every
    checksum; records failures in the report but copies no bytes and
    builds no database (``report.database`` is None).
    """
    return _load(root_dir, _VERIFY)


def _quarantine_manifest(root_dir: str) -> str:
    """Move a torn manifest under ``root/.quarantine/``; returns the new path."""
    target_dir = os.path.join(root_dir, QUARANTINE_DIR)
    os.makedirs(target_dir, exist_ok=True)
    target = os.path.join(target_dir, MANIFEST_NAME)
    counter = 1
    while os.path.exists(target):
        target = os.path.join(target_dir, f"{counter}-{MANIFEST_NAME}")
        counter += 1
    os.replace(os.path.join(root_dir, MANIFEST_NAME), target)
    fsync_directory(target_dir)
    return target


def _quarantine_lines(root_dir: str, segment: str, raw_lines: List[bytes]) -> str:
    """Copy damaged segment lines under ``root/.quarantine/``; returns the path.

    The copy is named after its own content, so loading the same damaged
    store again writes nothing new.
    """
    data = b"".join(raw + b"\n" for raw in raw_lines)
    match = _CONTENT_NAMED.fullmatch(segment)
    target_dir = os.path.join(root_dir, QUARANTINE_DIR, match.group(1) if match else "")
    os.makedirs(target_dir, exist_ok=True)
    target = os.path.join(target_dir, f"{segment}.{sha256_bytes(data)[:12]}.lines")
    if not os.path.exists(target):
        atomic_write_bytes(target, data)
    return target


def _read_manifest(root_dir: str) -> Dict[str, object]:
    """The store manifest as a JSON object; raises on a missing or torn one."""
    manifest_path = os.path.join(root_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise XmlDbError(f"no database manifest at {manifest_path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise StorageCorruptionError(f"corrupt database manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StorageCorruptionError(
            "corrupt database manifest: not a JSON object"
        )
    version = manifest.get("format")
    if version != FORMAT_VERSION:
        raise XmlDbError(
            f"unsupported database format {version!r} at {manifest_path}: this "
            f"version reads format {FORMAT_VERSION} only"
        )
    if not isinstance(manifest.get("collections"), dict):
        raise XmlDbError("database manifest 'collections' is not an object")
    return manifest


def _segment_entry(root_dir: str, info: object) -> Tuple[str, int, str]:
    """(segment file, record count, sha256) of one manifest collection entry.

    Path-traversal hardening happens before any policy applies: a manifest
    pointing outside the root is an attack, not damage, and raises
    :class:`XmlDbError` proper; a malformed entry is damage.
    """
    if (
        not isinstance(info, dict)
        or not isinstance(info.get("segment"), str)
        or not isinstance(info.get("records"), int)
        or not isinstance(info.get("sha256"), str)
    ):
        raise StorageCorruptionError("manifest collection entry is malformed")
    _check_inside(root_dir, info["segment"])
    return info["segment"], info["records"], info["sha256"]


def _manifest_segments(root_dir: str) -> Dict[str, Tuple[str, int, str]]:
    """``{collection: (segment file, record count, sha256)}`` of a sound manifest."""
    return {
        name: _segment_entry(root_dir, info)
        for name, info in _read_manifest(root_dir)["collections"].items()  # type: ignore[union-attr]
    }


def _raw_key(raw: Optional[bytes]) -> str:
    """The document key a damaged line most likely belonged to, or ''."""
    match = _RAW_KEY.match(raw or b"")
    try:
        return json.loads(match.group(1).decode("utf-8")) if match else ""
    except ValueError:
        return ""


def _load_segment(
    root_dir: str,
    policy: str,
    report: RecoveryReport,
    collection: Collection,
    segment: str,
    data: bytes,
    records: int = 0,
    expected_sha: Optional[str] = None,
) -> bool:
    """Add the intact records of a segment's bytes to ``collection``.

    Every line must hold a record whose checksum matches and whose XML
    the collection accepts; the segment must hold at least ``records``
    lines and hash to ``expected_sha``.  What fails is raised (``raise``
    policy) or listed in ``report`` and, under the ``quarantine`` policy,
    its raw lines copied aside.  Returns True when everything verified.
    """
    damaged: List[Tuple[QuarantinedDocument, Optional[bytes]]] = []

    def fail(reason: str, raw: Optional[bytes] = None) -> None:
        key = _raw_key(raw)
        if policy == _RAISE:
            raise StorageCorruptionError(
                f"document {key!r} in collection {collection.name!r}: {reason}"
            )
        damaged.append(
            (QuarantinedDocument(collection.name, key, segment, reason), raw)
        )

    # Split on the newline *byte* only: JSON leaves U+2028 and friends
    # unescaped inside strings, and str.splitlines would cut there.
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()  # a complete segment ends with a newline
    for raw in lines:
        try:
            record = json.loads(raw.decode("utf-8"))
            key, xml = record["key"], record["xml"]
            if not (isinstance(key, str) and isinstance(xml, str)):
                raise TypeError("key and xml must be strings")
        except (ValueError, TypeError, KeyError) as exc:
            fail(f"unreadable record: {exc!r}", raw)
            continue
        if _record_sha(key, xml) != record.get("sha256"):
            fail("checksum mismatch (truncated or corrupted)", raw)
            continue
        try:
            # The record's text is the compact serialisation save wrote (the
            # checksum just proved it): its length is what the cap measures.
            collection.add_document(key, xml, len(xml.encode("utf-8")))
        except XmlDbError as exc:
            fail(f"invalid document: {exc}", raw)
    if len(lines) < records:
        fail(f"{records - len(lines)} records missing (segment truncated)")
    elif not damaged and expected_sha not in (None, sha256_bytes(data)):
        fail("segment checksum mismatch (every record verifies)")

    raw_lines = [raw for _item, raw in damaged if raw is not None]
    moved = (
        _quarantine_lines(root_dir, segment, raw_lines)
        if raw_lines and policy == _QUARANTINE
        else None
    )
    for item, raw in damaged:
        if raw is not None:
            item.quarantined_to = moved
        report.quarantined.append(item)
    report.loaded_documents += len(collection)
    report.loaded_bytes += len(data)
    return not damaged


def _salvage_without_manifest(root_dir: str, report: RecoveryReport) -> Database:
    """Rebuild a database by scanning the root for segment files.

    Last-resort recovery for a destroyed manifest: every ``*.seg`` file
    becomes a collection named by the file's stem (the sanitised
    collection name — the original is lost with the manifest, like the
    size caps), holding every record that still verifies; document keys
    survive, they are in the records.  Where a crashed re-save left two
    segments of one collection, the newest gets the name and the other
    comes back beside it as ``<stem>.<sha12>``.
    """
    database = Database()
    segments = [
        name
        for name in os.listdir(root_dir)
        if _CONTENT_NAMED.fullmatch(name) and name.endswith(".seg")
    ]
    segments.sort(key=lambda name: -os.path.getmtime(os.path.join(root_dir, name)))
    for segment in segments:
        with open(os.path.join(root_dir, segment), "rb") as handle:
            data = handle.read()
        stem = _CONTENT_NAMED.fullmatch(segment).group(1)  # type: ignore[union-attr]
        collection = database.create_collection(
            stem if stem not in database else segment[: -len(".seg")]
        )
        _load_segment(root_dir, _QUARANTINE, report, collection, segment, data)
    return database


def _load(root_dir: str, policy: str) -> RecoveryReport:
    report = RecoveryReport(root_dir=root_dir)
    try:
        manifest = _read_manifest(root_dir)
    except StorageCorruptionError as exc:
        if policy == _RAISE:
            raise
        moved = None
        if policy == _QUARANTINE:
            moved = _quarantine_manifest(root_dir)
        report.manifest_ok = False
        report.quarantined.append(
            QuarantinedDocument("", MANIFEST_NAME, MANIFEST_NAME, str(exc), moved)
        )
        if policy == _QUARANTINE:
            report.database = _salvage_without_manifest(root_dir, report)
            # rewrite a clean manifest over the salvage, otherwise the next
            # load would find no manifest at all and refuse the directory
            save_database(report.database, root_dir)
        return report

    report.format = FORMAT_VERSION
    database = Database(int(manifest.get("max_document_bytes", 5 * 1024 * 1024)))  # type: ignore[call-overload]
    for name, info in manifest["collections"].items():  # type: ignore[union-attr]
        try:
            segment, records, expected_sha = _segment_entry(root_dir, info)
            with open(os.path.join(root_dir, segment), "rb") as handle:
                data = handle.read()
        except (StorageCorruptionError, OSError) as exc:
            reason = f"unreadable: {exc}"
            if policy == _RAISE:
                raise StorageCorruptionError(
                    f"collection {name!r}: {reason}"
                ) from exc
            report.quarantined.append(QuarantinedDocument(name, "", None, reason))
            continue
        collection = database.create_collection(name)
        collection.max_document_bytes = int(
            info.get("max_document_bytes", database.max_document_bytes)
        )
        verified = _load_segment(
            root_dir, policy, report, collection, segment, data, records, expected_sha
        )
        # Adopt a persisted search index only when the segment is byte for
        # byte the one the manifest describes and every record loaded: the
        # content key then proves the index describes exactly these
        # documents.  Anything else (damage, a stale or corrupt index)
        # falls back to a lazy in-memory rebuild.
        if verified and policy != _VERIFY:
            status = index_file_status(root_dir, segment, name, expected_sha)
            if "index" in status:
                collection.attach_search_index(status["index"])  # type: ignore[arg-type]

    if policy != _VERIFY:
        report.database = database
    return report
