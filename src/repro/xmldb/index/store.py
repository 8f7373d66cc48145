"""Checksummed, content-keyed persistence for collection search indexes.

An index file can always be thrown away — it is derived data.  The
danger is *trusting* one that no longer matches the documents (stale) or
whose bytes were damaged (corrupt): either would silently prune the
wrong candidates.  So every file records

* a **content key**: SHA-256 over the collection name and the digest of
  the collection's segment file (:mod:`repro.xmldb.storage`) — any
  document added, removed or changed produces a different segment, hence
  a different key, and
* a **checksum** over the canonical JSON of the index payload itself.

:func:`index_file_status` verifies format, checksum, collection name and
content key *before* restoring anything; on any mismatch or parse failure
it hands back no index and the caller rebuilds from the documents.
The file is named after the segment it describes (``<segment stem>.idx``),
so a re-save never overwrites the index of the state a crash would fall
back to.  It holds the JSON envelope zlib-compressed (the codec of
``serving/snapshot.py``): postings repeat keys and paths heavily, and
nobody reads derived data by eye.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict

from ...ioutils import atomic_write_bytes, file_holds, sha256_bytes, sha256_text
from .postings import CollectionSearchIndex

#: Directory under the database root holding one index file per segment.
INDEX_DIR = ".indexes"

#: Format of the on-disk envelope (distinct from the payload format).
STORE_FORMAT = 2


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def index_content_key(collection_name: str, segment_sha256: str) -> str:
    """Content key binding an index to one exact segment of one collection."""
    return sha256_text(
        _canonical(
            {
                "format": STORE_FORMAT,
                "collection": collection_name,
                "segment": segment_sha256,
            }
        )
    )


def index_path(root_dir: str, segment: str) -> str:
    """Where the index of the segment file named ``segment`` lives."""
    return os.path.join(root_dir, INDEX_DIR, os.path.splitext(segment)[0] + ".idx")


def save_collection_index(
    root_dir: str,
    segment: str,
    collection_name: str,
    segment_sha256: str,
    index: CollectionSearchIndex,
) -> str:
    """Atomically write the index of one segment; returns its path.

    A file already there holding exactly these bytes is left alone.
    """
    payload = index.to_dict()
    entry = {
        "format": STORE_FORMAT,
        "collection": collection_name,
        "content_key": index_content_key(collection_name, segment_sha256),
        "checksum": sha256_text(_canonical(payload)),
        "index": payload,
    }
    path = index_path(root_dir, segment)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = zlib.compress(_canonical(entry).encode("utf-8"))
    if not file_holds(path, sha256_bytes(data)):
        atomic_write_bytes(path, data)
    return path


def index_file_status(
    root_dir: str, segment: str, collection_name: str, segment_sha256: str
) -> Dict[str, object]:
    """Health of one segment's index: ``{"path", "status"[, "index"]}``.

    Status is one of ``"ok"`` (the restored index rides along),
    ``"missing"``, ``"stale"`` (an intact envelope for another collection
    or other content) or ``"corrupt: <reason>"``.  Every check — envelope
    format, payload checksum, collection name, content key — happens
    before the payload is handed to
    :meth:`CollectionSearchIndex.from_dict`; whatever fails means no
    index and a rebuild by the caller, never a wrong answer.
    """
    path = index_path(root_dir, segment)
    status: Dict[str, object] = {"path": path}
    if not os.path.exists(path):
        status["status"] = "missing"
        return status
    try:
        with open(path, "rb") as handle:
            entry = json.loads(zlib.decompress(handle.read()).decode("utf-8"))
        if not isinstance(entry, dict) or entry.get("format") != STORE_FORMAT:
            raise ValueError(f"not a format-{STORE_FORMAT} index envelope")
        if sha256_text(_canonical(entry.get("index"))) != entry.get("checksum"):
            raise ValueError("payload checksum mismatch")
        if entry.get("collection") != collection_name or entry.get(
            "content_key"
        ) != index_content_key(collection_name, segment_sha256):
            status["status"] = "stale"
            return status
        status["index"] = CollectionSearchIndex.from_dict(entry["index"])
        status["status"] = "ok"
    except Exception as exc:
        status["status"] = f"corrupt: {exc}"
    return status
