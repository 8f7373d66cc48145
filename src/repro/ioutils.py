"""Durable file-writing primitives shared by every persistence layer.

A crash (power loss, ``kill -9``, full disk) in the middle of a bare
``open()/write()`` leaves a truncated file behind with no way to tell it
apart from a complete one.  Every writer in this code base therefore goes
through :func:`atomic_write_bytes` (or its text sibling
:func:`atomic_write_text`): the data is written to a temporary file
in the *same directory*, flushed and fsynced, then atomically renamed over
the destination with :func:`os.replace` — readers observe either the old
complete content or the new complete content, never a torn write.  The
containing directory is fsynced afterwards so the rename itself survives
a crash (best effort on platforms without directory fds).

Both writers count what they cost in the process-wide metrics registry:
``storage.bytes_written`` and ``storage.fsyncs`` (one per file and one per
directory flush), so a caller can read the durable-write bill of any
operation off two counters.
"""

from __future__ import annotations

import hashlib
import os
import tempfile


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    """Hex SHA-256 of ``text`` encoded as UTF-8."""
    return sha256_bytes(text.encode("utf-8"))


def _count(name: str, amount: int = 1) -> None:
    # Imported at call time: importing the ``repro.obs`` package reaches
    # back into this module (obs.sinks writes through atomic_write_text).
    from .obs.metrics import REGISTRY

    REGISTRY.counter(name).inc(amount)


def fsync_directory(path: str) -> None:
    """Flush a directory's metadata (renames) to disk, best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
        _count("storage.fsyncs")
    except OSError:  # pragma: no cover - e.g. fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durably replace the file at ``path`` with ``data``.

    Write-to-temp + fsync + :func:`os.replace`, with the temporary file
    created in the destination directory so the rename never crosses a
    filesystem boundary.  On any failure the temporary file is removed
    and the destination is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        _count("storage.fsyncs")
        _count("storage.bytes_written", len(data))
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def file_holds(path: str, sha256: str) -> bool:
    """True when ``path`` is a readable file whose bytes hash to ``sha256``.

    Lets a content-named writer skip a file that already holds exactly
    its bytes; a file under the name with any other content is no match.
    """
    try:
        with open(path, "rb") as handle:
            return sha256_bytes(handle.read()) == sha256
    except OSError:
        return False


def atomic_write_text(path: str, text: str) -> None:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    atomic_write_bytes(path, text.encode("utf-8"))
