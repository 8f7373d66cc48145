"""Observability sinks: JSON-lines event log, slow-query log, metrics files.

Sinks are deliberately dumb files so they survive crashes and compose
with standard tooling (``jq``, ``grep``):

* :class:`JsonLinesSink` — append-only ``*.jsonl`` with size-based
  rotation (the live file is renamed to ``<name>.1`` and a fresh file is
  started; one backup generation is kept per configured ``backups``).
* :class:`SlowQueryLog` — a :class:`JsonLinesSink` that only records
  payloads whose ``total_seconds`` meets a configurable threshold.
* :func:`write_metrics_snapshot` / :func:`read_metrics_snapshot` — a
  JSON metrics file that *accumulates* across CLI invocations: each
  flush merges the registry's snapshot into what is already on disk
  (counters and histograms add, gauges take the latest value) and
  rewrites the file atomically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..ioutils import atomic_write_text
from . import metrics as _metrics

#: Default rotation threshold for JSON-lines sinks (bytes).
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class JsonLinesSink:
    """Append-only structured event log with size-based rotation."""

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = 1,
    ) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = max(0, backups)

    def emit(self, payload: Dict[str, Any]) -> None:
        """Append one JSON object as a single line, rotating first if the
        live file has already reached ``max_bytes``."""
        line = json.dumps(payload, sort_keys=True, default=str)
        self._rotate_if_needed(len(line) + 1)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def _rotate_if_needed(self, incoming_bytes: int) -> None:
        if self.max_bytes <= 0:
            return
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming_bytes <= self.max_bytes:
            return
        if self.backups <= 0:
            try:
                self.path.unlink()
            except OSError:
                pass
            return
        # Shift backup generations: .(n-1) -> .n, ..., live -> .1
        for generation in range(self.backups, 1, -1):
            older = self.path.with_name(f"{self.path.name}.{generation - 1}")
            if older.exists():
                os.replace(older, self.path.with_name(f"{self.path.name}.{generation}"))
        os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))

    def read(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The last ``limit`` entries (all when None), oldest first.

        Includes the newest backup generation when the live file alone
        cannot satisfy ``limit``.  Corrupt lines are skipped — a sink
        must never make diagnostics unreadable because one write tore.
        """
        entries: List[Dict[str, Any]] = []
        sources = [self.path.with_name(f"{self.path.name}.1"), self.path]
        for source in sources:
            if not source.exists():
                continue
            try:
                text = source.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    entries.append(entry)
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        return entries


class SlowQueryLog(JsonLinesSink):
    """JSON-lines sink that keeps only queries at or above a threshold."""

    def __init__(
        self,
        path: Union[str, Path],
        threshold_seconds: float = 0.5,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        super().__init__(path, max_bytes=max_bytes)
        self.threshold_seconds = threshold_seconds

    def record(self, payload: Dict[str, Any]) -> bool:
        """Emit ``payload`` iff its ``total_seconds`` meets the threshold.

        Returns True when the entry was written (so callers can count
        slow queries without re-deriving the predicate)."""
        seconds = payload.get("total_seconds")
        if seconds is None or float(seconds) < self.threshold_seconds:
            return False
        self.emit(payload)
        return True


# -- metrics files ----------------------------------------------------------


def read_metrics_snapshot(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """The snapshot persisted at ``path`` ({} when missing/corrupt)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    metrics = payload.get("metrics") if isinstance(payload, dict) else None
    return metrics if isinstance(metrics, dict) else {}


def write_metrics_snapshot(
    path: Union[str, Path],
    registry: Optional[_metrics.MetricsRegistry] = None,
    merge: bool = True,
) -> Dict[str, Dict[str, Any]]:
    """Merge ``registry``'s snapshot into the file at ``path`` atomically.

    With ``merge=True`` (the default) the on-disk snapshot accumulates
    across invocations; ``merge=False`` overwrites.  Returns the
    snapshot that was written.
    """
    registry = registry if registry is not None else _metrics.REGISTRY
    snapshot = registry.snapshot()
    if merge:
        snapshot = _metrics.merge_snapshots(read_metrics_snapshot(path), snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path,
        json.dumps({"format": 1, "metrics": snapshot}, indent=2, sort_keys=True)
        + "\n",
    )
    return snapshot
