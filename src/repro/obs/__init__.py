"""`repro.obs` — dependency-free observability for the TOSS pipeline.

Layers, usable independently:

* :mod:`repro.obs.trace` — hierarchical, bounded trace spans with a
  context-manager + decorator API and ambient access via
  :func:`~repro.obs.trace.current_tracer`;
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms (:data:`~repro.obs.metrics.REGISTRY`);
* :mod:`repro.obs.sinks` — JSON-lines event log, slow-query log and a
  cumulative metrics snapshot file;
* :mod:`repro.obs.context` — per-request identity
  (:class:`~repro.obs.context.RequestContext`) threaded from the
  serving edge through pool workers so all telemetry joins on one id;
* :mod:`repro.obs.window` — rolling per-second windows
  (:data:`~repro.obs.window.WINDOWS`) for streaming QPS / latency
  quantiles / error rate / SLO burn per class of served request;
* :mod:`repro.obs.profile` — an opt-in sampling profiler attributing
  wall time to executor phases;
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  snapshot writers over the registry and the windows.

:class:`Observability` ties them together for the CLI and the system
facade: it creates per-query tracers, routes finished traces into the
event/slow-query logs, and flushes the metrics registry to disk.  The
shared :data:`NULL_OBSERVABILITY` instance is the zero-cost default —
its tracers are disabled (no span allocation) and its sink hooks return
immediately.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .context import RequestContext, activate, current_request, new_request_id
from .metrics import REGISTRY, MetricsRegistry, render_snapshot_text
from .window import WINDOWS, WindowRegistry
from .sinks import (
    JsonLinesSink,
    SlowQueryLog,
    read_metrics_snapshot,
    write_metrics_snapshot,
)
from .trace import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_SPANS,
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    render_span_dict,
    traced,
)

#: Subdirectory of a database root that holds all observability state.
OBS_DIRNAME = "obs"

#: File names inside the ``obs/`` directory.
EVENTS_FILENAME = "events.jsonl"
SLOW_QUERIES_FILENAME = "slow_queries.jsonl"
METRICS_FILENAME = "metrics.json"

#: Default slow-query threshold, seconds.
DEFAULT_SLOW_QUERY_SECONDS = 0.5


class Observability:
    """Configuration + sink wiring for one observed component.

    ``directory`` (usually ``<database root>/obs``) anchors the default
    sink files; pass ``directory=None`` for an in-memory-only setup
    (tracing and metrics without any file output).
    """

    def __init__(
        self,
        enabled: bool = True,
        directory: Optional[Union[str, Path]] = None,
        slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
    ) -> None:
        self.enabled = enabled
        self.directory = Path(directory) if directory is not None else None
        self.slow_query_seconds = slow_query_seconds
        self.event_log: Optional[JsonLinesSink] = None
        self.slow_log: Optional[SlowQueryLog] = None
        self.metrics_path: Optional[Path] = None
        #: When a :class:`repro.obs.profile.SamplingProfiler` is attached
        #: (``db trace --profile``, ``serve --profile-hz``), every
        #: slow-query entry drains it into a flame-style exemplar.
        self.profiler: Optional[Any] = None
        if self.enabled and self.directory is not None:
            self.event_log = JsonLinesSink(self.directory / EVENTS_FILENAME)
            self.slow_log = SlowQueryLog(
                self.directory / SLOW_QUERIES_FILENAME,
                threshold_seconds=slow_query_seconds,
            )
            self.metrics_path = self.directory / METRICS_FILENAME

    # -- tracing ------------------------------------------------------------

    def tracer(self) -> Tracer:
        """A fresh single-use tracer (the shared :data:`NULL_TRACER` when
        tracing is off, so disabled mode allocates nothing per query)."""
        if not self.enabled:
            return NULL_TRACER
        return Tracer()

    # -- event routing ------------------------------------------------------

    def record_query(
        self,
        kind: str,
        query: Optional[str] = None,
        total_seconds: float = 0.0,
        trace: Optional[Dict[str, Any]] = None,
        plan_lines: Optional[List[str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Log one finished operation to the event log (and, when slow
        enough, to the slow-query log with its full span tree and probe
        plan).  Returns True when the slow-query log captured it.

        Every entry is stamped with a wall-clock ``ts`` (cross-process
        ordering for ``db trace --request``) and, when a request context
        is ambient, its ``request_id``/``tenant`` — so event-log lines,
        slow-query lines and ``query --json`` reports all join on the
        same id.
        """
        if not self.enabled:
            return False
        event: Dict[str, Any] = {
            "event": kind,
            "ts": round(time.time(), 6),
            "total_seconds": round(float(total_seconds), 6),
        }
        if query is not None:
            event["query"] = query
        context = current_request()
        if context is not None and "request_id" not in (extra or ()):
            event["request_id"] = context.request_id
            if context.tenant is not None:
                event["tenant"] = context.tenant
        if extra:
            event.update(extra)
        if self.event_log is not None:
            self.event_log.emit(event)
        if self.slow_log is None:
            return False
        slow_entry = dict(event)
        if trace is not None:
            slow_entry["trace"] = trace
        if plan_lines:
            slow_entry["plan"] = list(plan_lines)
        if self.profiler is not None:
            exemplar = self.profiler.take_exemplar()
            if exemplar.get("samples"):
                slow_entry["profile"] = exemplar
        return self.slow_log.record(slow_entry)

    def record_event(self, kind: str, **fields: Any) -> None:
        """Log one discrete lifecycle event to the event log.

        For point-in-time facts that are not finished operations —
        worker crashes, respawns, circuit-breaker trips — where
        :meth:`record_query`'s duration/slow-query semantics make no
        sense.  No-op when disabled or file-less.
        """
        if not self.enabled or self.event_log is None:
            return
        event: Dict[str, Any] = {"event": kind, "ts": round(time.time(), 6)}
        context = current_request()
        if context is not None and "request_id" not in fields:
            event["request_id"] = context.request_id
        event.update(fields)
        self.event_log.emit(event)

    # -- metrics ------------------------------------------------------------

    def flush_metrics(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Merge the registry into the on-disk snapshot (None when this
        setup has no metrics file)."""
        if not self.enabled or self.metrics_path is None:
            return None
        return write_metrics_snapshot(self.metrics_path, REGISTRY)


#: Shared disabled configuration — the default everywhere.
NULL_OBSERVABILITY = Observability(enabled=False)


def obs_directory(root: Union[str, Path]) -> Path:
    """The observability directory for a database root."""
    return Path(root) / OBS_DIRNAME


def for_root(
    root: Union[str, Path],
    slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
) -> Observability:
    """An :class:`Observability` anchored at ``<root>/obs``."""
    return Observability(
        directory=obs_directory(root), slow_query_seconds=slow_query_seconds
    )


__all__ = [
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_SLOW_QUERY_SECONDS",
    "EVENTS_FILENAME",
    "JsonLinesSink",
    "METRICS_FILENAME",
    "MetricsRegistry",
    "NULL_OBSERVABILITY",
    "NULL_TRACER",
    "OBS_DIRNAME",
    "Observability",
    "REGISTRY",
    "RequestContext",
    "SLOW_QUERIES_FILENAME",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "WINDOWS",
    "WindowRegistry",
    "activate",
    "current_request",
    "current_tracer",
    "for_root",
    "new_request_id",
    "obs_directory",
    "read_metrics_snapshot",
    "render_snapshot_text",
    "render_span_dict",
    "traced",
    "write_metrics_snapshot",
]
