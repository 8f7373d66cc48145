"""Hierarchical trace spans for the TOSS pipeline.

A :class:`Tracer` records one operation (a query, an SEO build) as a tree
of timed :class:`Span` objects.  The design goals, in order:

* **zero cost when disabled** — a disabled tracer's :meth:`Tracer.span`
  returns one shared no-op context manager; no span objects, dicts or
  closures are allocated, so instrumentation can stay in the hot paths
  unconditionally;
* **bounded when enabled** — ``max_depth`` and ``max_spans`` cap the
  tree so tracing can stay on in production against pathological inputs
  (spans past the caps are counted in ``dropped_spans``, never recorded);
* **ambient access** — deep layers (the planner, SEA and the SEO build,
  the storage layer) call :func:`current_tracer` instead of
  threading a tracer argument through every signature.  Outside an
  active trace that returns the :data:`NULL_TRACER`, which costs one
  list lookup and allocates nothing.

Spans from other processes cannot be recorded live; workers return their
timings as plain dicts and the parent re-attaches them with
:meth:`Tracer.record_span` / :meth:`Tracer.record_child_dict`, which is
how the multiprocessing pool's per-worker spans end up in the build
trace deterministically.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

#: Default bound on span-tree depth (spans deeper than this are dropped).
DEFAULT_MAX_DEPTH = 16

#: Default bound on total spans per trace (further spans are dropped).
DEFAULT_MAX_SPANS = 2048


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "attributes", "children", "seconds", "_started")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List[Span] = []
        self.seconds: float = 0.0
        self._started: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (used by sinks, reports and the CLI)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds:.6f}s, {len(self.children)} children)"


def render_span_dict(payload: Dict[str, Any], indent: int = 0) -> List[str]:
    """Render a :meth:`Span.to_dict` payload as indented text lines."""
    attrs = payload.get("attributes") or {}
    rendered_attrs = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    line = f"{'  ' * indent}{payload.get('name', '?')}  {payload.get('seconds', 0.0):.6f}s"
    if rendered_attrs:
        line += f"  [{rendered_attrs}]"
    lines = [line]
    for child in payload.get("children", ()):
        lines.extend(render_span_dict(child, indent + 1))
    return lines


class _NullSpanContext:
    """The shared do-nothing context manager of disabled/overflowed tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: The single instance every no-op ``span()`` call returns.
NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span._started = time.perf_counter()
        self._tracer._open(span)
        return span

    def __exit__(self, *exc_info: object) -> bool:
        span = self._span
        span.seconds = time.perf_counter() - span._started
        self._tracer._close(span)
        return False


class Tracer:
    """Records one operation as a bounded tree of spans.

    A tracer is single-use: open a root with :meth:`trace`, nest spans
    under it, then read :attr:`root` (or call :meth:`finish`).  Disabled
    tracers (``enabled=False``) never allocate — every ``span()`` call
    returns :data:`NULL_SPAN_CONTEXT`.
    """

    __slots__ = ("enabled", "max_depth", "max_spans", "root", "dropped_spans",
                 "_stack", "_span_count", "_registered")

    def __init__(
        self,
        enabled: bool = True,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.enabled = enabled
        self.max_depth = max_depth
        self.max_spans = max_spans
        self.root: Optional[Span] = None
        self.dropped_spans = 0
        self._stack: List[Span] = []
        self._span_count = 0
        self._registered = False

    # -- recording ----------------------------------------------------------

    def trace(self, name: str, **attributes: Any):
        """Open the root span and make this tracer ambient (see
        :func:`current_tracer`) for the duration of the ``with`` block."""
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        self._registered = True
        _ACTIVE.append(self)
        return self.span(name, **attributes)

    def span(self, name: str, **attributes: Any):
        """A context manager recording one child span of the current span."""
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        if self._stack and len(self._stack) >= self.max_depth:
            self.dropped_spans += 1
            return NULL_SPAN_CONTEXT
        if self._span_count >= self.max_spans:
            self.dropped_spans += 1
            return NULL_SPAN_CONTEXT
        self._span_count += 1
        return _SpanContext(self, Span(name, attributes))

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the innermost open span (no-op otherwise)."""
        if self.enabled and self._stack:
            self._stack[-1].attributes.update(attributes)

    def record_span(
        self,
        name: str,
        seconds: float,
        attributes: Optional[Dict[str, Any]] = None,
        children: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Attach an already-timed span (e.g. from a worker process).

        ``children`` takes :meth:`Span.to_dict`-shaped payloads and
        re-attaches them below the recorded span, which is how traces
        measured in other processes merge into the parent tree.
        """
        if not self.enabled or not self._stack:
            return
        if self._span_count >= self.max_spans:
            self.dropped_spans += 1
            return
        self._span_count += 1
        span = Span(name, attributes)
        span.seconds = seconds
        self._stack[-1].children.append(span)
        for child in children or ():
            self.record_child_dict(child, parent=span)

    def record_child_dict(
        self, payload: Dict[str, Any], parent: Optional[Span] = None
    ) -> None:
        """Attach a :meth:`Span.to_dict` payload below ``parent`` (default:
        the innermost open span)."""
        if not self.enabled:
            return
        if parent is None:
            if not self._stack:
                return
            parent = self._stack[-1]
        if self._span_count >= self.max_spans:
            self.dropped_spans += 1
            return
        self._span_count += 1
        span = Span(payload.get("name", "?"), payload.get("attributes"))
        span.seconds = float(payload.get("seconds", 0.0))
        parent.children.append(span)
        for child in payload.get("children", ()):
            self.record_child_dict(child, parent=span)

    # -- internals ----------------------------------------------------------

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if not self._stack and self._registered:
            self._registered = False
            if self in _ACTIVE:
                _ACTIVE.remove(self)
            if self.dropped_spans and self.root is not None:
                self.root.attributes["dropped_spans"] = self.dropped_spans
                # Truncation must be visible fleet-wide, not only to
                # whoever happens to read this one trace: publish the
                # drop count so exporters and the regression dashboards
                # see bounded trees filling up.
                from .metrics import REGISTRY

                REGISTRY.counter("trace.spans_dropped").inc(self.dropped_spans)

    def finish(self) -> Optional[Dict[str, Any]]:
        """The completed trace as a dict tree, or None (disabled/empty)."""
        if self.root is None:
            return None
        return self.root.to_dict()


#: Shared disabled tracer — the no-op recorder ambient code falls back to.
NULL_TRACER = Tracer(enabled=False)

#: Stack of tracers with an open root span (innermost last).
_ACTIVE: List[Tracer] = []


def current_tracer() -> Tracer:
    """The innermost ambient tracer, or :data:`NULL_TRACER`.

    Deep layers use this to attach spans to whatever trace is active
    without taking a tracer parameter; with no active trace every
    operation on the result is a no-op.
    """
    return _ACTIVE[-1] if _ACTIVE else NULL_TRACER


def traced(name: Optional[str] = None) -> Callable:
    """Decorator: record a span around every call of the function.

    The span attaches to the ambient tracer at call time, so decorated
    helpers cost nothing outside an active trace::

        @traced("planner.prune")
        def prune_candidates(...): ...
    """

    def decorate(function: Callable) -> Callable:
        span_name = name if name is not None else function.__qualname__

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any):
            with current_tracer().span(span_name):
                return function(*args, **kwargs)

        return wrapper

    return decorate
