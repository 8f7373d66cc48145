"""Request identity that survives process hops.

Serving turns one user request into work scattered across processes:
the parent plans and dispatches, a supervised worker executes (possibly
several times, across respawns), and the parent verifies and records.
Every one of those steps emits telemetry — spans, events, slow-query
lines, recovery records — and without a shared identity they cannot be
joined back into one story.

:class:`RequestContext` is that identity: a small immutable record
(request id, tenant, query class, deadline) minted once at the edge
(:class:`~repro.serving.server.QueryServer` or the CLI) and threaded
everywhere the work goes.  Two transports cover every hop:

* **ambient activation** — :func:`activate` pushes the context onto a
  module-global stack so code that cannot grow a parameter (the
  executor's ``_finish_query``, metric recording deep in a verify loop)
  can still ask :func:`current_request` "whose work is this?".  The
  stack is intentionally *not* thread-local, matching
  ``repro.obs.trace._ACTIVE``: the sampling profiler's reader thread
  must see the request the main thread is serving.
* **wire form** — :meth:`RequestContext.to_wire` / ``from_wire`` is a
  plain dict that rides the existing task-dict transport into pool
  workers; the worker re-activates it before
  executing, so worker-side spans and reports carry the same id the
  parent minted.

Ids are 16 hex chars of :func:`uuid.uuid4` — unguessable enough to not
collide within a store's lifetime, short enough to read in a log line.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "RequestContext",
    "new_request_id",
    "activate",
    "current_request",
]


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class RequestContext:
    """One request's identity, as minted at the serving edge.

    Attributes
    ----------
    request_id:
        The join key for every telemetry record the request produces.
    tenant:
        Optional tenant label (multi-tenant budget accounting joins on
        this; ``None`` for single-tenant / CLI use).
    query_class:
        Optional workload class (``"selection"``, ``"join"``, ...) used
        to bucket rolling-window statistics; when absent the executor
        falls back to the query kind it derives itself.
    deadline_seconds:
        Optional *relative* latency budget in seconds, carried for
        observability (the enforcing deadline lives in the guard, which
        is already propagated separately).  Relative, not absolute:
        monotonic clocks do not agree across processes.
    """

    request_id: str
    tenant: Optional[str] = None
    query_class: Optional[str] = None
    deadline_seconds: Optional[float] = None

    @classmethod
    def mint(cls) -> "RequestContext":
        return cls(request_id=new_request_id())

    # -- wire form (task-dict transport) -----------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """A JSON/pickle-safe dict; omits unset fields to stay small."""
        wire: Dict[str, Any] = {"id": self.request_id}
        if self.tenant is not None:
            wire["tenant"] = self.tenant
        if self.query_class is not None:
            wire["class"] = self.query_class
        if self.deadline_seconds is not None:
            wire["deadline"] = self.deadline_seconds
        return wire

    @classmethod
    def from_wire(cls, wire: Optional[Mapping[str, Any]]) -> Optional["RequestContext"]:
        """Rebuild from :meth:`to_wire` output; tolerant of None/garbage
        (a malformed context must never fail a query)."""
        if not isinstance(wire, Mapping):
            return None
        request_id = wire.get("id")
        if not isinstance(request_id, str) or not request_id:
            return None
        deadline = wire.get("deadline")
        return cls(
            request_id=request_id,
            tenant=wire.get("tenant"),
            query_class=wire.get("class"),
            deadline_seconds=float(deadline) if deadline is not None else None,
        )


#: The ambient activation stack.  Deliberately a module global, not
#: thread-local (see module docstring); the executor is single-threaded
#: per process, and readers (sampler thread) only peek.
_ACTIVE: List[RequestContext] = []


def current_request() -> Optional[RequestContext]:
    """The innermost active context, or None outside any request."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(context: Optional[RequestContext]) -> Iterator[Optional[RequestContext]]:
    """Make ``context`` ambient for the duration of the block.

    ``activate(None)`` is a no-op block, so call sites can thread an
    optional context without branching.
    """
    if context is None:
        yield None
        return
    _ACTIVE.append(context)
    try:
        yield context
    finally:
        # Remove *this* context even if a nested block leaked — ambient
        # state must never outlive its request.
        for index in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[index] is context:
                del _ACTIVE[index]
                break
