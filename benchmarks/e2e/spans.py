"""In-memory spans recorded by the harness around each call into a layer.

A span is ``(name, start, end, parent, request_id, lanes)``.  ``parent``
is the index of the causing span (-1 for an operation root) and
``request_id`` joins the spans of one operation.  Worker-side phases are
not observed on this process's clock: they come back as durations in the
returned report and are laid end to end inside their ``worker.exec``
span.  ``lanes`` is how many children of a span may run side by side
(the worker count under ``serving.execute_many``), so a span's self time
is its duration minus ``sum(children) / lanes``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

Span = Tuple[str, float, float, int, int, int]


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        request_id: int = -1,
        lanes: int = 1,
    ) -> int:
        self.spans.append((name, start, end, parent, request_id, lanes))
        return len(self.spans) - 1

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered: Dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _request, _lanes in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _request, lanes) in enumerate(self.spans):
            duration = end - start
            totals[name] += duration - min(duration, covered[index] / lanes)
        return dict(totals)

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, _r, _l in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request_id, _lanes) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                        }
                    )
                )
                handle.write("\n")
