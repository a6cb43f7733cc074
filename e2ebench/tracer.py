"""Spans recorded in memory by the benchmark around its calls into the
program, written out when the run ends.

A span has a name, start, end, the span that caused it and a key: the
id of the cell or request it belongs to.  Names are ``<layer>.<call>``
(``runtime.stage``, ``gpu.replay``) or a grouping word (``cell``,
``probe``, ``op``).  Spans can also be added after the fact from
timestamps the program reports (progress events, job status).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from calc import self_time


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    key: str


class Tracer:
    """Collects spans; :meth:`span` nests by call structure."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, key: str = "") -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter(), 0.0, parent, key)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, key: str = "") -> int:
        """Record a span from timestamps taken elsewhere."""
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, key))
        return sid

    def self_times(self) -> Dict[int, float]:
        """Seconds of each span not covered by its children."""
        children: Dict[int, list] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        return {span.sid: self_time(span.start, span.end,
                                    children.get(span.sid, ()))
                for span in self.spans}

    def by_key(self, under: str) -> Dict[str, Dict[str, float]]:
        """Self seconds per call name, per key, for the spans whose
        parent is named ``under`` (``cell`` or ``probe``)."""
        selfs = self.self_times()
        names = {span.sid: span.name for span in self.spans}
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.parent is not None and names[span.parent] == under:
                calls = out.setdefault(span.key, {})
                calls[span.name] = calls.get(span.name, 0.0) + selfs[span.sid]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")
