"""In-memory spans for the traced run, written out as JSONL at the end.

A span has a name, start, end, parent span and the id of the operation
it belongs to.  Spans opened with :meth:`Tracer.span` nest through a
stack; :meth:`Tracer.add` records an interval timed elsewhere (service
job records) under an explicit parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: offset turning ``time.time()`` stamps (service job records) into the
#: ``perf_counter`` timebase spans use
WALL_TO_PERF = time.time() - time.perf_counter()


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or None, op id]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: str,
            parent: Optional[int] = None) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    # -- analysis ------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> self time of each span of that name: its
        duration minus the part its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, List[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append((end - start)
                             - _union(children[i], start, end))
        return out

    def wall(self, name: str) -> float:
        """Summed duration of the spans named ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


def _union(intervals: List[Tuple[float, float]], lo: float,
           hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
