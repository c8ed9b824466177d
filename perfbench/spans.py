"""In-memory span recorder used by the traced benchmark run.

Spans are recorded around the benchmark's own calls into the library's
public functions; nothing inside ``src/`` is instrumented.  A disabled
recorder calls straight through, so the untraced run pays one extra Python
call per library call and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class Recorder:
    """Collects ``(name, start, end, parent, item)`` spans and named counts."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.item: str | None = None
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn``, inside a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (summed duration) and
        ``self_s`` (duration not covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        """Write one JSON line per span: name, start, end, parent, item."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "item": item},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
