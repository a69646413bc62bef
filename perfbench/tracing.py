"""Spans around the package's public functions, recorded from outside.

The tracer swaps a public function on the module object the caller resolves
it from (``drillstab.cli.fit``, ``drillstab.abc.run``, ...) for a wrapper
that records a span, and puts the original back afterwards. Spans are kept
in memory and written out when the run ends. Only calls on the thread that
installed the wrappers are recorded; the ABC worker threads call no wrapped
function.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans: name, start, end, parent span, run id and attributes.

    ``tag`` marks the spans recorded while it is set (the serial twin of an
    ABC stage), so that layer totals can leave them out.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.tag = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "tag": self.tag, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``annotate(args, kwargs, result)`` returns extra span attributes.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if annotate is not None:
                    rec.update(annotate(args, kwargs, result))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ queries

    def select(self, name: str, tag=None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["tag"] == tag]

    def total(self, name: str, tag=None) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, tag))

    def attr_sum(self, name: str, key: str, tag=None) -> float:
        return sum(s.get(key, 0) for s in self.select(name, tag))

    def self_time(self, rec: dict) -> float:
        """Span duration minus the part of it its child spans cover."""
        kids = sorted((s["start"], s["end"]) for s in self.spans
                      if s["parent"] == rec["id"])
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in kids:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        return rec["end"] - rec["start"] - covered
