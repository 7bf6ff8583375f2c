"""In-memory spans around the calls the benchmark makes into the library.

A span records its name (``layer.op``), start, end, parent span, item id,
phase and whether the call raised. Spans stay in memory and are written out
by the runner when the run ends. With tracing off, ``call`` is a plain call.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = None
        self.phase = "loop"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, layer: str, op: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named layer.op when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, op):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, layer: str, op: str, **extra):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": f"{layer}.{op}", "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "item": self.item, "phase": self.phase, "raised": False,
               **extra}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        except BaseException:
            rec["raised"] = True
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {rec["id"]: 0.0 for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += duration(rec)
    return {rec["id"]: duration(rec) - child[rec["id"]] for rec in spans}


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, median and total self time, calls that raised."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
    out = {}
    for name, recs in sorted(by_name.items()):
        times = [selfs[r["id"]] for r in recs]
        out[name] = {"calls": len(recs), "median_s": statistics.median(times),
                     "total_s": sum(times),
                     "raised": sum(r["raised"] for r in recs)}
    return out


def layer_self_time(spans: list[dict]) -> dict[str, float]:
    """Per layer, the self time of its spans. A span marked ``of`` repeats
    work the library did inside another span (the traced run's second
    ``verify_relations``), so it is left out."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for rec in spans:
        if "of" in rec:
            continue
        out[rec["layer"]] = out.get(rec["layer"], 0.0) + selfs[rec["id"]]
    return out
