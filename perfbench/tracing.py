"""Span tracing from the benchmark's side of each layer boundary.

The traced run (``--trace 1``) installs timing wrappers around the
public functions where the program's layers call each other — the
program itself is not modified and records nothing.  Every wrapper
call is one span ``(name, layer, start, end, parent)``; spans stay in
memory and are written out when the run ends:

* a Chrome ``trace_event`` file (open it in Perfetto or
  ``chrome://tracing``);
* a per-layer table of self times (a span's duration minus its child
  spans), plus ``unattributed_s``: the part of the end-to-end time no
  top-level span covers.  The table sums to the end-to-end time by
  construction.

The tracing overhead is estimated from a calibration loop: the cost of
one wrapped no-op call minus a bare one, times the number of spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory spans from wrapped calls; :meth:`restore` unwraps."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, layer, t0, t1, parent]
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.recording = True

    # -- spans ----------------------------------------------------------- #

    def _timed(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer, _clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = _clock()

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Time every call of ``owner.attr`` (a module function or a
        class's method) as span ``name`` of ``layer``."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, layer))

    def call(self, name: str, layer: str, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """One span around a call the benchmark makes itself."""
        return self._timed(fn, name, layer)(*args, **kwargs)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reports --------------------------------------------------------- #

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, dict[str, float]]:
        """``{layer: {span name: self seconds}}``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s[1]][s[0]] += (s[3] - s[2]) - child[i]
        return out

    def layer_table(self, end_to_end_s: float) -> dict[str, Any]:
        top = sum(s[3] - s[2] for s in self.spans if s[4] < 0)
        table = {layer: {"self_s": sum(names.values()),
                         "spans": dict(names)}
                 for layer, names in sorted(self.self_times().items())}
        return {"end_to_end_s": end_to_end_s, "layers": table,
                "unattributed_s": end_to_end_s - top,
                "spans": len(self.spans),
                "overhead_s": overhead_per_span() * len(self.spans)}

    def write_chrome(self, path: Path, origin: float) -> None:
        events = []
        depth: list[int] = []
        for s in self.spans:
            depth.append(0 if s[4] < 0 else depth[s[4]] + 1)
            events.append({"name": s[0], "cat": s[1], "ph": "X",
                           "ts": (s[2] - origin) * 1e6,
                           "dur": (s[3] - s[2]) * 1e6,
                           "pid": 1, "tid": depth[-1]})
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def wrap_index_layer(tracer: Tracer) -> None:
    """Time the ``repro.index`` classification entry points."""
    from repro.index import circleset

    for owner, attr in ((circleset.RectClassifier, "quad_split"),
                        (circleset.RectClassifier, "classify"),
                        (circleset.CircleSet, "classify_rect"),
                        (circleset.CircleSet, "classify_rects"),
                        (circleset.CircleSet, "rects_intersecting")):
        tracer.wrap(owner, attr, f"index.{attr}", "repro.index")


def print_table(report: dict[str, Any]) -> None:
    total = report["end_to_end_s"]
    print(f"layer table: end-to-end {total:.4f} s over "
          f"{report['spans']} spans")
    summed = 0.0
    for layer, row in report["layers"].items():
        summed += row["self_s"]
        print(f"  {layer:<34} {row['self_s']:10.4f} s "
              f"{100 * row['self_s'] / total:6.2f}%")
    summed += report["unattributed_s"]
    print(f"  {'unattributed_s':<34} {report['unattributed_s']:10.4f} s")
    print(f"  {'sum':<34} {summed:10.4f} s")
    print(f"  tracing overhead (estimated) {report['overhead_s']:.4f} s "
          f"= {100 * report['overhead_s'] / total:.2f}% of end-to-end")


def overhead_per_span() -> float:
    """Seconds one wrapper adds to a call: best of five loops of a
    wrapped no-op minus best of five bare ones."""
    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer._timed(noop, "noop", "noop")
    n = 20000
    best_wrapped = best_bare = float("inf")
    for _ in range(5):
        t0 = _clock()
        for _ in range(n):
            noop()
        best_bare = min(best_bare, _clock() - t0)
        tracer.spans.clear()
        t0 = _clock()
        for _ in range(n):
            wrapped()
        best_wrapped = min(best_wrapped, _clock() - t0)
    return max(0.0, (best_wrapped - best_bare) / n)
