"""Attribute a traced run's wall time to layers from its span files.

Every instant of the traced window is handed down a tree of spans:

* the root is the window itself (a batch command from launch to exit,
  or one serve session);
* a span's children are the spans it called in its own process, plus,
  for the launching process, the top-level spans of worker processes
  that ran while one of its dispatch spans was waiting on them;
* spans of other processes that no dispatch span covers (a serve
  shard's batches) are children of the root.

At each instant a span's share goes to its active children, split evenly
when several overlap (two workers busy at once each get half), and
stays with the span itself when no child is active: that remainder is
the span's self time.  The root's self time is ``unattributed``.  Every
share ends in exactly one layer, so the layer self times plus
``unattributed`` add up to the window.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import JOBS, BenchError, metric, note

#: Every layer a span can belong to.
LAYERS = ("trace", "kernel", "pipeline", "dispatch", "campaign",
          "serve.codec", "serve.apply", "serve.snapshot")

#: The layers each workload runs, reported as ``<workload>.self_s.<layer>``
#: beside ``<workload>.self_s.unattributed``.
WORKLOAD_LAYERS = {
    "reproduce": ("trace", "kernel", "pipeline", "dispatch"),
    "sweep": ("trace", "kernel", "dispatch", "campaign"),
    "serve-hot": ("kernel", "dispatch", "serve.codec", "serve.apply"),
    "serve-churn": ("kernel", "dispatch", "serve.codec", "serve.apply",
                    "serve.snapshot"),
}

#: Launcher-process spans that wait on pool workers; worker spans that
#: fall inside one become its children.
_DISPATCH_WINDOWS = {"map_outcomes", "run_tasks", "run_experiments"}


class Span:
    __slots__ = ("name", "layer", "tag", "start", "end", "children",
                 "pieces", "self_ns")

    def __init__(self, name: str, layer: str, tag: str, start: int,
                 end: int):
        self.name = name
        self.layer = layer
        self.tag = tag
        self.start = start
        self.end = end
        self.children: List["Span"] = []
        self.pieces: List[Tuple[int, int, float]] = []
        self.self_ns = 0.0


def load_spans(directory: Path,
               workers: int = JOBS) -> Tuple[List[dict], Dict[str, int]]:
    """All span files of one traced run, plus their summed counters.

    Raises ``BenchError`` unless the launching process and at least
    *workers* pool or shard workers wrote one: a worker that never wrote
    its spans would move its layers' time to its caller or to
    ``unattributed`` without a trace.
    """
    files = []
    counters: Dict[str, int] = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        files.append(doc)
        for name, value in doc.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    roles = [doc["role"] for doc in files]
    if roles.count("main") != 1 or roles.count("worker") < workers:
        raise BenchError(f"{directory}: spans of {roles.count('main')} "
                         f"launching and {roles.count('worker')} worker "
                         f"processes; want 1 and at least {workers}")
    return files, counters


def _build(files: List[dict], start_ns: int, end_ns: int) -> Span:
    root = Span("window", "unattributed", "", start_ns, end_ns)
    main_windows: List[Span] = []
    orphans: List[Span] = []
    for doc in files:
        spans = [Span(r[0], r[1], r[2], r[3], r[4]) for r in doc["spans"]]
        for rec, span in zip(doc["spans"], spans):
            parent = rec[5]
            if 0 <= parent < len(spans):
                spans[parent].children.append(span)
            elif doc["role"] == "main":
                root.children.append(span)
            else:
                orphans.append(span)
        if doc["role"] == "main":
            main_windows.extend(s for s in spans
                                if s.name in _DISPATCH_WINDOWS)
    # A worker span belongs to the innermost waiting dispatch span that
    # covers it: among windows starting before it, the latest-starting
    # one that also ends after it.
    main_windows.sort(key=lambda s: s.start)
    starts = [s.start for s in main_windows]
    for span in orphans:
        i = bisect.bisect_right(starts, span.start) - 1
        parent: Optional[Span] = None
        while i >= 0:
            candidate = main_windows[i]
            if candidate.end >= span.end:
                parent = candidate
                break
            i -= 1
        (parent or root).children.append(span)
    return root


def _distribute(span: Span) -> None:
    """Split *span*'s pieces between its self time and its children."""
    if not span.pieces:
        return
    if not span.children:
        span.self_ns += sum((b - a) * w for a, b, w in span.pieces)
        return
    events: List[Tuple[int, int, int]] = []  # (time, +1/-1, child index)
    for i, child in enumerate(span.children):
        a = max(child.start, span.start)
        b = min(child.end, span.end)
        if b > a:
            events.append((a, 1, i))
            events.append((b, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, Span] = {}
    ei = 0
    for a, b, w in span.pieces:
        # Advance the active set to the piece start.
        while ei < len(events) and events[ei][0] <= a:
            t, kind, i = events[ei]
            if kind > 0:
                active[i] = span.children[i]
            else:
                active.pop(i, None)
            ei += 1
        cursor = a
        while cursor < b:
            nxt = events[ei][0] if ei < len(events) else b
            seg_end = min(nxt, b)
            if seg_end > cursor:
                if active:
                    share = w / len(active)
                    for child in active.values():
                        child.pieces.append((cursor, seg_end, share))
                else:
                    span.self_ns += (seg_end - cursor) * w
                cursor = seg_end
            if seg_end == nxt and ei < len(events):
                t = events[ei][0]
                while ei < len(events) and events[ei][0] == t:
                    _t, kind, i = events[ei]
                    if kind > 0:
                        active[i] = span.children[i]
                    else:
                        active.pop(i, None)
                    ei += 1


def attribute(files: List[dict], start_ns: int,
              end_ns: int) -> Dict[str, float]:
    """``{layer: self seconds}`` over the window, plus ``unattributed``."""
    root = _build(files, start_ns, end_ns)
    root.pieces = [(start_ns, end_ns, 1.0)]
    totals = {layer: 0.0 for layer in LAYERS}
    totals["unattributed"] = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        _distribute(span)
        layer = span.layer if span.layer in totals else "unattributed"
        totals[layer] += span.self_ns / 1e9
        span.pieces = []
        stack.extend(c for c in span.children if c.pieces)
    return totals


def span_durations(files: List[dict], name: str) -> Dict[str, float]:
    """Wall seconds of every span called *name*, keyed by its id (summed
    when an id repeats)."""
    out: Dict[str, float] = {}
    for doc in files:
        for rec in doc["spans"]:
            if rec[0] == name:
                out[rec[2]] = out.get(rec[2], 0.0) + (rec[4] - rec[3]) / 1e9
    return out


def report(workload: str, selfs: Dict[str, float], wall_s: float,
           overhead_s: float) -> Dict[str, Dict[str, object]]:
    """A workload's traced metrics: self seconds of each layer it runs
    and ``unattributed`` (they add up to ``traced.wall_s``), and the
    tracing overhead, traced minus untraced wall time.

    Time in a layer the workload is not expected to run is reported
    with ``unattributed`` (and noted), so the sum still holds.
    """
    listed = WORKLOAD_LAYERS[workload]
    rest = selfs["unattributed"]
    out = {}
    for layer in LAYERS:
        if layer in listed:
            out[f"{workload}.self_s.{layer}"] = metric(selfs[layer], "s")
        elif selfs[layer] > 0:
            note(f"{workload}: {selfs[layer]:.4f} s in layer {layer}, "
                 "which this workload should not run")
            rest += selfs[layer]
    out[f"{workload}.self_s.unattributed"] = metric(rest, "s")
    out[f"{workload}.traced.wall_s"] = metric(wall_s, "s")
    out[f"{workload}.traced.overhead_s"] = metric(overhead_s, "s")
    return out
