"""Hierarchical spans: where wall-clock goes, across process boundaries.

A *span* is one timed region of a run — a CLI command, an experiment body,
a campaign cell — with identity (``trace_id``/``span_id``/``parent_id``),
wall and CPU time, and the pid that executed it.  Spans layer on the
existing phase-timer API: enabling a :class:`SpanTracker` on a
:class:`~repro.telemetry.metrics.MetricsRegistry` makes every
``registry.timer(...)`` block record a span in addition to its
:class:`~repro.telemetry.metrics.PhaseTiming`, so instrumented code does
not change at all.  Phases aggregate ("total wall in ``predict``");
spans individuate ("this one ``predict`` call, in worker 1234, under
that campaign cell").

Cross-process story: a driver captures :meth:`SpanTracker.context` —
``(trace_id, parent span_id)`` — and ships it to pool workers, which
build their own tracker from it.  Span start times are *absolute* wall
clock (``time.time_ns()`` units, anchored once per process and advanced
by the monotonic perf counter), so spans recorded by separate processes on
one machine land on one timeline; the driver's
:class:`~repro.telemetry.manifest.RunManifest` records the epoch
(``clock_epoch_ns``) every exported timestamp is anchored to.  Worker
span lists ride back to the driver inside the registry snapshot and fold
in via ``MetricsRegistry.merge``.

The exporter writes the Chrome trace-event format (``traceEvents`` with
complete ``"X"`` events, one ``pid`` per worker process), viewable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional

#: Snapshot schema version for span lists shipped between processes.
SPAN_SCHEMA_VERSION = 1

#: One wall-clock/perf-counter pair, read once per process.  A span's
#: absolute start is this wall anchor plus its perf-counter offset, so its
#: start and its duration come from one monotonic clock and a child span
#: can never end after its parent.
_WALL_ANCHOR_NS = time.time_ns()
_PERF_ANCHOR_NS = time.perf_counter_ns()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace identity."""
    return uuid.uuid4().hex[:16]


class Span:
    """One finished (or in-flight) timed region."""

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "dur_ns",
                 "cpu_ns", "pid", "args", "_perf0", "_cpu0")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 pid: int):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self._perf0 = time.perf_counter_ns()
        self.start_ns = _WALL_ANCHOR_NS + (self._perf0 - _PERF_ANCHOR_NS)
        self.dur_ns = 0
        self.cpu_ns = 0
        self.args: Optional[Dict[str, Any]] = None
        self._cpu0 = time.process_time_ns()

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "cpu_ns": self.cpu_ns,
        }
        if self.args:
            doc["args"] = self.args
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls.__new__(cls)
        span.name = data["name"]
        span.span_id = data["span_id"]
        span.parent_id = data.get("parent_id")
        span.pid = data.get("pid", 0)
        span.start_ns = data.get("start_ns", 0)
        span.dur_ns = data.get("dur_ns", 0)
        span.cpu_ns = data.get("cpu_ns", 0)
        span.args = data.get("args")
        span._perf0 = 0
        span._cpu0 = 0
        return span


class SpanTracker:
    """Records a tree (or forest) of spans for one process's share of a run.

    Span ids are ``<token>.<n>`` where *token* is a per-tracker random
    prefix — ids stay unique when a driver and an in-process serial
    "worker" both record under the same pid, and across genuinely
    separate worker processes.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None,
                 pid: Optional[int] = None):
        self.trace_id = trace_id or new_trace_id()
        #: Parent for root-level spans: the driver-side span this
        #: process's work nests under (None for the driver itself).
        self.root_parent_id = parent_id
        self.pid = os.getpid() if pid is None else pid
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._token = uuid.uuid4().hex[:8]
        self._next = 0

    # -- recording --------------------------------------------------------
    def begin(self, name: str) -> Span:
        """Open a span under the current one (or the root parent)."""
        self._next += 1
        parent = (self._stack[-1].span_id if self._stack
                  else self.root_parent_id)
        span = Span(name, f"{self._token}.{self._next}", parent, self.pid)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close *span* (and anything left open beneath it) and keep it."""
        span.dur_ns = time.perf_counter_ns() - span._perf0
        span.cpu_ns = time.process_time_ns() - span._cpu0
        while self._stack:
            if self._stack.pop() is span:
                break
        self.spans.append(span)
        return span

    class _SpanCtx:
        __slots__ = ("_tracker", "_name", "span")

        def __init__(self, tracker: "SpanTracker", name: str):
            self._tracker = tracker
            self._name = name
            self.span: Optional[Span] = None

        def __enter__(self) -> Span:
            self.span = self._tracker.begin(self._name)
            return self.span

        def __exit__(self, exc_type, exc, tb) -> None:
            self._tracker.end(self.span)

    def span(self, name: str) -> "SpanTracker._SpanCtx":
        """``with tracker.span("cell"): ...`` — begin/end as a context."""
        return self._SpanCtx(self, name)

    def current_id(self) -> Optional[str]:
        """The open span new children would nest under."""
        return self._stack[-1].span_id if self._stack else self.root_parent_id

    # -- cross-process plumbing -------------------------------------------
    def context(self) -> Dict[str, Any]:
        """The picklable context a worker rebuilds its tracker from."""
        return {"trace_id": self.trace_id, "parent_id": self.current_id()}

    @classmethod
    def from_context(cls, ctx: Optional[Dict[str, Any]]) -> "SpanTracker":
        if not ctx:
            return cls()
        return cls(trace_id=ctx.get("trace_id"),
                   parent_id=ctx.get("parent_id"))

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (finished spans only — in-flight spans
        belong to the process that will finish them)."""
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "spans": [span.as_dict() for span in self.spans],
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a shipped snapshot's spans into this tracker."""
        for item in data.get("spans", []):
            self.spans.append(Span.from_dict(item))

    def merge(self, other: "SpanTracker") -> None:
        self.spans.extend(other.spans)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def chrome_trace_events(spans: Iterable[Span],
                        epoch_ns: Optional[int] = None,
                        driver_pid: Optional[int] = None,
                        trace_id: Optional[str] = None) -> Dict[str, Any]:
    """Render *spans* as a Chrome trace-event document.

    Each span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` relative to *epoch_ns* (default: the
    earliest span start, so a trace always begins near t=0).  Every
    distinct pid also gets a ``process_name`` metadata event, labelled
    ``driver`` or ``worker`` relative to *driver_pid*.
    """
    spans = list(spans)
    if epoch_ns is None:
        epoch_ns = min((s.start_ns for s in spans), default=0)
    events: List[Dict[str, Any]] = []
    pids = sorted({s.pid for s in spans})
    for pid in pids:
        role = "driver" if driver_pid is None or pid == driver_pid \
            else "worker"
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{role} (pid {pid})"},
        })
    for span in spans:
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "cpu_ms": round(span.cpu_ns / 1e6, 3),
        }
        if span.args:
            args.update(span.args)
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": (span.start_ns - epoch_ns) / 1000.0,
            "dur": span.dur_ns / 1000.0,
            "pid": span.pid,
            "tid": 0,
            "args": args,
        })
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    meta: Dict[str, Any] = {"clock_epoch_ns": epoch_ns}
    if trace_id:
        meta["trace_id"] = trace_id
    doc["metadata"] = meta
    return doc


def write_chrome_trace(path: str, spans: Iterable[Span],
                       epoch_ns: Optional[int] = None,
                       driver_pid: Optional[int] = None,
                       trace_id: Optional[str] = None,
                       stream=None) -> int:
    """Write the Chrome trace document; returns the span count.

    ``path == "-"`` writes to *stream* (default stdout).
    """
    spans = list(spans)
    doc = chrome_trace_events(spans, epoch_ns=epoch_ns,
                              driver_pid=driver_pid, trace_id=trace_id)
    text = json.dumps(doc, indent=1) + "\n"
    if path == "-":
        if stream is None:
            import sys
            stream = sys.stdout
        stream.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(spans)
