"""Zero-copy shared-memory trace segments, for the trace benchmarks.

This module publishes a :class:`~repro.trace.packed.PackedTrace` once
into a ``multiprocessing.shared_memory`` segment; a reader attaches by
name and wraps the segment's buffer in zero-copy ``memoryview``-backed
columns.  An attach costs one CRC pass over the already-uncompressed
bytes on first touch and a dict lookup afterwards — no file read, no
inflate, no column rebuild.

No runtime path reads a segment.  :func:`repro.trace.cache.cached_trace`
serves the in-process memo, then the disk cache, and the pool ships its
workers only the driver's environment: workers load each trace from the
disk cache, which measured faster and smaller than publishing even on
grids where two pool batches read one trace (docs/PERFORMANCE.md,
"Trace residency").  The callers are perfbench's trace layer, which
times :func:`attach` against the disk load, and
``benchmarks/bench_parallel.py``; nothing under ``repro`` imports this
module.

Lifecycle:

* The publisher owns every segment it publishes; publishing the same key
  twice returns the one existing handle.
* :func:`unpublish_all` — registered via ``atexit`` on first publish —
  closes and unlinks everything at publisher exit; the stdlib resource
  tracker unlinks the segments of a publisher that dies hard on its
  own.  Killing the publisher's whole process group kills the tracker
  too, and its segments then outlive it.
* A forked child that publishes nothing never closes or unlinks what
  its parent published (the pid guard on :func:`unpublish_all`).
* Any failure — unsupported platform, missing segment after a publisher
  exit, checksum mismatch from a scribbled buffer — raises
  :class:`ShmError` at the attach site.

Telemetry (on an attached :class:`~repro.telemetry.MetricsRegistry`):
``shm.publish`` / ``shm.publish_bytes`` / ``shm.publish_failed``,
``shm.attach`` / ``shm.attach_bytes``, ``shm.checksum_refused``, and the
``shm.segments`` / ``shm.bytes`` gauges.
"""

from __future__ import annotations

import atexit
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..telemetry import get_logger
from .packed import COLUMNS, PackedTrace

log = get_logger("repro.trace.shm")

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    _shared_memory = None


class ShmError(RuntimeError):
    """A shared-memory segment is unavailable, truncated, or corrupt."""


#: Identity of one published trace: ``(workload, length, seed,
#: code_copies)`` with the *effective* (resolved) seed.
TraceKey = Tuple[str, int, Optional[int], int]


@dataclass(frozen=True)
class ShmTraceHandle:
    """Picklable pointer to a published trace: everything a reader needs
    to attach — segment name, column layout, and publish-time checksums."""

    key: TraceKey
    segment: str
    trace_name: str
    count: int
    #: ``(column, typecode, offset, nbytes)`` in serialisation order.
    layout: Tuple[Tuple[str, str, int, int], ...]
    #: Publish-time CRC-32 per column, aligned with *layout*.
    checksums: Tuple[int, ...]
    nbytes: int


#: The publisher's live segments, ``key -> (segment, handle)``, owned by
#: ``_OWNER_PID``.  A forked child inherits the dict; unless it publishes,
#: it never closes or unlinks what it holds (the pid guard in
#: :func:`unpublish_all`).
_PUBLISHED: Dict[TraceKey, Tuple[object, ShmTraceHandle]] = {}
_OWNER_PID: Optional[int] = None
_CLEANUP_REGISTERED = False

#: Validated attachments: segment name -> (shm, trace).  The shm object
#: must stay referenced while the trace's memoryviews live.
_ATTACHED: Dict[str, Tuple[object, PackedTrace]] = {}

#: Segments detach_all could not close because views were still exported;
#: kept referenced so their __del__ never runs against live pointers.
_LEAKED: List[object] = []


def _count(metrics, name: str, amount: int = 1) -> None:
    if metrics is not None:
        metrics.counter(f"shm.{name}").inc(amount)


def _set_gauges(metrics) -> None:
    if metrics is not None:
        metrics.gauge("shm.segments").set(len(_PUBLISHED))
        metrics.gauge("shm.bytes").set(
            sum(handle.nbytes for _seg, handle in _PUBLISHED.values()))


# ---------------------------------------------------------------------------
# Publisher side: publish / unpublish
# ---------------------------------------------------------------------------
def publish(trace: PackedTrace, key: TraceKey,
            metrics=None) -> Optional[ShmTraceHandle]:
    """Publish *trace* under *key*; returns its handle, or ``None`` when
    the platform has no shared memory or the OS refuses a segment.

    Publishing an already-published key returns the existing handle —
    segments are shared, never duplicated.
    """
    global _OWNER_PID, _CLEANUP_REGISTERED
    if _shared_memory is None:  # pragma: no cover - platform without shm
        return None
    pub = _PUBLISHED.get(key)
    if pub is not None and _OWNER_PID == os.getpid():
        return pub[1]
    columns = trace.columns()
    layout: List[Tuple[str, str, int, int]] = []
    checksums: List[int] = []
    blobs: List[bytes] = []
    offset = 0
    for col, typecode in COLUMNS:
        raw = columns[col].tobytes()
        layout.append((col, typecode, offset, len(raw)))
        checksums.append(zlib.crc32(raw))
        blobs.append(raw)
        offset += len(raw)
    try:
        segment = _shared_memory.SharedMemory(create=True,
                                              size=max(offset, 1))
        for (_col, _tc, off, nbytes), raw in zip(layout, blobs):
            segment.buf[off:off + nbytes] = raw
    except (OSError, ValueError) as exc:
        log.warning("could not publish %s to shared memory: %s", key, exc)
        _count(metrics, "publish_failed")
        return None
    handle = ShmTraceHandle(
        key=key, segment=segment.name, trace_name=trace.name,
        count=len(trace), layout=tuple(layout),
        checksums=tuple(checksums), nbytes=offset)
    _PUBLISHED[key] = (segment, handle)
    _OWNER_PID = os.getpid()
    if not _CLEANUP_REGISTERED:
        atexit.register(unpublish_all)
        _CLEANUP_REGISTERED = True
    _count(metrics, "publish")
    _count(metrics, "publish_bytes", offset)
    _set_gauges(metrics)
    log.info("published %s as %s (%d bytes)", key, segment.name, offset)
    return handle


def _destroy(segment) -> None:
    try:
        segment.close()
    except (BufferError, OSError):  # exported views still alive: unlink
        pass                        # alone is enough, mappings persist
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass


def unpublish_all(metrics=None) -> int:
    """Unlink every publication this process owns (publisher-exit
    cleanup); a forked child only forgets its inherited copy."""
    if _OWNER_PID != os.getpid():
        _PUBLISHED.clear()
        return 0
    removed = 0
    for segment, _handle in list(_PUBLISHED.values()):
        _destroy(segment)
        removed += 1
    _PUBLISHED.clear()
    _set_gauges(metrics)
    return removed


# ---------------------------------------------------------------------------
# Reader side: attach / detach
# ---------------------------------------------------------------------------
def attach(handle: ShmTraceHandle, metrics=None) -> PackedTrace:
    """Attach to a published segment and return its zero-copy trace.

    The first attach of a segment verifies every column's CRC-32 against
    the publish-time checksum and refuses (``ShmError``) on mismatch;
    later attaches are a dict hit on the validated mapping.
    """
    if _shared_memory is None:  # pragma: no cover - platform without shm
        raise ShmError("shared memory is not supported on this platform")
    hit = _ATTACHED.get(handle.segment)
    if hit is not None:
        _count(metrics, "attach")
        return hit[1]
    try:
        segment = _shared_memory.SharedMemory(name=handle.segment,
                                              create=False)
    except (OSError, ValueError) as exc:
        raise ShmError(
            f"segment {handle.segment} unavailable: {exc}") from None
    # Python registers *attached* POSIX segments with the resource
    # tracker too.  A reader in the publisher's process, or a forked
    # child of it, shares the publisher's tracker, whose cache is a set,
    # so the attach-time register is a no-op there.  (Unregistering here
    # would delete the *publisher's* registration.)
    views: List[memoryview] = []
    columns: Dict[str, memoryview] = {}
    try:
        if segment.size < handle.nbytes:
            raise ShmError(
                f"segment {handle.segment} holds {segment.size} bytes, "
                f"handle promises {handle.nbytes}")
        for (col, typecode, offset, nbytes), crc in zip(handle.layout,
                                                        handle.checksums):
            raw = segment.buf[offset:offset + nbytes]
            views.append(raw)
            if zlib.crc32(raw) != crc:
                _count(metrics, "checksum_refused")
                raise ShmError(
                    f"segment {handle.segment} column {col} checksum "
                    "mismatch (corrupt or torn publication)")
            columns[col] = raw.cast(typecode)
        trace = PackedTrace(columns, name=handle.trace_name)
        if len(trace) != handle.count:
            raise ShmError(
                f"segment {handle.segment} holds {len(trace)} "
                f"instructions, handle promises {handle.count}")
    except ShmError:
        # Release every exported view (casts before their parent slices)
        # so the mapping can actually close instead of leaking.
        for view in list(columns.values()) + views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - defensive
                pass
        try:
            segment.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass
        raise
    _ATTACHED[handle.segment] = (segment, trace)
    _count(metrics, "attach")
    _count(metrics, "attach_bytes", handle.nbytes)
    return trace


def detach_all() -> int:
    """Drop every attachment (test hook; a live trace keeps its segment
    mapped regardless)."""
    removed = 0
    for segment, _trace in _ATTACHED.values():
        try:
            segment.close()
        except (BufferError, OSError):
            # Views still exported by a live trace: keep the object
            # referenced so its __del__ does not re-raise at GC time.
            _LEAKED.append(segment)
        removed += 1
    _ATTACHED.clear()
    return removed
