"""Zero-copy shared-memory trace plane.

A trace that several processes read would otherwise be inflated from
the disk cache (:mod:`repro.trace.cache`) once per process.  This
module publishes a :class:`~repro.trace.packed.PackedTrace` once into a
``multiprocessing.shared_memory`` segment; readers attach by name and
wrap the segment's buffer in zero-copy ``memoryview``-backed columns.
An attach costs one CRC pass over the already-uncompressed bytes on
first touch and a dict lookup afterwards — no file read, no inflate,
no column rebuild.

No campaign publishes.  Its workers load each trace from the disk
cache, which measured faster and smaller than publishing even on grids
where two pool batches read one trace (docs/PERFORMANCE.md, "Trace
residency").  The plane's publishers are perfbench's trace layer and
``benchmarks/bench_parallel.py``; pool workers receive the publisher's
table of segments (:func:`current_table`), and
:func:`repro.trace.cache.cached_trace` looks a key up there before the
disk cache.

Lifecycle:

* The publisher owns every segment it publishes, reference-counted per
  trace key (publishing the same key twice shares one segment).
* :func:`unpublish_all` — registered via ``atexit`` on first publish —
  closes and unlinks everything at publisher exit; the stdlib resource
  tracker unlinks the segments of a publisher that dies hard on its
  own.  Killing the publisher's whole process group kills the tracker
  too, and its segments then outlive it.
* Workers attach read-only and never close or unlink what the
  publisher published (the pid guard on :func:`release` /
  :func:`unpublish_all`).
* Any failure — unsupported platform, missing segment after a publisher
  crash, checksum mismatch from a scribbled buffer — raises
  :class:`ShmError` at the attach site and degrades to the disk cache
  (see :func:`repro.trace.cache.cached_trace`), bit-identically.

``REPRO_SHM=0`` disables the plane entirely.

Telemetry (on an attached :class:`~repro.telemetry.MetricsRegistry`):
``shm.publish`` / ``shm.publish_bytes`` / ``shm.publish_failed``,
``shm.attach`` / ``shm.attach_bytes``, ``shm.local_hit``,
``shm.checksum_refused``, ``shm.fallback``, ``shm.release``, and the
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
#: code_copies)`` with the *effective* (resolved) seed — the same tuple
#: :func:`repro.trace.cache.cached_trace` keys its lookups on.
TraceKey = Tuple[str, int, Optional[int], int]


@dataclass(frozen=True)
class ShmTraceHandle:
    """Picklable pointer to a published trace: everything a worker needs
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


def shm_enabled() -> bool:
    """True when the platform supports shared memory and ``REPRO_SHM``
    is not set to ``0`` (or empty)."""
    if _shared_memory is None:  # pragma: no cover - platform without shm
        return False
    return os.environ.get("REPRO_SHM", "1") not in ("0", "")


class _Publication:
    __slots__ = ("shm", "handle", "trace", "refs")

    def __init__(self, shm, handle: ShmTraceHandle, trace: PackedTrace):
        self.shm = shm
        self.handle = handle
        self.trace = trace
        self.refs = 1


#: Driver-side registry of live publications, owned by ``_OWNER_PID``.
#: Forked workers inherit it read-only: they may *attach* through the
#: inherited handles but never close or unlink (the pid guard below).
_PUBLISHED: Dict[TraceKey, _Publication] = {}
_OWNER_PID: Optional[int] = None
_TABLE_VERSION = 0
_CLEANUP_REGISTERED = False

#: Worker-side handle table, installed by the pool dispatch envelope.
_INSTALLED: Dict[TraceKey, ShmTraceHandle] = {}

#: Worker-side validated attachments: segment name -> (shm, trace).  The
#: shm object must stay referenced while the trace's memoryviews live.
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
            sum(p.handle.nbytes for p in _PUBLISHED.values()))


# ---------------------------------------------------------------------------
# Driver side: publish / release
# ---------------------------------------------------------------------------
def publish(trace: PackedTrace, key: TraceKey,
            metrics=None) -> Optional[ShmTraceHandle]:
    """Publish *trace* under *key*; returns its handle, or ``None`` when
    shared memory is disabled or unavailable (callers fall back to disk).

    Publishing an already-published key bumps its reference count and
    returns the existing handle — segments are shared, never duplicated.
    """
    global _OWNER_PID, _TABLE_VERSION, _CLEANUP_REGISTERED
    if not shm_enabled():
        return None
    pub = _PUBLISHED.get(key)
    if pub is not None and _OWNER_PID == os.getpid():
        pub.refs += 1
        return pub.handle
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
    _PUBLISHED[key] = _Publication(segment, handle, trace)
    _OWNER_PID = os.getpid()
    _TABLE_VERSION += 1
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


def release(key: TraceKey, metrics=None) -> bool:
    """Drop one reference to *key*; unlink the segment at zero.  Only the
    publishing process may destroy (a forked child's release is a no-op
    beyond its own view of the table)."""
    global _TABLE_VERSION
    pub = _PUBLISHED.get(key)
    if pub is None:
        return False
    if _OWNER_PID != os.getpid():
        return False
    pub.refs -= 1
    if pub.refs > 0:
        return True
    del _PUBLISHED[key]
    _TABLE_VERSION += 1
    _destroy(pub.shm)
    _count(metrics, "release")
    _set_gauges(metrics)
    return True


def unpublish_all(metrics=None) -> int:
    """Unlink every publication this process owns (driver-exit cleanup)."""
    global _TABLE_VERSION
    if _OWNER_PID != os.getpid():
        _PUBLISHED.clear()
        return 0
    removed = 0
    for pub in list(_PUBLISHED.values()):
        _destroy(pub.shm)
        removed += 1
    _PUBLISHED.clear()
    _TABLE_VERSION += 1
    _set_gauges(metrics)
    return removed


def current_table() -> Tuple[int, Tuple[ShmTraceHandle, ...]]:
    """``(version, handles)`` of this process's publications — what the
    worker pool ships to workers when the version changes."""
    if _OWNER_PID != os.getpid():
        return (0, ())
    return (_TABLE_VERSION,
            tuple(pub.handle for pub in _PUBLISHED.values()))


# ---------------------------------------------------------------------------
# Worker side: install / attach / lookup
# ---------------------------------------------------------------------------
def install_table(handles) -> None:
    """Replace the worker-side handle table (pool dispatch envelope)."""
    _INSTALLED.clear()
    for handle in handles:
        _INSTALLED[tuple(handle.key)] = handle


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
    # tracker too.  Pool workers are forked children sharing the driver's
    # tracker process, whose cache is a set, so the attach-time register
    # is a no-op there.  (Unregistering here would delete the *driver's*
    # registration.)
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


def shm_trace(name: str, length: int, seed: Optional[int],
              code_copies: int, metrics=None) -> Optional[PackedTrace]:
    """The cache-integration lookup: the published trace for this key, or
    ``None`` (disabled, unpublished, or attach failure -> disk path).

    Publisher-side lookups return the original object without touching
    the segment; workers attach through the installed handle table (or
    the fork-inherited publication table)."""
    if not shm_enabled():
        return None
    key: TraceKey = (name, length, seed, code_copies)
    pub = _PUBLISHED.get(key)
    if pub is not None and _OWNER_PID == os.getpid():
        _count(metrics, "local_hit")
        return pub.trace
    handle = _INSTALLED.get(key)
    if handle is None and pub is not None:
        handle = pub.handle  # forked worker reading the inherited table
    if handle is None:
        return None
    try:
        return attach(handle, metrics=metrics)
    except ShmError as exc:
        log.warning("shm attach failed for %s (%s); "
                    "falling back to the disk cache", key, exc)
        _count(metrics, "fallback")
        return None


def detach_all() -> int:
    """Drop every worker-side attachment and installed handle (test
    hook; a live trace keeps its segment mapped regardless)."""
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
    _INSTALLED.clear()
    return removed
