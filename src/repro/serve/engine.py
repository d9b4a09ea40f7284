"""The ``repro serve`` daemon: sharded, batched online prediction.

One single-threaded driver multiplexes every client connection and every
shard worker over one ``selectors`` loop.  The data path is built so the
per-event cost is amortised three times over:

* **Clients batch**: one frame carries packed u64 columns for up to
  64Ki events (:mod:`repro.serve.protocol`).
* **The driver coalesces**: frames from *all* connections destined for
  the same shard are folded into one worker dispatch, so a pipe
  round-trip serves many streams at once.  At most one batch is in
  flight per shard; everything arriving meanwhile queues and rides the
  next dispatch.
* **Workers stay warm**: shard *i* is pinned to persistent pool worker
  *i* (``WorkerPool.shard_workers``), which hosts the shard's
  :class:`~repro.serve.streams.StreamManager` for its whole life.
  Stream affinity is ``crc32(stream_id) % shards`` — stable across
  connections and daemon restarts (unlike ``hash()``, which is salted
  per process).

Overload is answered, not absorbed: a shard whose queue is past
``high_water`` frames replies ``STATUS_BUSY`` immediately (the frame is
*not* applied; the client backs off and resends), so memory stays
bounded and latency stays measurable under any offered load.

A worker crash is contained: the dead process is replaced in its slot,
the frames it held get error replies, and the shard's streams restore
from their spool snapshots on next touch (``serve.shard_crash`` counts
casualties).

``backend="inproc"`` runs every shard's manager inside the driver
process — the fallback for sandboxes that forbid ``fork``, and the
baseline the bench suite compares pool dispatch against.
"""

from __future__ import annotations

import os
import selectors
import socket
import sys
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..harness.parallel import POOL_FAILURES, get_pool
from ..telemetry import MetricsRegistry, get_logger
from . import protocol, shard as shard_mod
from .protocol import (
    OP_STATS,
    STATUS_ERROR,
    FrameReader,
    ProtocolError,
    Request,
)

log = get_logger("repro.serve.engine")

DEFAULT_PORT = 9477
DEFAULT_SHARDS = 4
DEFAULT_HIGH_WATER = 256
DEFAULT_BATCH_EVENTS = 32768

#: RTT samples kept for the daemon-stats latency percentiles.
_LATENCY_RING = 8192


def shard_of(stream_id: str, shards: int) -> int:
    """Stable stream→shard affinity (crc32, not the salted ``hash()``)."""
    return zlib.crc32(stream_id.encode("utf-8")) % shards


def default_spool() -> str:
    base = os.environ.get("REPRO_SERVE_SPOOL")
    if base:
        return base
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(root, "repro-serve", f"spool-{os.getpid()}")


@dataclass
class ServeConfig:
    """Tuning knobs for one daemon instance (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: Optional[int] = DEFAULT_PORT          # None = no socket listener
    stdio: bool = False                          # serve stdin/stdout frames
    shards: int = DEFAULT_SHARDS
    max_streams: int = 0                         # 0 = StreamManager default
    high_water: int = DEFAULT_HIGH_WATER         # frames queued per shard
    batch_events: int = DEFAULT_BATCH_EVENTS     # events folded per dispatch
    backend: str = "pool"                        # "pool" | "inproc"
    spool: str = field(default_factory=default_spool)


class _Conn:
    """One client connection (socket or the stdio pipe pair)."""

    __slots__ = ("cid", "sock", "rfd", "wfd", "reader", "out", "closing")

    def __init__(self, cid: int, sock: Optional[socket.socket] = None,
                 rfd: Optional[int] = None, wfd: Optional[int] = None):
        self.cid = cid
        self.sock = sock
        self.rfd = rfd
        self.wfd = wfd
        self.reader = FrameReader()
        self.out = bytearray()
        self.closing = False  # flush pending output, then close


class _Shard:
    """Driver-side view of one shard: its queue and in-flight batch."""

    __slots__ = ("index", "queue", "inflight", "busy")

    def __init__(self, index: int):
        self.index = index
        #: Waiting frames: (conn_id, Request, arrival perf_counter).
        self.queue: Deque[Tuple[int, Request, float]] = deque()
        #: Frames inside the currently dispatched batch, tag-ordered.
        self.inflight: List[Tuple[int, Request, float]] = []
        self.busy = False


class ServeEngine:
    """The daemon event loop.  ``start()`` binds, ``serve_forever()``
    runs until :meth:`stop` (or stdio EOF), ``close()`` releases
    everything except the shared worker pool itself."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sel = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._conns: Dict[int, _Conn] = {}
        self._next_cid = 1
        self._next_tag = 1
        self._shards = [_Shard(i) for i in range(self.config.shards)]
        self._shard_streams = [0] * self.config.shards
        self._pool = None
        self._stopping = False
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_RING)
        self._qps_mark = (time.monotonic(), 0)
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "ServeEngine":
        cfg = self.config
        if cfg.shards < 1:
            raise ValueError("at least one shard is required")
        # Shard workers read their manager config from the environment
        # (the pool's setup envelope mirrors REPRO_* into workers).
        os.environ["REPRO_SERVE_SPOOL"] = cfg.spool
        if cfg.max_streams:
            os.environ["REPRO_SERVE_STREAMS"] = str(cfg.max_streams)
        os.makedirs(cfg.spool, exist_ok=True)
        if cfg.backend == "pool":
            try:
                self._pool = get_pool(self.registry)
                self._pool.shard_workers(cfg.shards, self.registry)
                for i in range(cfg.shards):
                    self._sel.register(self._pool.shard_conn(i),
                                       selectors.EVENT_READ, ("shard", i))
                    self._sel.register(self._pool.shard_sentinel(i),
                                       selectors.EVENT_READ, ("sentinel", i))
            except POOL_FAILURES as exc:
                log.warning("worker pool unavailable (%s: %s); "
                            "serving in-process", type(exc).__name__, exc)
                self.registry.counter("serve.inproc_fallback").inc()
                self._pool = None
        if cfg.port is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((cfg.host, cfg.port))
            listener.listen(128)
            listener.setblocking(False)
            self._listener = listener
            self.address = listener.getsockname()[:2]
            self._sel.register(listener, selectors.EVENT_READ, ("listener",))
        if cfg.stdio:
            conn = _Conn(self._next_cid, rfd=sys.stdin.fileno(),
                         wfd=sys.stdout.fileno())
            self._next_cid += 1
            self._conns[conn.cid] = conn
            self._sel.register(conn.rfd, selectors.EVENT_READ,
                               ("conn", conn.cid))
        return self

    def stop(self) -> None:
        self._stopping = True

    def close(self) -> None:
        for conn in list(self._conns.values()):
            self._drop_conn(conn)
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._pool is not None:
            for i in range(self.config.shards):
                for obj in (self._pool.shard_conn(i),
                            self._pool.shard_sentinel(i)):
                    try:
                        self._sel.unregister(obj)
                    except (KeyError, ValueError):
                        pass
            self._pool.shard_unpin()
            self._pool = None
        else:
            shard_mod.reset_shards()
        self._sel.close()

    # -- the loop ---------------------------------------------------------
    def serve_forever(self, poll_s: float = 0.2) -> None:
        try:
            while not self._stopping:
                for key, _mask in self._sel.select(poll_s):
                    self._dispatch_ready(key)
                self._pump()
                self._flush_all()
                self._tick()
                if self.config.stdio and not self._conns:
                    break  # stdio peer closed: a clean shutdown request
        finally:
            self.close()

    def _dispatch_ready(self, key) -> None:
        kind = key.data[0]
        if kind == "listener":
            self._accept()
        elif kind == "conn":
            conn = self._conns.get(key.data[1])
            if conn is not None:
                if key.events & selectors.EVENT_READ:
                    self._read_conn(conn)
        elif kind == "shard":
            self._drain_shard(key.data[1])
        elif kind == "sentinel":
            self._shard_died(key.data[1])

    # -- client side ------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(self._next_cid, sock=sock)
            self._next_cid += 1
            self._conns[conn.cid] = conn
            self._sel.register(sock, selectors.EVENT_READ,
                               ("conn", conn.cid))
            self.registry.counter("serve.connections").inc()
            self.registry.gauge("serve.open_connections").set(
                len(self._conns))

    def _read_conn(self, conn: _Conn) -> None:
        try:
            if conn.sock is not None:
                data = conn.sock.recv(1 << 18)
            else:
                data = os.read(conn.rfd, 1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_conn(conn)
            return
        if not data:
            self._drop_conn(conn)
            return
        try:
            frames = conn.reader.feed(data)
        except ProtocolError as exc:
            # The byte stream itself is broken (hostile length prefix):
            # one error reply, then close — resynchronising is hopeless.
            self.registry.counter("serve.protocol_error").inc()
            conn.out += protocol.encode_error(0, 0, str(exc))
            conn.closing = True
            return
        for payload in frames:
            self._on_frame(conn, payload)

    def _drop_conn(self, conn: _Conn) -> None:
        self._conns.pop(conn.cid, None)
        if conn.sock is not None:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        elif conn.rfd is not None:
            try:
                self._sel.unregister(conn.rfd)
            except (KeyError, ValueError):
                pass
        self.registry.gauge("serve.open_connections").set(len(self._conns))
        # In-flight frames from this connection complete in the workers
        # (state must advance deterministically); their replies are
        # simply dropped at delivery.

    def _on_frame(self, conn: _Conn, payload: bytes) -> None:
        self.registry.counter("serve.frames").inc()
        try:
            req = protocol.decode_request(payload)
        except ProtocolError as exc:
            self.registry.counter("serve.protocol_error").inc()
            conn.out += protocol.encode_error(0, 0, str(exc))
            return
        if req.op == OP_STATS and not req.stream_id:
            conn.out += protocol.encode_daemon_stats(
                req.op, req.req_id, self.daemon_stats())
            return
        if not req.stream_id:
            conn.out += protocol.encode_error(
                req.op, req.req_id, "a stream id is required for this op")
            return
        shard = self._shards[shard_of(req.stream_id, self.config.shards)]
        if len(shard.queue) >= self.config.high_water:
            self.registry.counter("serve.busy").inc()
            conn.out += protocol.encode_busy(req.op, req.req_id)
            return
        shard.queue.append((conn.cid, req, time.perf_counter()))

    # -- shard dispatch ---------------------------------------------------
    def _pump(self) -> None:
        for shard in self._shards:
            if shard.busy or not shard.queue:
                continue
            events = []
            frames: List[Tuple[int, Request, float]] = []
            nevents = 0
            while shard.queue and nevents < self.config.batch_events:
                cid, req, t0 = shard.queue.popleft()
                events.append((len(events), req.op, req.gated,
                               req.want_values, req.stream_id,
                               req.predictor, req.pcs, req.values))
                frames.append((cid, req, t0))
                nevents += len(req.pcs) or 1
            payload = {"shard": shard.index, "events": events}
            self.registry.histogram("serve.batch_frames").observe(
                len(events))
            self.registry.histogram("serve.batch_events").observe(nevents)
            if self._pool is None:
                self._apply_replies(shard, frames,
                                    shard_mod.apply_batch(payload))
                continue
            shard.inflight = frames
            shard.busy = True
            tag = self._next_tag
            self._next_tag += 1
            try:
                self._pool.shard_send(shard.index, shard_mod.apply_batch,
                                      tag, payload, self.registry)
            except OSError:
                self._shard_died(shard.index)

    def _drain_shard(self, index: int) -> None:
        if self._pool is None:
            return
        shard = self._shards[index]
        while True:
            try:
                if not self._pool.shard_conn(index).poll(0):
                    return
                kind, _tag, result = self._pool.shard_recv(index)
            except (EOFError, OSError):
                self._shard_died(index)
                return
            frames, shard.inflight, shard.busy = shard.inflight, [], False
            if kind == "ok":
                self._apply_replies(shard, frames, result)
            else:  # a bug escaped apply_batch; fail the batch, keep serving
                message = f"shard batch failed: {result}"
                log.warning("%s", message)
                for cid, req, _t0 in frames:
                    self._reply_error(cid, req, message)

    def _shard_died(self, index: int) -> None:
        """Replace a dead worker in place and fail what it held."""
        if self._pool is None:
            return
        shard = self._shards[index]
        self.registry.counter("serve.shard_crash").inc()
        for obj in (self._pool.shard_conn(index),
                    self._pool.shard_sentinel(index)):
            try:
                self._sel.unregister(obj)
            except (KeyError, ValueError):
                pass
        try:
            self._pool.shard_replace(index, self.registry)
        except POOL_FAILURES as exc:
            log.warning("cannot replace shard %d worker (%s); "
                        "falling back to in-process serving", index, exc)
            self._pool.shard_unpin()
            self._pool = None
            self.registry.counter("serve.inproc_fallback").inc()
        else:
            self._sel.register(self._pool.shard_conn(index),
                               selectors.EVENT_READ, ("shard", index))
            self._sel.register(self._pool.shard_sentinel(index),
                               selectors.EVENT_READ, ("sentinel", index))
        frames, shard.inflight, shard.busy = shard.inflight, [], False
        for cid, req, _t0 in frames:
            self._reply_error(
                cid, req,
                "shard worker died mid-batch; resident stream state was "
                "reset (snapshots restore on next touch)")

    # -- replies ----------------------------------------------------------
    def _apply_replies(self, shard: _Shard,
                       frames: List[Tuple[int, Request, float]],
                       result: Dict[str, Any]) -> None:
        now = time.perf_counter()
        replies = result["replies"]
        for (cid, req, t0), (tag, status, body) in zip(frames, replies):
            self._latencies.append((now - t0) * 1000.0)
            conn = self._conns.get(cid)
            if conn is None:
                continue  # client went away; state already advanced
            if status == STATUS_ERROR:
                self.registry.counter("serve.errors").inc()
                conn.out += protocol.encode_error(req.op, req.req_id, body)
                continue
            conn.out += self._encode_ok(req, body)
        self._merge_counters(shard.index, result.get("counters") or {})

    def _reply_error(self, cid: int, req: Request, message: str) -> None:
        self.registry.counter("serve.errors").inc()
        conn = self._conns.get(cid)
        if conn is not None:
            conn.out += protocol.encode_error(req.op, req.req_id, message)

    @staticmethod
    def _encode_ok(req: Request, body: Tuple) -> bytes:
        kind = body[0]
        if kind == "outcome":
            return protocol.encode_outcome(req.op, req.req_id,
                                           body[1], body[2])
        if kind == "predictions":
            return protocol.encode_predictions(req.op, req.req_id, body[1])
        if kind == "trained":
            return protocol.encode_trained(req.op, req.req_id, body[1])
        if kind == "snapshot":
            return protocol.encode_snapshot(req.op, req.req_id,
                                            body[2], body[1])
        if kind == "stats":
            return protocol.encode_stats(req.op, req.req_id,
                                         body[1], body[2])
        return protocol.encode_error(req.op, req.req_id,
                                     f"unknown reply kind {kind!r}")

    def _merge_counters(self, index: int, counters: Dict[str, int]) -> None:
        for name, amount in counters.items():
            if name == "streams":
                self._shard_streams[index] = amount
            elif amount:
                self.registry.counter(f"serve.{name}").inc(amount)
        self.registry.gauge("serve.streams").set(sum(self._shard_streams))

    # -- output flushing --------------------------------------------------
    def _flush_all(self) -> None:
        for conn in list(self._conns.values()):
            if conn.out:
                self._flush(conn)
            if conn.closing and not conn.out:
                self._drop_conn(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            if conn.sock is not None:
                while conn.out:
                    sent = conn.sock.send(conn.out)
                    if sent <= 0:
                        break
                    del conn.out[:sent]
            else:
                while conn.out:
                    written = os.write(conn.wfd, conn.out)
                    del conn.out[:written]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_conn(conn)

    # -- observability ----------------------------------------------------
    def _tick(self) -> None:
        mark_t, mark_events = self._qps_mark
        now = time.monotonic()
        if now - mark_t < 1.0:
            return
        events = self.registry.counter("serve.events").value
        self.registry.gauge("serve.qps").set(
            round((events - mark_events) / (now - mark_t), 1))
        self._qps_mark = (now, events)

    def latency_percentiles(self) -> Dict[str, float]:
        sample = sorted(self._latencies)
        if not sample:
            return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0}
        def pct(q: float) -> float:
            return sample[min(len(sample) - 1, int(q * len(sample)))]
        return {"p50_ms": round(pct(0.50), 4),
                "p90_ms": round(pct(0.90), 4),
                "p99_ms": round(pct(0.99), 4)}

    def daemon_stats(self) -> Dict[str, Any]:
        counters = {name: c.value
                    for name, c in self.registry.counters.items()
                    if name.startswith("serve.")}
        return {
            "shards": self.config.shards,
            "backend": "pool" if self._pool is not None else "inproc",
            "streams": sum(self._shard_streams),
            "connections": len(self._conns),
            "qps": self.registry.gauge("serve.qps").value,
            "latency": self.latency_percentiles(),
            "counters": counters,
        }


def run_serve(config: ServeConfig,
              registry: Optional[MetricsRegistry] = None,
              announce=None) -> ServeEngine:
    """CLI entry: start the engine, install signal handlers, serve until
    stopped.  *announce* (fd-like ``write``) gets one ready line — the
    bound address — so scripts can wait for it before connecting."""
    import signal

    engine = ServeEngine(config, registry=registry).start()
    if announce is not None and engine.address is not None:
        announce.write(f"repro-serve listening on "
                       f"{engine.address[0]}:{engine.address[1]} "
                       f"({config.shards} shards, "
                       f"{'pool' if engine._pool else 'inproc'} backend)\n")
        announce.flush()

    def _stop(_signum, _frame):
        engine.stop()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    engine.serve_forever()
    return engine
