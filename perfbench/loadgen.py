"""The benchmark's serve load generator: one connection, closed and open
loops, frames timed from when they were due.

It differs from ``repro loadgen`` in three ways:

* an open-loop frame's latency runs from its *due* time, not from when
  it was actually sent, so a stall in the generator (or a full socket)
  is charged to every frame it delays; how late each frame was sent is
  reported separately;
* stream ids are fresh for every run (the caller passes them), and the
  generator remembers every frame each stream had applied, so its
  ``OP_STATS`` check is exact however many phases the streams took
  part in;
* it talks to a daemon in another process, so the two never share an
  interpreter lock.

All frames of a phase are encoded before the phase starts.
"""

from __future__ import annotations

import contextlib
import gc
import json
import pickle
import select
import socket
import sys
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import common
from common import JOBS, BenchError, Workdir
from repro.serve import protocol

FRAME_EVENTS = 32


@contextlib.contextmanager
def quiet_gc():
    """Keep the generator's own garbage collector out of the timings: a
    full collection over the benchmark process's heap stalls sends for
    several milliseconds, which would be charged to the daemon."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class Stream:
    """One value stream: a window onto a workload's value pairs, read
    circularly, 32 events per frame."""

    __slots__ = ("sid", "spec", "pcs", "values", "offset", "next_frame",
                 "applied")

    def __init__(self, sid: str, spec: str, pcs: array, values: array,
                 offset: int):
        self.sid = sid
        self.spec = spec
        self.pcs = pcs
        self.values = values
        self.offset = offset
        self.next_frame = 0
        #: Frame indices the daemon applied, in application order.
        self.applied: List[int] = []

    def frame(self, k: int) -> Tuple[array, array]:
        n = len(self.pcs)
        start = (self.offset + k * FRAME_EVENTS) % n
        end = start + FRAME_EVENTS
        if end <= n:
            return self.pcs[start:end], self.values[start:end]
        wrap = end - n
        return (self.pcs[start:] + self.pcs[:wrap],
                self.values[start:] + self.values[:wrap])

    def applied_pairs(self) -> Tuple[array, array]:
        pcs = array("Q")
        values = array("Q")
        for k in self.applied:
            fp, fv = self.frame(k)
            pcs.extend(fp)
            values.extend(fv)
        return pcs, values


class Phase:
    """What one phase observed."""

    def __init__(self):
        self.frames = 0
        self.ok = 0
        self.busy = 0
        self.errors = 0
        self.unanswered = 0
        self.events = 0
        self.latency_ms: List[float] = []
        self.late_ms: List[float] = []
        self.start_ns = 0
        self.end_ns = 0

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def rate_eps(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def failed(self) -> int:
        return self.busy + self.errors + self.unanswered


class Generator:
    """A single-connection client driving one daemon."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = protocol.FrameReader()
        self._next_req = 1

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def _req_id(self) -> int:
        req = self._next_req
        self._next_req = (self._next_req + 1) & 0xFFFFFFFF or 1
        return req

    def _encode(self, stream: Stream, k: int, req_id: int) -> bytes:
        pcs, values = stream.frame(k)
        return protocol.encode_request(protocol.OP_PREDICT_TRAIN, req_id,
                                       stream.sid, stream.spec, 0, pcs,
                                       values)

    def _replies(self, timeout: float) -> List[protocol.Response]:
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("daemon closed the connection")
        return [protocol.decode_response(p) for p in self.reader.feed(data)]

    def _settle(self, phase: Phase, resp: protocol.Response, stream: Stream,
                k: int) -> None:
        if resp.status == protocol.STATUS_OK and resp.stats is not None:
            phase.ok += 1
            phase.events += resp.stats[0]
            stream.applied.append(k)
        elif resp.status == protocol.STATUS_BUSY:
            phase.busy += 1
        else:
            phase.errors += 1

    # -- closed loop ------------------------------------------------------------
    def closed_loop(self, streams: Sequence[Stream], frames_per_stream: int,
                    timeout_s: float = 120.0) -> Phase:
        """Every stream keeps one frame in flight until it has sent
        *frames_per_stream* frames; a BUSY frame is sent again."""
        phase = Phase()
        plan: List[List[Tuple[int, bytes]]] = []
        owner: Dict[int, Tuple[int, int, int]] = {}
        for si, stream in enumerate(streams):
            frames = []
            for j in range(frames_per_stream):
                k = stream.next_frame + j
                req = self._req_id()
                frames.append((k, self._encode(stream, k, req)))
                owner[req] = (si, j, k)
            stream.next_frame += frames_per_stream
            plan.append(frames)
        phase.frames = len(owner)
        sent_at: Dict[int, int] = {}
        reqs = {(si, j): req for req, (si, j, _k) in owner.items()}
        phase.start_ns = time.perf_counter_ns()
        now = phase.start_ns
        out = []
        for si in range(len(streams)):
            req = reqs[(si, 0)]
            sent_at[req] = now
            out.append(plan[si][0][1])
        self.sock.sendall(b"".join(out))
        answered = 0
        deadline = time.monotonic() + timeout_s
        while answered < phase.frames and time.monotonic() < deadline:
            out = []
            for resp in self._replies(deadline - time.monotonic()):
                now = time.perf_counter_ns()
                if resp.req_id not in owner:
                    continue  # a straggler from an earlier phase
                si, j, k = owner[resp.req_id]
                if resp.status == protocol.STATUS_BUSY:
                    phase.busy += 1
                    sent_at[resp.req_id] = now
                    out.append(plan[si][j][1])
                    continue
                answered += 1
                phase.latency_ms.append((now - sent_at.pop(resp.req_id))
                                        / 1e6)
                self._settle(phase, resp, streams[si], k)
                phase.end_ns = now
                if j + 1 < frames_per_stream:
                    req = reqs[(si, j + 1)]
                    sent_at[req] = now
                    out.append(plan[si][j + 1][1])
            if out:
                self.sock.sendall(b"".join(out))
        phase.unanswered = phase.frames - answered
        return phase

    # -- open loop ----------------------------------------------------------------
    def open_loop(self, streams: Sequence[Stream], rate_eps: float,
                  duration_s: float, drain_s: float = 30.0) -> Phase:
        """Frames fall due every ``32 / rate_eps`` seconds, round-robin
        over *streams*, whether or not earlier ones were answered; a BUSY
        frame is dropped, not resent."""
        phase = Phase()
        count = max(1, int(round(rate_eps * duration_s / FRAME_EVENTS)))
        interval_ns = int(FRAME_EVENTS / rate_eps * 1e9)
        frames: List[bytes] = []
        owner: Dict[int, Tuple[int, int, int]] = {}
        for i in range(count):
            si = i % len(streams)
            stream = streams[si]
            k = stream.next_frame
            stream.next_frame += 1
            req = self._req_id()
            frames.append(self._encode(stream, k, req))
            owner[req] = (si, k, i)
        phase.frames = count
        start = time.perf_counter_ns() + 2_000_000
        phase.start_ns = start
        due = [start + i * interval_ns for i in range(count)]
        nxt = 0
        answered = 0
        drain_deadline: Optional[float] = None
        while answered < count:
            now = time.perf_counter_ns()
            if nxt < count and due[nxt] <= now:
                batch = []
                while nxt < count and due[nxt] <= now:
                    phase.late_ms.append((now - due[nxt]) / 1e6)
                    batch.append(frames[nxt])
                    nxt += 1
                self.sock.sendall(b"".join(batch))
                continue
            if nxt < count:
                wait_s = (due[nxt] - now) / 1e9
            else:
                if drain_deadline is None:
                    drain_deadline = time.monotonic() + drain_s
                wait_s = drain_deadline - time.monotonic()
                if wait_s <= 0:
                    break
            for resp in self._replies(wait_s):
                now = time.perf_counter_ns()
                if resp.req_id not in owner:
                    continue
                si, k, i = owner[resp.req_id]
                answered += 1
                if resp.status == protocol.STATUS_OK:
                    phase.latency_ms.append((now - due[i]) / 1e6)
                self._settle(phase, resp, streams[si], k)
                phase.end_ns = now
        phase.unanswered = count - answered
        return phase

    # -- checks ---------------------------------------------------------------------
    def _request(self, sid: str = "") -> protocol.Response:
        req = self._req_id()
        self.sock.sendall(protocol.encode_request(protocol.OP_STATS, req,
                                                  sid))
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for resp in self._replies(deadline - time.monotonic()):
                if resp.req_id == req:
                    return resp
        raise TimeoutError(f"no OP_STATS reply for {sid or 'the daemon'}")

    def stream_stats(self, sid: str) -> Optional[Tuple[int, ...]]:
        resp = self._request(sid)
        if resp.status != protocol.STATUS_OK or resp.stats is None:
            return None
        return tuple(resp.stats)

    def daemon_stats(self) -> Dict:
        return self._request().daemon or {}


def reference_stats(spec: str, pcs: array,
                    values: array) -> Tuple[int, ...]:
    """``batch_reference_stats`` of one stream, as ``OP_STATS`` gives it."""
    from repro.serve.streams import batch_reference_stats

    ref = batch_reference_stats(spec, False, pcs, values)
    return (ref.attempts, ref.predictions, ref.correct, ref.confident,
            ref.confident_correct)


def verify(gen: Generator, streams: Sequence[Stream], work: Workdir,
           break_reference: bool = False) -> List[str]:
    """Every stream's ``OP_STATS`` against ``batch_reference_stats`` over
    exactly the frames it had applied; returns the mismatching ids.

    The references replay every event the streams were sent, which costs
    about as much CPU as serving them did, so ``JOBS`` processes
    (``loadgen.py --reference``) share them.
    """
    cmds = []
    for part in range(JOBS):
        jobs = [(stream.spec, *(col.tobytes()
                                for col in stream.applied_pairs()))
                for stream in streams[part::JOBS]]
        src = work.path(f"reference-{part}.pickle")
        with open(src, "wb") as fh:
            pickle.dump(jobs, fh)
        dst = work.path(f"reference-{part}.json")
        cmds.append((common.Command(
            [sys.executable, __file__, "--reference", str(src), str(dst)],
            work.env(work.path("reference-cache")), work.root,
            work.path(f"reference-{part}.log")), dst))
    wants: List[Tuple[int, ...]] = [()] * len(streams)
    for part, (cmd, dst) in enumerate(cmds):
        if cmd.wait(170.0) != 0:
            raise BenchError(f"reference replay failed:\n{cmd.tail()}")
        wants[part::JOBS] = [tuple(w) for w in json.loads(dst.read_text())]
    bad = []
    for stream, want in zip(streams, wants):
        if break_reference:
            want = (want[0], want[1], want[2] + 1) + want[3:]
        if gen.stream_stats(stream.sid) != want:
            bad.append(stream.sid)
    return bad


def _reference_main(src: str, dst: str) -> None:
    """Replay the streams pickled at *src* (written by ``verify``) and
    write their reference stats to *dst*."""
    with open(src, "rb") as fh:
        jobs = pickle.load(fh)
    out = [reference_stats(spec, array("Q", pcs), array("Q", values))
           for spec, pcs, values in jobs]
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--reference":
        _reference_main(sys.argv[2], sys.argv[3])
    else:
        print("usage: loadgen.py --reference IN OUT", file=sys.stderr)
        sys.exit(2)
