"""The serve workloads: ``repro serve --shards 2`` in its own process,
driven by the benchmark's generator over one connection.

``serve-hot``: 64 streams, every one resident, 32-event PREDICT_TRAIN
frames; the per-frame path (decode, coalesce, pipe round trip, apply,
encode) dominates.  ``serve-churn``: the same daemon and frame mix with
``--max-streams 16`` per shard and 256 streams touched round-robin, so
every frame restores one snapshot and spills another.

A run launches the daemon several times to time set-up (launch, ready
line, a warm-up on separate stream ids) and measures on the last one:

1. a priming round (one frame per stream, untimed) so every stream
   exists before anything is timed (on serve-churn: so every later
   frame restores rather than creates);
2. closed-loop sessions of a fixed size, one frame in flight per stream
   (``wall_s``, ``throughput_eps``, ``p50_ms``, ``p99_ms``);
3. an open-loop rate ladder (``max_rate_eps``);
4. the ``OP_STATS`` check of every stream against
   ``batch_reference_stats``.

With 64 frames always in flight, the closed loop's mean round trip is
64 x 32 events / ``throughput_eps`` (Little's law), so ``p50_ms`` carries
about the same signal as the throughput; ``p99_ms`` adds the tail.
README.md says why latency is not taken at low concurrency instead.

The open-loop phase at the nominal rate, timed from each frame's due
time, runs in the traced run (``loadgen.nominal_p50_ms`` and
``loadgen.nominal_p99_ms``): on a two-core virtual machine its tail
moves with the hypervisor's steal time far more than any end-to-end
bound allows.

Stream ids are fresh for every run (seed plus process id); the streams
carry on from phase to phase and the generator checks each against
everything it had applied.  Starting fresh streams per rung would leave
64 more resident streams (~75 MiB) behind every rung on serve-hot, and
on serve-churn would turn each rung's first round into stream creation
instead of restores.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import attribution
import common
import loadgen
from common import (JOBS, SETUP_REPS, SUITE, TINY_SETUP_REPS, BenchError,
                    Workdir, metric, median, note)

FAMILIES = ("gdiff32", "hgvq", "stride", "dfcm")
#: Trace length per suite workload the streams read from.
PAYLOAD_LENGTH = 8000
TINY_PAYLOAD_LENGTH = 2000
#: Share of --seconds spent in the closed-loop sessions.  The ladder
#: takes ``RUNG_S`` per rung it runs, about fifteen on serve-hot today:
#: the rest of --seconds.
CLOSED_SHARE = 0.55
#: Length of one ladder rung: fixed, so adding rungs does not shorten
#: (and add noise to) the others.
RUNG_S = 0.75
TINY_RUNG_S = 0.2
#: Ratio between consecutive rungs above a shape's fine start.
RUNG_STEP = 1.07
#: The ladder ends after this many failing rungs in a row, so one
#: hiccup does not end the climb.
LADDER_MISSES = 2
#: Length of the traced run's nominal-rate phase.
NOMINAL_S = 4.0
#: Closed-loop sessions in the traced run's attribution window (and in
#: its untraced twin, for the tracing overhead).
TRACED_SESSIONS = 3


def rungs(coarse: Tuple[float, ...], fine_from: float,
          top: float) -> Tuple[float, ...]:
    """The *coarse* rungs, then rungs ``RUNG_STEP`` apart from
    *fine_from* up to *top*."""
    out = list(coarse)
    rate = fine_from
    while rate <= top:
        out.append(round(rate))
        rate *= RUNG_STEP
    return tuple(out)


class Shape:
    """One serve workload's fixed parameters."""

    def __init__(self, streams: int, max_streams: int, closed_frames: int,
                 ladder: Tuple[float, ...], nominal: float,
                 p99_limit_ms: float):
        self.streams = streams
        self.max_streams = max_streams
        #: Frames per stream in one closed-loop session.
        self.closed_frames = closed_frames
        #: Open-loop rungs, events/s, ascending.
        self.ladder = ladder
        self.nominal = nominal
        self.p99_limit_ms = p99_limit_ms


# Coarse rungs far below today's capacity keep a slower daemon on the
# ladder; fine rungs 7% apart run from about half of today's
# closed-loop throughput to several times it, so a faster daemon still
# finds rungs above its capacity.  The p99 limits sit well above the
# latency of rungs below saturation, so a rung misses when the daemon
# saturates: BUSY replies, or a backlog that grows until the latency
# from due time passes the limit.  A rung just past saturation may still
# pass, and then its achieved rate is the daemon's capacity.  The
# nominal rates are about a third of closed-loop throughput on a
# two-core machine.
SHAPES = {
    "serve-hot": Shape(streams=64, max_streams=0, closed_frames=64,
                       ladder=rungs((40_000, 80_000), 100_000, 800_000),
                       nominal=60_000, p99_limit_ms=250.0),
    "serve-churn": Shape(streams=256, max_streams=16, closed_frames=2,
                         ladder=rungs((1_000, 2_000, 3_000), 4_000, 40_000),
                         nominal=2_000, p99_limit_ms=400.0),
}


class Daemon:
    """``repro serve`` in its own session."""

    def __init__(self, work: Workdir, tag: str, shape: Shape,
                 spans_dir=None, metrics_out=None):
        args = ["serve", "--shards", str(JOBS), "--port", "0", "--spool",
                str(work.fresh(f"{tag}-spool")), "--no-progress"]
        if shape.max_streams:
            args += ["--max-streams", str(shape.max_streams)]
        if metrics_out is not None:
            args += ["--metrics-out", str(metrics_out)]
        argv = (common.launcher_argv(spans_dir, args) if spans_dir
                else [sys.executable, "-m", "repro", *args])
        self.cmd = common.Command(argv, work.env(work.path("serve-cache")),
                                  work.root, work.path(f"{tag}.log"),
                                  stdout=subprocess.PIPE)
        line = self._ready_line(60.0)
        address = line.split("listening on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _ready_line(self, timeout: float) -> str:
        out = self.cmd.proc.stdout
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline().decode(errors="replace")
                if "listening on" in line:
                    return line
                if not line:
                    break
        self.cmd.kill()
        raise BenchError(f"daemon never became ready:\n{self.cmd.tail()}")

    def stop(self) -> None:
        code = self.cmd.terminate(60.0)
        self.cmd.proc.stdout.close()
        if code != 0:
            raise BenchError(f"daemon exited {code}:\n{self.cmd.tail()}")


class ServeWorkload:
    def __init__(self, name: str, seed: int, seconds: float, tiny: bool,
                 break_reference: bool):
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.break_reference = break_reference
        # Spool writes of earlier runs still being flushed to disk would
        # slow this run's snapshots.
        os.sync()
        self.work = Workdir(name)
        self.attempted = 0
        self.failed = 0
        self.columns = self._payloads()

    def _payloads(self) -> Dict[str, tuple]:
        from repro.trace.cache import TraceCache

        cache = TraceCache(self.work.path("payload-cache"))
        length = TINY_PAYLOAD_LENGTH if self.tiny else PAYLOAD_LENGTH
        return {bench: cache.load_or_generate(bench, length,
                                              seed=self.seed).value_pairs()
                for bench in SUITE}

    def streams(self, prefix: str, count: int) -> List[loadgen.Stream]:
        """*count* streams cycling through the families and the suite.

        Each id carries a salt chosen so the daemon's crc32 affinity puts
        every group of four consecutive streams (one per family) on the
        same shard, alternating shards: both shards get the same number
        of streams of each family.  Left to chance, the split changes
        with the ids, and an unlucky one loads one shard with the heavy
        gDiff/HGVQ streams, moving every figure from run to run.
        """
        from repro.serve.engine import shard_of

        out = []
        for i in range(count):
            bench = SUITE[i % len(SUITE)]
            family = FAMILIES[i % len(FAMILIES)]
            want = (i // len(FAMILIES)) % JOBS
            salt = 0
            while True:
                sid = f"{prefix}-{i:03d}-{bench}-{family}-{salt}"
                if shard_of(sid, JOBS) == want:
                    break
                salt += 1
            pcs, values = self.columns[bench]
            out.append(loadgen.Stream(sid, family, pcs, values,
                                      (i * 7919) % len(pcs)))
        return out

    # -- daemon life ------------------------------------------------------------
    def launch(self, tag: str, **kwargs) -> Tuple[Daemon, loadgen.Generator,
                                                  float]:
        """Launch, wait for the ready line, warm up on separate stream
        ids; returns the seconds all that took as the third item."""
        daemon = Daemon(self.work, tag, self.shape, **kwargs)
        gen = loadgen.Generator(daemon.host, daemon.port)
        warm = self.streams(f"warm-{tag}-{os.getpid()}", 2 * len(FAMILIES))
        phase = gen.closed_loop(warm, 2)
        setup_s = (time.perf_counter_ns() - daemon.cmd.t0_ns) / 1e9
        if phase.failed:
            raise BenchError(f"daemon warm-up failed: {phase.failed} frames")
        return daemon, gen, setup_s

    def primed_streams(self, gen: loadgen.Generator,
                       tag: str) -> List[loadgen.Stream]:
        """Fresh streams, each created by one untimed frame, then one
        untimed closed-loop session so the measured ones start in steady
        state (on serve-churn, with the spool's write-back under way)."""
        streams = self.streams(f"pb{self.seed}-{os.getpid()}-{tag}",
                               self.shape.streams)
        for frames in (1, self.closed_frames()):
            phase = gen.closed_loop(streams, frames)
            if phase.failed:
                raise BenchError(f"priming failed: {phase.failed} frames")
        return streams

    def check(self, gen: loadgen.Generator,
              streams: List[loadgen.Stream]) -> None:
        bad = loadgen.verify(gen, streams, self.work, self.break_reference)
        self.attempted += len(streams)
        self.failed += len(bad)
        for sid in bad[:5]:
            note(f"{self.name}: stream {sid} differs from the batch "
                 "harness")

    def count(self, phase: loadgen.Phase) -> None:
        self.attempted += phase.frames
        self.failed += phase.failed

    def closed_frames(self) -> int:
        return 1 if self.tiny else self.shape.closed_frames

    # -- measurement --------------------------------------------------------------
    def measure(self) -> Dict[str, Dict[str, object]]:
        setups = []
        reps = TINY_SETUP_REPS if self.tiny else SETUP_REPS
        for rep in range(reps - 1):
            daemon, gen, setup_s = self.launch(f"setup{rep}")
            setups.append(setup_s)
            gen.close()
            daemon.stop()
        daemon, gen, setup_s = self.launch("measure")
        setups.append(setup_s)
        note(f"{self.name}: set-up {', '.join(f'{s:.3f}' for s in setups)} s")
        try:
            streams = self.primed_streams(gen, "m")
            with loadgen.quiet_gc():
                sessions = self.closed_sessions(
                    gen, streams, CLOSED_SHARE * self.seconds)
                best = self.ladder(gen, streams)
            self.check(gen, streams)
        finally:
            gen.close()
            daemon.stop()
        rates = [s.rate_eps for s in sessions]
        p50s = [common.percentile(s.latency_ms, 50) for s in sessions]
        p99s = [_p99(s.latency_ms) for s in sessions]
        note(f"{self.name}: closed {', '.join(f'{r:.0f}' for r in rates)} "
             f"ev/s; p50 {', '.join(f'{v:.2f}' for v in p50s)} ms; p99 "
             f"{', '.join(f'{v:.2f}' for v in p99s)} ms; "
             f"{sessions[0].frames} frames a session")
        return {
            "setup_s": metric(median(setups), "s"),
            "wall_s": metric(median(s.wall_s for s in sessions), "s"),
            "throughput_eps": metric(median(rates), "events/s"),
            "max_rate_eps": metric(best, "events/s"),
            "p50_ms": metric(median(p50s), "ms"),
            "p99_ms": metric(median(p99s), "ms"),
            "peak_rss_mb": metric(daemon.cmd.peak_mb, "MiB"),
        }

    def closed_sessions(self, gen: loadgen.Generator,
                        streams: List[loadgen.Stream],
                        seconds: float) -> List[loadgen.Phase]:
        """Fixed-size closed-loop sessions for about *seconds* (at least
        three)."""
        sessions: List[loadgen.Phase] = []
        started = time.perf_counter()
        while len(sessions) < 3 or time.perf_counter() - started < seconds:
            phase = gen.closed_loop(streams, self.closed_frames())
            self.count(phase)
            sessions.append(phase)
        return sessions

    def ladder(self, gen: loadgen.Generator,
               streams: List[loadgen.Stream]) -> float:
        """The highest event rate achieved by a rung that met the
        workload's limits; rungs of ``RUNG_S`` run in ascending order
        until ``LADDER_MISSES`` miss in a row.

        The last rung to pass has often just passed saturation, and its
        achieved rate then falls short of the one below it by however
        far the backlog had grown; the best passing rung does not depend
        on that.
        """
        rung_s = TINY_RUNG_S if self.tiny else RUNG_S
        best: Optional[float] = None
        misses = 0
        for rate in self.shape.ladder:
            # Rungs above capacity are meant to fail: a rung's refused
            # frames are its verdict, not failed operations.
            phase = gen.open_loop(streams, rate, rung_s)
            ok = self.rung_ok(phase)
            note(f"{self.name}: rung {rate:.0f} ev/s -> "
                 f"{phase.rate_eps:.0f} ev/s, p99 "
                 f"{_p99(phase.latency_ms):.1f} ms, late p99 "
                 f"{_p99(phase.late_ms):.1f} ms, busy {phase.busy}"
                 f"{'' if ok else ' (misses)'}")
            if ok:
                best = max(best or 0.0, phase.rate_eps)
                misses = 0
            else:
                misses += 1
                if misses >= LADDER_MISSES:
                    break
        if best is None:
            raise BenchError(f"{self.name}: no rung of the ladder met its "
                             "limits")
        return best

    def rung_ok(self, phase: loadgen.Phase) -> bool:
        """A rung holds when nothing was refused, failed or left
        unanswered and the p99 latency from due time (which grows with
        any backlog) and the generator's own lateness stay within the
        workload's limit."""
        limit = self.shape.p99_limit_ms
        return (phase.failed == 0 and bool(phase.latency_ms)
                and _p99(phase.latency_ms) <= limit
                and _p99(phase.late_ms) <= limit)

    def traced_sessions(self, gen: loadgen.Generator,
                        streams: List[loadgen.Stream]) -> Tuple[int, int]:
        """``TRACED_SESSIONS`` closed-loop sessions back to back; returns
        the window they span (perf_counter nanoseconds)."""
        sessions = [gen.closed_loop(streams, self.closed_frames())
                    for _ in range(TRACED_SESSIONS)]
        for phase in sessions:
            self.count(phase)
        return sessions[0].start_ns, sessions[-1].end_ns

    def traced_part(self) -> Dict[str, Dict[str, object]]:
        """The workload's share of a traced run: an untraced daemon (with
        a nominal-rate phase and the daemon's own counters) and a daemon
        under the span launcher, each running the same closed-loop
        sessions; the traced sessions' window is attributed to layers."""
        metrics_path = self.work.path("untraced-metrics.json")
        daemon, gen, _setup = self.launch("untraced",
                                          metrics_out=metrics_path)
        try:
            streams = self.primed_streams(gen, "u")
            with loadgen.quiet_gc():
                plain = self.traced_sessions(gen, streams)
                nominal = gen.open_loop(streams, self.shape.nominal,
                                        1.0 if self.tiny else NOMINAL_S)
            self.count(nominal)
            latency = gen.daemon_stats().get("latency", {})
            self.check(gen, streams)
        finally:
            gen.close()
            daemon.stop()
        spans_dir = self.work.fresh("spans")
        daemon, gen, _setup = self.launch("traced", spans_dir=spans_dir)
        try:
            streams = self.primed_streams(gen, "t")
            with loadgen.quiet_gc():
                traced = self.traced_sessions(gen, streams)
            self.check(gen, streams)
        finally:
            gen.close()
            daemon.stop()
        files, _counters = attribution.load_spans(spans_dir)
        traced_s = (traced[1] - traced[0]) / 1e9
        out = attribution.report(
            self.name, attribution.attribute(files, *traced), traced_s,
            traced_s - (plain[1] - plain[0]) / 1e9)
        served = json.loads(metrics_path.read_text())["metrics"]
        hist = served["histograms"]
        counts = served["counters"]
        frames = counts.get("serve.frames", 0)
        out.update({
            "serve.frames_per_dispatch": metric(
                hist["serve.batch_frames"]["mean"], "frames"),
            "serve.events_per_dispatch": metric(
                hist["serve.batch_events"]["mean"], "events"),
            "serve.driver_p50_ms": metric(latency["p50_ms"], "ms"),
            "serve.driver_p99_ms": metric(latency["p99_ms"], "ms"),
            "serve.restores_per_frame": metric(
                counts.get("serve.restores", 0) / frames, "ratio"),
            "serve.busy": metric(counts.get("serve.busy", 0), "count"),
            "loadgen.nominal_p50_ms": metric(
                common.percentile(nominal.latency_ms, 50), "ms"),
            "loadgen.nominal_p99_ms": metric(_p99(nominal.latency_ms), "ms"),
            "loadgen.late_p99_ms": metric(_p99(nominal.late_ms), "ms"),
        })
        return out

    def close(self) -> None:
        self.work.close()
        os.sync()


def _p99(values: List[float]) -> float:
    return common.percentile(values, 99) if values else 0.0
