"""The online prediction plane, end to end.

The load-bearing property is **serve == batch**: a stream chopped into
frames, routed through shards, evicted to a snapshot and restored, must
accumulate exactly the ``PredictionStats`` the batch harness computes
over the same pair stream.  Everything else — LRU bounds, backpressure,
crash containment, transports — is tested against that invariant.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from array import array

import pytest

from repro.harness.parallel import shutdown_pool
from repro.serve import protocol
from repro.serve.engine import ServeConfig, ServeEngine, shard_of
from repro.serve.loadgen import ServeClient, run_loadgen, stream_pairs
from repro.serve.protocol import (
    OP_PREDICT_TRAIN,
    OP_STATS,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
    encode_request,
    read_frame,
)
from repro.serve.snapshot import (
    SnapshotError,
    dump_stream,
    load_stream,
    snapshot_path,
)
from repro.serve.streams import (
    SERVE_PREDICTORS,
    StreamError,
    StreamManager,
    batch_reference_stats,
)
from repro.telemetry import MetricsRegistry


def _pairs(events=400, bench="gcc"):
    (_sid, pcs, values), = stream_pairs(1, events, (bench,))
    return pcs, values


def _expected(spec, gated, pcs, values):
    stats = batch_reference_stats(spec, gated, pcs, values)
    return (stats.attempts, stats.predictions, stats.correct,
            stats.confident, stats.confident_correct)


@pytest.fixture
def engine_factory(tmp_path, monkeypatch):
    """Start daemons on ephemeral ports; tear all of them down after."""
    started = []

    def factory(**overrides):
        overrides.setdefault("backend", "inproc")
        overrides.setdefault("shards", 2)
        overrides.setdefault("spool",
                             str(tmp_path / f"spool{len(started)}"))
        config = ServeConfig(port=0, **overrides)
        engine = ServeEngine(config, registry=MetricsRegistry()).start()
        thread = threading.Thread(target=engine.serve_forever,
                                  kwargs={"poll_s": 0.02}, daemon=True)
        thread.start()
        started.append((engine, thread))
        return engine

    yield factory
    for engine, thread in started:
        engine.stop()
        thread.join(timeout=10)
    shutdown_pool()


def _client(engine, **kwargs):
    host, port = engine.address
    return ServeClient.connect(host, port, **kwargs)


class TestSnapshotContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.rps"
        predictor = SERVE_PREDICTORS["stride"]()
        predictor.update(8, 42)
        nbytes = dump_stream(path, "stride", False, predictor, None,
                             (5, 4, 3, 2, 1))
        assert nbytes == path.stat().st_size > 0
        spec, gated, restored, conf, stats = load_stream(path)
        assert (spec, gated, conf, stats) == ("stride", False, None,
                                              (5, 4, 3, 2, 1))
        assert restored.predict(8) == predictor.predict(8)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "s.rps"
        dump_stream(path, "stride", False, SERVE_PREDICTORS["stride"](),
                    None, (0,) * 5)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_stream(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "s.rps"
        dump_stream(path, "stride", False, SERVE_PREDICTORS["stride"](),
                    None, (0,) * 5)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(SnapshotError):
            load_stream(path)

    def test_path_never_embeds_stream_id(self, tmp_path):
        hostile = "../../etc/passwd\x00weird"
        path = snapshot_path(tmp_path, hostile)
        assert path.parent == tmp_path
        assert "passwd" not in path.name


class TestStreamManager:
    def test_lru_bound_evicts_to_spool_and_restores(self, tmp_path):
        manager = StreamManager(max_streams=2, spool=str(tmp_path))
        pcs, values = _pairs(120)
        first = manager.touch("a", "stride", False)
        first.predict_train(pcs, values)
        totals = first.stats_tuple()
        manager.touch("b", "stride", False)
        manager.touch("c", "stride", False)  # evicts "a"
        assert len(manager) == 2
        assert not manager.resident("a")
        assert snapshot_path(tmp_path, "a").exists()
        restored = manager.touch("a", "stride", False)  # evicts "b"
        assert restored.stats_tuple() == totals
        counters = manager.drain_counters()
        assert counters["evictions"] == 2
        assert counters["restores"] == 1

    def test_spec_mismatch_rejected(self, tmp_path):
        manager = StreamManager(max_streams=4, spool=str(tmp_path))
        manager.touch("s", "stride", False)
        with pytest.raises(StreamError):
            manager.touch("s", "dfcm", False)
        with pytest.raises(StreamError):
            manager.touch("s", "stride", True)  # gating mismatch

    def test_unknown_spec_rejected(self, tmp_path):
        manager = StreamManager(max_streams=4, spool=str(tmp_path))
        with pytest.raises(StreamError):
            manager.touch("s", "perceptron-9000", False)

    @pytest.mark.parametrize("spec", sorted(SERVE_PREDICTORS))
    def test_frame_split_equals_batch(self, tmp_path, spec):
        """Chopping a stream into unaligned frames with an evict/restore
        in the middle changes nothing about the accumulated stats."""
        manager = StreamManager(max_streams=4, spool=str(tmp_path))
        pcs, values = _pairs(300)
        cuts = list(range(0, 300, 61))
        for n, off in enumerate(cuts):
            record = manager.touch("s", spec, False)
            record.predict_train(pcs[off:off + 61], values[off:off + 61])
            if n == 2:
                manager.evict("s")
        final = manager.touch("s", spec, False)
        assert final.stats_tuple() == _expected(spec, False, pcs, values)

    def test_gated_frame_split_equals_batch(self, tmp_path):
        manager = StreamManager(max_streams=4, spool=str(tmp_path))
        pcs, values = _pairs(300)
        for off in range(0, 300, 47):
            record = manager.touch("g", "gdiff32", True)
            record.predict_train(pcs[off:off + 47], values[off:off + 47])
        assert record.stats_tuple() == _expected("gdiff32", True, pcs,
                                                 values)


class TestShardOf:
    def test_stable_across_processes(self):
        # crc32-based, NOT hash(): must not depend on PYTHONHASHSEED.
        assert shard_of("lg-0001-gcc", 4) == shard_of("lg-0001-gcc", 4)
        code = ("from repro.serve.engine import shard_of;"
                "print(shard_of('lg-0001-gcc', 4))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": "99"})
        assert int(out.stdout) == shard_of("lg-0001-gcc", 4)

    def test_spreads_streams(self):
        shards = {shard_of(f"s{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}


class TestServeEndToEnd:
    def test_bit_identity_inproc(self, engine_factory):
        engine = engine_factory()
        pcs, values = _pairs(260)
        with _client(engine) as client:
            for off in range(0, 260, 64):
                resp = client.predict_train("s1", "gdiff8",
                                            pcs[off:off + 64],
                                            values[off:off + 64])
                assert resp.status == STATUS_OK
            stats = client.stats("s1")
        assert stats.resident
        assert stats.stats == _expected("gdiff8", False, pcs, values)

    def test_bit_identity_pool_with_evict_restore(self, engine_factory):
        engine = engine_factory(backend="pool")
        if engine._pool is None:
            pytest.skip("worker pool unavailable on this runner")
        pcs, values = _pairs(260)
        with _client(engine) as client:
            for n, off in enumerate(range(0, 260, 64)):
                resp = client.predict_train("p1", "stride",
                                            pcs[off:off + 64],
                                            values[off:off + 64])
                assert resp.status == STATUS_OK
                if n == 1:
                    evicted = client.evict("p1")
                    assert evicted.status == STATUS_OK
                    assert evicted.nbytes > 0
            stats = client.stats("p1")
        assert stats.stats == _expected("stride", False, pcs, values)

    def test_per_frame_deltas_sum_to_totals(self, engine_factory):
        engine = engine_factory()
        pcs, values = _pairs(200)
        deltas = []
        with _client(engine) as client:
            for off in range(0, 200, 50):
                resp = client.predict_train("d1", "dfcm",
                                            pcs[off:off + 50],
                                            values[off:off + 50])
                deltas.append(resp.stats)
            totals = client.stats("d1").stats
        summed = tuple(sum(col) for col in zip(*deltas))
        assert summed == totals

    def test_unknown_predictor_is_an_error_reply(self, engine_factory):
        engine = engine_factory()
        with _client(engine) as client:
            resp = client.predict_train("bad", "nope", array("Q", [1]),
                                        array("Q", [2]))
            assert resp.status == STATUS_ERROR
            assert "nope" in resp.error
            # ... and the daemon keeps serving.
            ok = client.predict_train("good", "stride", array("Q", [1]),
                                      array("Q", [2]))
            assert ok.status == STATUS_OK

    def test_daemon_stats_document(self, engine_factory):
        engine = engine_factory()
        with _client(engine) as client:
            client.predict_train("x", "stride", array("Q", [1, 1]),
                                 array("Q", [2, 3]))
            doc = client.stats().daemon
        assert doc["shards"] == 2
        assert doc["backend"] == "inproc"
        assert doc["counters"]["serve.frames"] >= 1

    def test_busy_backpressure(self, engine_factory):
        engine = engine_factory(high_water=1, shards=1)
        host, port = engine.address
        sock = socket.create_connection((host, port), timeout=5)
        reader = protocol.FrameReader()
        try:
            # One TCP segment carrying many frames: the engine reads them
            # in one recv, so frames past the high-water mark see a full
            # queue and bounce with BUSY (the pump only runs between
            # select rounds).
            burst = b"".join(
                encode_request(OP_PREDICT_TRAIN, i, "bp", "stride",
                               pcs=[7], values=[i])
                for i in range(12))
            sock.sendall(burst)
            statuses = []
            sock.settimeout(5)
            while len(statuses) < 12:
                frames = reader.feed(sock.recv(1 << 16))
                statuses.extend(
                    protocol.decode_response(f).status for f in frames)
        finally:
            sock.close()
        assert STATUS_BUSY in statuses
        applied = statuses.count(STATUS_OK)
        assert applied >= 1
        # BUSY frames were *not* applied: the stream saw exactly the
        # accepted events.
        with _client(engine) as client:
            assert client.stats("bp").stats[0] == applied

    def test_worker_crash_contained(self, engine_factory):
        engine = engine_factory(backend="pool", shards=2)
        if engine._pool is None:
            pytest.skip("worker pool unavailable on this runner")
        with _client(engine) as client:
            first = client.predict_train("c1", "stride",
                                         array("Q", [3, 3]),
                                         array("Q", [5, 6]))
            assert first.status == STATUS_OK
            # Kill the shard worker out from under the daemon.
            victim = engine._pool._shard_worker(
                shard_of("c1", 2)).proc.pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10
            crashed = False
            while time.time() < deadline and not crashed:
                crashed = engine.registry.counter(
                    "serve.shard_crash").value >= 1
                time.sleep(0.05)
            assert crashed, "sentinel never fired"
            # The daemon replaced the worker in place: same shard, fresh
            # process, still serving (state restarted from scratch).
            resp = client.predict_train("c1", "stride",
                                        array("Q", [3, 3]),
                                        array("Q", [5, 6]))
            assert resp.status in (STATUS_OK, STATUS_ERROR)
            again = client.predict_train("c1", "stride",
                                         array("Q", [3]),
                                         array("Q", [7]))
            assert again.status == STATUS_OK


class TestStdioTransport:
    def test_frames_over_stdin_stdout(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.getcwd(), "src")]
                       + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)),
                   REPRO_SERVE_SPOOL=str(tmp_path / "spool"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--backend", "inproc", "--shards", "1", "--port", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            proc.stdin.write(encode_request(
                OP_PREDICT_TRAIN, 1, "io", "stride",
                pcs=[4, 4, 4], values=[1, 2, 3]))
            proc.stdin.write(encode_request(OP_STATS, 2, "io"))
            proc.stdin.flush()
            outcome = protocol.decode_response(read_frame(proc.stdout))
            stats = protocol.decode_response(read_frame(proc.stdout))
            assert outcome.status == STATUS_OK and outcome.req_id == 1
            assert stats.stats == outcome.stats  # one frame = the totals
            proc.stdin.close()  # EOF = clean shutdown request
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestLoadgen:
    def test_stream_pairs_ignore_cache_setting(self, monkeypatch):
        """``REPRO_CACHE=0`` changes where the trace comes from, never
        the payloads the load generator sends."""
        cached = stream_pairs(2, 100, workloads=("gcc",), length=2000)
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = stream_pairs(2, 100, workloads=("gcc",), length=2000)
        assert uncached == cached

    def test_closed_loop_report_and_verify(self, engine_factory):
        engine = engine_factory()
        host, port = engine.address
        report = run_loadgen(host, port, streams=4, events_per_stream=150,
                             frame_events=64, predictor="stride",
                             workloads=("gcc", "mcf"), verify=True)
        assert report["events_applied"] == 600
        assert report["errors"] == 0
        assert report["events_eps"] > 0
        assert report["p99_ms"] >= report["p50_ms"] >= 0
        verify = report["verify"]
        assert verify["checked"] == 4
        assert verify["matched"] == 4, verify["mismatches"]

    def test_imported_trace_replay_verifies(self, engine_factory,
                                            tmp_path, monkeypatch):
        """`repro loadgen --trace <imported>`: recorded streams replayed
        through the daemon stay bit-identical to the batch harness."""
        from repro.trace.ingest import import_trace

        monkeypatch.setenv("REPRO_IMPORT_DIR", str(tmp_path / "imported"))
        source = tmp_path / "replay.csv"
        source.write_text(
            "\n".join(f"{0x400000 + (i % 6) * 4},{i * 11 % (1 << 31)}"
                      for i in range(400)) + "\n", encoding="utf-8")
        import_trace(source, name="replay")
        engine = engine_factory()
        host, port = engine.address
        report = run_loadgen(host, port, streams=3, events_per_stream=120,
                             frame_events=48, predictor="gdiff8",
                             workloads=("replay",), verify=True)
        assert report["errors"] == 0
        verify = report["verify"]
        assert verify["matched"] == verify["checked"] == 3, \
            verify["mismatches"]

    def test_open_loop_reports_offered_rate(self, engine_factory):
        engine = engine_factory()
        host, port = engine.address
        report = run_loadgen(host, port, streams=2, events_per_stream=100,
                             frame_events=50, predictor="stride",
                             mode="open", rate=50_000.0,
                             workloads=("gcc",))
        assert report["mode"] == "open"
        assert report["offered_eps"] > 0
        assert report["events_offered"] == 200
