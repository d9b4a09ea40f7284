"""Per-layer unit costs, timed from outside through each module's public
functions, plus an interpreter floor for the kernel and dispatch layers.

Run in a fresh process per traced run (``run_child``), so every "first
call" below really is the process's first::

    python3 perfbench/layers.py --work DIR --seed N [--tiny]

prints one JSON object of metrics as its last line.  No call here passes
a registry, event recorder or progress callback into the kernels.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List

import batch
import common
from common import JOBS, SUITE, metric, median

REPS = 5


def _timed(fn: Callable[[], object], reps: int) -> float:
    """Median seconds of *reps* calls of *fn*."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return median(times)


def _timed_each(setup: Callable[[], object], fn: Callable[[object], object],
                reps: int) -> float:
    """Median seconds of ``fn(setup())`` with only *fn* timed."""
    times = []
    for _ in range(reps):
        arg = setup()
        started = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - started)
    return median(times)


def _noop(item):
    return item


def _echo(conn) -> None:  # pragma: no cover - subprocess body
    while True:
        msg = conn.recv()
        if msg is None:
            return
        conn.send(msg)


# ---------------------------------------------------------------------------
# repro.trace
# ---------------------------------------------------------------------------
def trace_layer(work: Path, seed: int, length: int, reps: int) -> Dict:
    from repro.trace import shm
    from repro.trace.cache import TraceCache, cached_trace

    def generate(_):
        root = work / "gen"
        if root.exists():
            shutil.rmtree(root)
        return TraceCache(root).load_or_generate("gcc", length, seed=seed)

    gen_s = _timed_each(lambda: None, generate, reps)
    disk = TraceCache(work / "gen")
    disk_s = _timed(lambda: disk.load_or_generate("gcc", length, seed=seed),
                    reps)
    trace = disk.load_or_generate("gcc", length, seed=seed)
    handle = shm.publish(trace, ("perfbench-gcc", length, seed, 1))
    try:
        def attach(_):
            return shm.attach(handle)

        attach_s = _timed_each(shm.detach_all, attach, reps)
    finally:
        shm.detach_all()
        shm.unpublish_all()
    os.environ["REPRO_CACHE_DIR"] = str(work / "gen")
    cached_trace("gcc", length, seed=seed)
    calls = 2000
    memo_s = _timed(lambda: [cached_trace("gcc", length, seed=seed)
                             for _ in range(calls)], reps) / calls
    return {
        "trace.generate_us_per_kinsn": metric(gen_s * 1e6 / (length / 1000),
                                              "us/kinsn"),
        "trace.disk_load_ms": metric(disk_s * 1e3, "ms"),
        "trace.shm_attach_ms": metric(attach_s * 1e3, "ms"),
        "trace.memo_us": metric(memo_s * 1e6, "us"),
    }


# ---------------------------------------------------------------------------
# repro.core / repro.predictors
# ---------------------------------------------------------------------------
def kernel_layer(work: Path, seed: int, length: int, reps: int) -> Dict:
    from repro.harness.runner import run_value_prediction
    from repro.trace.cache import TraceCache

    trace = TraceCache(work / "gen").load_or_generate("gcc", length,
                                                      seed=seed)
    pcs, values = trace.value_pairs()
    pairs = len(pcs)
    out = {}
    for family, params in batch.SWEEP_FAMILIES.items():
        for mode in ("ungated", "gated"):
            seconds = _timed_each(
                lambda: {family: batch.reference_predictor(params)},
                lambda preds: run_value_prediction(
                    trace, preds, gated=(mode == "gated")), reps)
            out[f"kernel.ns_per_pair.{family}.{mode}"] = metric(
                seconds * 1e9 / pairs, "ns/pair")

    def floor():
        for _pc, _v in zip(pcs, values):
            pass

    out["kernel.floor_ns_per_pair"] = metric(
        _timed(floor, reps) * 1e9 / pairs, "ns/pair")
    return out


# ---------------------------------------------------------------------------
# repro.pipeline
# ---------------------------------------------------------------------------
def pipeline_layer(work: Path, seed: int, length: int, reps: int) -> Dict:
    from repro.harness.experiments import (PIPELINE_COPIES,
                                           great_latency_config)
    from repro.pipeline import HGVQAdapter, OutOfOrderCore
    from repro.trace.cache import TraceCache

    cache = TraceCache(work / "gen")
    cache.load_or_generate("gcc", length, seed=seed,
                           code_copies=PIPELINE_COPIES)

    def fresh_trace():
        # A new object per call: the pipeline kernel's per-trace memo is
        # keyed on object identity, so this run is the trace's first.
        return cache.load_or_generate("gcc", length, seed=seed,
                                      code_copies=PIPELINE_COPIES)

    def core(mode: str) -> OutOfOrderCore:
        if mode == "baseline":
            return OutOfOrderCore(config=great_latency_config())
        return OutOfOrderCore(config=great_latency_config(),
                              value_predictor=HGVQAdapter(order=32,
                                                          entries=8192),
                              speculate=(mode == "speculative"))

    def run(pair):
        return pair[0].run(pair[1])

    out = {}
    for mode in ("baseline", "passive", "speculative"):
        fresh = _timed_each(lambda: (core(mode), fresh_trace()), run, reps)
        warm = fresh_trace()
        core(mode).run(warm)
        repeat = _timed_each(lambda: (core(mode), warm), run, reps)
        out[f"pipeline.ns_per_insn.{mode}.fresh"] = metric(
            fresh * 1e9 / length, "ns/insn")
        out[f"pipeline.ns_per_insn.{mode}.repeat"] = metric(
            repeat * 1e9 / length, "ns/insn")
    return out


# ---------------------------------------------------------------------------
# repro.harness dispatch
# ---------------------------------------------------------------------------
def dispatch_layer(reps: int, tasks: int) -> Dict:
    import multiprocessing

    from repro.harness.parallel import get_pool, run_tasks, shutdown_pool

    def spawn():
        shutdown_pool()
        first: List[float] = []
        started = time.perf_counter()
        get_pool()
        run_tasks(_noop, list(range(JOBS)), max_workers=JOBS,
                  on_result=lambda i, o: first.append(time.perf_counter())
                  if not first else None)
        return first[0] - started

    spawn_s = median(spawn() for _ in range(max(3, reps // 2)))
    run_tasks(_noop, list(range(JOBS * 4)), max_workers=JOBS)
    per_task = _timed(lambda: run_tasks(_noop, list(range(tasks)),
                                        max_workers=JOBS), reps) / tasks
    shutdown_pool()

    parent, child = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_echo, args=(child,))
    proc.start()
    try:
        def echo():
            for i in range(tasks):
                parent.send(("batch", i))
                parent.recv()

        echo()
        floor = _timed(echo, reps) / tasks
    finally:
        parent.send(None)
        proc.join(10)
    return {
        "dispatch.us_per_task": metric(per_task * 1e6, "us/task"),
        "dispatch.floor_us": metric(floor * 1e6, "us"),
        "dispatch.spawn_ms": metric(spawn_s * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# repro.campaign
# ---------------------------------------------------------------------------
def campaign_layer(work: Path, seed: int, length: int, reps: int) -> Dict:
    from repro.campaign import CampaignScheduler, CampaignSpec, CampaignStore
    from repro.trace import shm
    from repro.trace.cache import TraceCache

    spec = CampaignSpec.from_dict(batch.sweep_spec(length, seed))
    cells = spec.cells()
    cache = TraceCache(work / "gen")
    for bench in SUITE:
        cache.load_or_generate(bench, length, seed=seed)
    os.environ["REPRO_CACHE_DIR"] = str(work / "gen")

    def warm():
        scheduler = CampaignScheduler(spec, store=None, max_workers=JOBS)
        try:
            scheduler.warm_cache(cells)
        finally:
            shm.unpublish_all()

    warm_s = _timed(warm, reps)

    record = {"stats": {"gdiff": {"attempts": length, "predictions": length,
                                  "correct": length // 2, "confident": 0,
                                  "confident_correct": 0,
                                  "raw_accuracy": 0.5, "accuracy": 0.5,
                                  "coverage": 0.0}}}
    telemetry = {"duration_s": 0.02, "cpu_s": 0.02, "events": length,
                 "events_per_s": length / 0.02, "cache_hits": 1,
                 "cache_misses": 0}
    manifest = {"schema": 1, "run_id": "perfbench", "command": "campaign-cell"}
    writes: List[float] = []
    for rep in range(max(1, reps // 2)):
        store = CampaignStore(work / f"store-{rep}")
        store.create(spec)
        for cell in cells:
            started = time.perf_counter()
            store.write_result(cell, record, metrics={}, attempts=1,
                               duration_s=0.02, manifest=manifest,
                               telemetry=telemetry)
            writes.append(time.perf_counter() - started)
        shutil.rmtree(work / f"store-{rep}")
    return {
        "campaign.warm_s": metric(warm_s, "s"),
        "campaign.store_write_ms": metric(median(writes) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# repro.serve
# ---------------------------------------------------------------------------
def serve_layer(work: Path, seed: int, length: int, reps: int) -> Dict:
    from loadgen import FRAME_EVENTS
    from serve import FAMILIES
    from repro.serve import protocol, shard, snapshot
    from repro.serve.streams import SERVE_PREDICTORS, StreamRecord
    from repro.predictors.base import PredictionStats
    from repro.trace.cache import TraceCache

    trace = TraceCache(work / "gen").load_or_generate("gcc", length,
                                                      seed=seed)
    pcs, values = trace.value_pairs()
    frame_pcs = array("Q", pcs[:FRAME_EVENTS])
    frame_values = array("Q", values[:FRAME_EVENTS])
    frame = protocol.encode_request(protocol.OP_PREDICT_TRAIN, 7,
                                    "perfbench-0001-gdiff32", "gdiff32", 0,
                                    frame_pcs, frame_values)
    payload = frame[4:]
    calls = 5000
    decode_s = _timed(lambda: [protocol.decode_request(payload)
                               for _ in range(calls)], reps) / calls
    delta = (FRAME_EVENTS, FRAME_EVENTS - 2, FRAME_EVENTS // 2, 0, 0)
    encode_s = _timed(lambda: [protocol.encode_outcome(
        protocol.OP_PREDICT_TRAIN, 7, delta, None) for _ in range(calls)],
        reps) / calls

    # shard.apply_batch in-process on resident streams: four streams per
    # family, one 32-event frame each per batch.
    os.environ["REPRO_SERVE_SPOOL"] = str(work / "spool")
    streams = [(f"perfbench-apply-{i}-{fam}", fam)
               for i in range(4) for fam in FAMILIES]
    cursor = [0]

    def batch_payload():
        events = []
        for tag, (sid, fam) in enumerate(streams):
            start = (cursor[0] + tag * 977) % (len(pcs) - FRAME_EVENTS)
            events.append((tag, protocol.OP_PREDICT_TRAIN, False, False, sid,
                           fam, array("Q", pcs[start:start + FRAME_EVENTS]),
                           array("Q", values[start:start + FRAME_EVENTS])))
        cursor[0] += FRAME_EVENTS
        return {"shard": 9999, "events": events}

    shard.apply_batch(batch_payload())  # creates the streams
    apply_s = _timed_each(batch_payload, shard.apply_batch, reps * 4)
    shard.reset_shards()

    out = {
        "serve.decode_us": metric(decode_s * 1e6, "us"),
        "serve.encode_us": metric(encode_s * 1e6, "us"),
        "serve.apply_us_per_event": metric(
            apply_s * 1e6 / (len(streams) * FRAME_EVENTS), "us/event"),
    }
    spool = work / "snapshots"
    spool.mkdir(exist_ok=True)
    for fam in FAMILIES:
        record = StreamRecord(f"perfbench-snap-{fam}", fam, False,
                              SERVE_PREDICTORS[fam](), None,
                              PredictionStats())
        record.predict_train(pcs[:20 * FRAME_EVENTS],
                             values[:20 * FRAME_EVENTS])
        path = snapshot.snapshot_path(spool, record.sid)
        sizes = []

        def dump():
            sizes.append(snapshot.dump_stream(
                path, record.spec, record.gated, record.predictor,
                record.conf, record.stats))

        dump_s = _timed(dump, reps)
        load_s = _timed(lambda: snapshot.load_stream(path), reps)
        out[f"serve.snapshot_ms.{fam}"] = metric(dump_s * 1e3, "ms")
        out[f"serve.restore_ms.{fam}"] = metric(load_s * 1e3, "ms")
        out[f"serve.snapshot_kib.{fam}"] = metric(sizes[-1] / 1024.0, "KiB")
    return out


def measure(work: Path, seed: int, tiny: bool) -> Dict:
    reps = 3 if tiny else REPS
    # Kernels and trace tiers at the sweep's trace length, the pipeline
    # at the reproduce run's.
    length = batch.TINY_SWEEP_LENGTH if tiny else batch.SWEEP_LENGTH
    pipe_length = (batch.TINY_REPRODUCE_LENGTH if tiny
                   else batch.REPRODUCE_LENGTH)
    out: Dict = {}
    out.update(trace_layer(work, seed, length, reps))
    out.update(kernel_layer(work, seed, length, reps))
    out.update(pipeline_layer(work, seed, pipe_length, reps))
    out.update(dispatch_layer(reps, 200 if tiny else 2000))
    out.update(campaign_layer(work, seed, length, reps))
    out.update(serve_layer(work, seed, length, reps))
    return out


def run_child(work: common.Workdir, seed: int, tiny: bool) -> Dict:
    """Measure every layer in a fresh process; returns its metrics."""
    directory = work.fresh("layers")
    argv = [sys.executable, str(common.HERE / "layers.py"), "--work",
            str(directory), "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out_path = work.path("layers.out")
    with open(out_path, "wb") as out:
        cmd = common.Command(argv, work.env(directory / "cache"), work.root,
                             work.path("layers.log"), stdout=out)
        code = cmd.wait(170.0)
    if code != 0:
        raise common.BenchError(f"layer measurements failed ({code}):\n"
                                f"{cmd.tail()}")
    lines = out_path.read_text().strip().splitlines()
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    common.import_repro()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    print(json.dumps(measure(work, args.seed, args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
