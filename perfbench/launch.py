"""Traced launcher: run ``repro <args>`` with span wrappers on each layer's
public entry points.

Usage::

    python3 perfbench/launch.py SPANS_DIR -- <repro arguments>

Before the CLI runs, every name below is replaced by a wrapper that
records one span (name, layer, id, start, end, parent) around the
original call.  Wrappers are installed where the callers look the name
up (``repro.harness.experiments`` binds ``cached_trace`` at import, the
serve streams module binds ``run_pairs`` and the snapshot functions, the
CLI binds ``run_experiments``), and methods are patched on their class,
so no caller sees a subclass, a proxy or an extra argument: the kernels'
``type(...) is`` checks still pass and no registry, event recorder or
progress callback reaches ``run_value_prediction`` or
``OutOfOrderCore``.  The one argument added is a counters-only registry
for ``cached_trace`` when its caller passed none, so the program's own
``cache.*``/``shm.*`` counters are recorded for every tier.

Spans stay in memory per process.  Pool and shard workers fork after the
wrappers are installed; each worker drops the spans it inherited and
writes its own file when its loop ends.  The launching process writes
``spans-<pid>.json`` when the command returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: One record per span: [name, layer, id, start_ns, end_ns, parent_index].
_SPANS: List[list] = []
_STACK: List[int] = []
_STATE: Dict[str, Any] = {"role": "main", "dir": None, "registry": None}


def _record(name: str, layer: str, tag_of: Optional[Callable] = None,
            tag_result: Optional[Callable] = None):
    """Decorator factory: wrap *fn* in a span of *layer*."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(_SPANS)
            rec = [name, layer, "", time.perf_counter_ns(), 0,
                   _STACK[-1] if _STACK else -1]
            if tag_of is not None:
                try:
                    rec[2] = str(tag_of(*args, **kwargs))
                except Exception:  # a tag must never fail the call
                    rec[2] = "?"
            _SPANS.append(rec)
            _STACK.append(index)
            try:
                result = fn(*args, **kwargs)
                if tag_result is not None:
                    try:
                        rec[2] = str(tag_result(result))
                    except Exception:
                        rec[2] = "?"
                return result
            finally:
                rec[4] = time.perf_counter_ns()
                _STACK.pop()
        wrapper.__wrapped_by_perfbench__ = True
        return wrapper
    return deco


def _patch(owner, attr: str, name: str, layer: str, **tags) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, _record(name, layer, **tags)(original))


def _share(owner, attr: str, source) -> None:
    """Point a name bound at import (``from x import f``) at the wrapper
    already installed on *source*."""
    setattr(owner, attr, getattr(source, attr))


def _dump() -> None:
    directory = _STATE["dir"]
    if directory is None:
        return
    counters = {}
    registry = _STATE["registry"]
    if registry is not None:
        counters = {name: c.value for name, c in registry.counters.items()}
    now = time.perf_counter_ns()
    spans = [rec if rec[4] else rec[:4] + [now] + rec[5:] for rec in _SPANS]
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "role": _STATE["role"],
                   "spans": spans, "counters": counters}, fh)


def install(directory: str) -> None:
    """Install every wrapper; spans are written under *directory*."""
    from repro import cli
    from repro.campaign import scheduler, store
    from repro.harness import experiments, parallel, runner
    from repro.pipeline import ooo
    from repro.serve import engine, protocol, shard, streams
    from repro.telemetry import MetricsRegistry
    from repro.trace import cache, shm

    _STATE["dir"] = directory
    _STATE["registry"] = MetricsRegistry()

    # -- repro.trace --------------------------------------------------------
    original_cached = cache.cached_trace

    @functools.wraps(original_cached)
    def cached_trace(workload, length, seed=None, code_copies=1,
                     metrics=None):
        if metrics is None:
            metrics = _STATE["registry"]
        return original_cached(workload, length, seed=seed,
                               code_copies=code_copies, metrics=metrics)

    cache.cached_trace = _record(
        "cached_trace", "trace",
        tag_of=lambda w, length, *a, **k: f"{getattr(w, 'name', w)}@{length}"
    )(cached_trace)
    _share(experiments, "cached_trace", cache)
    _patch(cache.TraceCache, "load_or_generate", "load_or_generate", "trace",
           tag_of=lambda self, w, length, *a, **k:
           f"{getattr(w, 'name', w)}@{length}")
    _patch(shm, "attach", "shm.attach", "trace",
           tag_of=lambda handle, *a, **k: handle.key[0])
    _patch(shm, "publish", "shm.publish", "trace",
           tag_of=lambda trace, key, *a, **k: key[0])

    # -- repro.core / repro.predictors (the fused kernels) -------------------
    _patch(runner, "run_value_prediction", "run_value_prediction", "kernel",
           tag_of=lambda trace, predictors, *a, **k: ",".join(predictors))
    _patch(runner, "run_address_prediction", "run_address_prediction",
           "kernel")
    _share(experiments, "run_value_prediction", runner)
    _share(experiments, "run_address_prediction", runner)
    _patch(streams, "run_pairs", "run_pairs", "kernel")
    _patch(streams, "_profile_pairs", "profile_pairs", "kernel")
    _patch(streams, "_gated_pairs", "gated_pairs", "kernel")

    # -- repro.pipeline -----------------------------------------------------
    _patch(ooo.OutOfOrderCore, "run", "OutOfOrderCore.run", "pipeline",
           tag_of=lambda core, trace, *a, **k: getattr(trace, "name", ""))

    # -- repro.harness (experiments and dispatch) ---------------------------
    _patch(parallel, "run_experiment", "run_experiment", "dispatch",
           tag_of=lambda name, *a, **k: name)
    _patch(parallel, "run_experiments", "run_experiments", "dispatch")
    _share(cli, "run_experiments", parallel)
    _patch(parallel, "run_tasks", "run_tasks", "dispatch")
    _share(scheduler, "run_tasks", parallel)
    _patch(parallel, "get_pool", "get_pool", "dispatch")
    _share(engine, "get_pool", parallel)
    _patch(parallel.WorkerPool, "map_outcomes", "map_outcomes", "dispatch",
           tag_of=lambda self, fn, items, *a, **k: len(items))
    _patch(parallel.WorkerPool, "shard_send", "shard_send", "dispatch",
           tag_of=lambda self, index, *a, **k: index)
    _patch(parallel.WorkerPool, "shard_recv", "shard_recv", "dispatch",
           tag_of=lambda self, index, *a, **k: index)

    original_worker_main = parallel._pool_worker_main

    @functools.wraps(original_worker_main)
    def pool_worker_main(conn):
        # A forked worker starts with a copy of the launcher's spans and
        # open stack; it records and writes only its own.
        del _SPANS[:]
        del _STACK[:]
        _STATE["role"] = "worker"
        _STATE["registry"] = MetricsRegistry()
        try:
            original_worker_main(conn)
        finally:
            _dump()

    parallel._pool_worker_main = pool_worker_main

    # -- repro.campaign -----------------------------------------------------
    def cell_tag(config, *a, **k):
        from repro.campaign.spec import Cell

        return Cell.make(config["kind"], config["params"]).cell_id

    _patch(scheduler, "_execute_cell", "execute_cell", "campaign",
           tag_of=cell_tag)
    _patch(scheduler.CampaignScheduler, "run", "CampaignScheduler.run",
           "campaign")
    _patch(scheduler.CampaignScheduler, "warm_cache", "warm_cache",
           "campaign")
    _patch(store.CampaignStore, "write_result", "write_result", "campaign",
           tag_of=lambda self, cell, *a, **k: cell.cell_id)

    # -- repro.serve --------------------------------------------------------
    _patch(protocol, "decode_request", "decode_request", "serve.codec",
           tag_result=lambda req: f"{req.stream_id}#{req.req_id}")
    for encoder in ("encode_outcome", "encode_predictions", "encode_trained",
                    "encode_snapshot", "encode_stats", "encode_error",
                    "encode_busy", "encode_daemon_stats"):
        _patch(protocol, encoder, encoder, "serve.codec",
               tag_of=lambda op, req_id, *a, **k: req_id)
    _patch(shard, "apply_batch", "apply_batch", "serve.apply",
           tag_of=lambda payload: f"shard{payload['shard']}:"
                                  f"{len(payload['events'])}")
    _patch(streams, "dump_stream", "dump_stream", "serve.snapshot")
    _patch(streams, "load_stream", "load_stream", "serve.snapshot")


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py SPANS_DIR -- <repro arguments>",
              file=sys.stderr)
        return 2
    directory, args = argv[0], argv[2:]
    os.makedirs(directory, exist_ok=True)
    install(directory)
    from repro import cli

    try:
        return cli.main(args)
    finally:
        _dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
