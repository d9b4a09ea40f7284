"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands:

* ``repro list`` — benchmarks and experiments available.
* ``repro run <experiment> [--length N] [--bench b1,b2] [--out FILE]`` —
  regenerate one of the paper's tables/figures.
* ``repro trace gen <workload> [--length N] [--out FILE]`` — generate
  (and optionally save) a workload trace, printing its summary.  The
  bare ``repro trace <workload>`` spelling still works.
* ``repro trace import <source> [--format f] [--name n] [--limit N]``
  — convert an external value/address stream (CSV/ndjson interchange,
  CVP-style, ChampSim-style, all gzip-transparent) into the packed
  trace store with a provenance manifest; ``--capture script.py`` runs
  a Python script under ``sys.settrace`` and records its integer value
  stream instead.  ``repro trace list|info|remove`` manage the store.
  Imported names are first-class workloads everywhere
  (docs/WORKLOADS.md).
* ``repro workloads [--groups g1,g2] [--only n1,n2] [--check|--smoke]``
  — sweep the whole workload bank (synthetic suite, adversarial
  scenarios, imported traces) through the predictor zoo in one table;
  ``--check`` gates the adversarial scenarios against their calibrated
  accuracy bands, ``--smoke`` is the CI shape.
* ``repro predict <benchmark> [--length N] [--predictors a,b,c]`` —
  profile-style accuracy comparison over one benchmark.
* ``repro simulate <benchmark> [--length N] [--vp NAME] [--speculate]`` —
  run the cycle-level OOO core and report IPC and machine statistics.
* ``repro run-all [--experiments a,b] [--jobs N] [--out-dir DIR]
  [--profile]`` — run the whole experiment registry, fanned across worker
  processes (``--profile`` runs serially under cProfile and prints the
  top-20 cumulative entries to stderr).
* ``repro cache stats|warm|clear`` — inspect, populate, or empty the
  on-disk trace cache (docs/PERFORMANCE.md).
* ``repro campaign run|resume|status|report <spec|dir>`` — declarative
  experiment campaigns: expand a TOML/JSON parameter grid, execute it
  resumably across workers with retry + quarantine, and report (or
  fidelity-check) straight from the durable results store
  (docs/CAMPAIGNS.md).  ``status --watch`` is a live progress view;
  ``report --telemetry`` adds slowest cells, retries, and cache hit rate.
* ``repro bench history|check`` — the benchmark suite's perf trajectory
  (``benchmarks/results/history.jsonl``) and its regression gate
  (docs/OBSERVABILITY.md).
* ``repro serve [--port P] [--shards N] [--stdio] [--backend b]`` — the
  long-lived online prediction daemon: sharded per-stream predictor
  state on warm pool workers, batched dispatch, LRU eviction with
  transparent restore (docs/SERVING.md).
* ``repro loadgen [--streams N] [--events N] [--mode closed|open]
  [--trace NAME] [--verify]`` — drive a running daemon with N
  concurrent streams and report QPS and latency percentiles;
  ``--trace`` replays a specific workload (imported traces included),
  ``--verify`` replays every stream through the batch harness and
  checks bit-identical PredictionStats.

Every subcommand accepts the shared telemetry flags (docs/TELEMETRY.md):
``--metrics-out FILE`` writes a JSON run manifest (``-`` streams it to
stdout, pushing the human-readable output to stderr), ``--trace-events
FILE`` writes sampled prediction events as JSON lines, ``--trace-out
FILE`` exports the run's span timeline in Chrome trace-event format
(docs/OBSERVABILITY.md), and ``-v``/``-vv`` turn on INFO/DEBUG logging
for the ``repro.*`` namespace.  Long runs show a single-line progress
display on a TTY (silent when piped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .core import GDiffPredictor, HybridGDiffPredictor
from .harness import (
    EXPERIMENTS,
    run_experiment,
    run_experiments,
    run_value_prediction,
)
from .pipeline import (
    HGVQAdapter,
    LocalPredictorAdapter,
    OutOfOrderCore,
    SGVQAdapter,
)
from .predictors import (
    DFCMPredictor,
    FCMPredictor,
    GlobalFCMPredictor,
    HybridLocalPredictor,
    LastNValuePredictor,
    LastValuePredictor,
    PIPredictor,
    StridePredictor,
)
from .telemetry import (
    EventRecorder,
    MetricsRegistry,
    ProgressPrinter,
    RunManifest,
    configure_logging,
    get_logger,
    write_chrome_trace,
)
from .trace.cache import cache_enabled, default_cache
from .trace.workloads import BENCHMARKS, get

log = get_logger("repro.cli")

#: Predictor factories exposed on the command line.
PREDICTORS = {
    "last-value": lambda: LastValuePredictor(entries=None),
    "last-n": lambda: LastNValuePredictor(entries=None),
    "stride": lambda: StridePredictor(entries=None),
    "fcm": lambda: FCMPredictor(l1_entries=None),
    "dfcm": lambda: DFCMPredictor(l1_entries=None),
    "pi": lambda: PIPredictor(entries=None),
    "gfcm": lambda: GlobalFCMPredictor(),
    "hybrid-local": lambda: HybridLocalPredictor(entries=None),
    "gdiff8": lambda: GDiffPredictor(order=8, entries=None),
    "gdiff32": lambda: GDiffPredictor(order=32, entries=None),
    "gdiff-hgvq": lambda: HybridGDiffPredictor(order=32, entries=None),
}

#: Pipeline value-prediction schemes exposed on the command line.  The
#: ``gdiff-`` aliases name the paper's schemes explicitly.
PIPELINE_SCHEMES = {
    "stride": lambda: LocalPredictorAdapter(StridePredictor(entries=8192)),
    "dfcm": lambda: LocalPredictorAdapter(DFCMPredictor(l1_entries=8192)),
    "sgvq": lambda: SGVQAdapter(order=32),
    "hgvq": lambda: HGVQAdapter(order=32),
    "gdiff-sgvq": lambda: SGVQAdapter(order=32),
    "gdiff-hgvq": lambda: HGVQAdapter(order=32),
}


class _NullSpan:
    """Stand-in for a registry timer span when telemetry is off."""

    items = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _Telemetry:
    """Per-invocation telemetry wiring derived from the common flags.

    Centralises the decisions every command makes: whether a
    registry/manifest exists, where sampled events go, where *human*
    output goes (stderr when the manifest is streamed to stdout, so
    ``repro ... --metrics-out - | jq .`` just works), whether spans are
    being traced (``--trace-out`` opens a root span covering the whole
    command and exports a Chrome trace-event file at the end), and
    writing the artefacts out at the end.
    """

    def __init__(self, args: argparse.Namespace, command: str):
        import time as _time

        self.metrics_out: Optional[str] = getattr(args, "metrics_out", None)
        self.trace_events: Optional[str] = getattr(args, "trace_events", None)
        self.trace_out: Optional[str] = getattr(args, "trace_out", None)
        enabled = bool(self.metrics_out or self.trace_events
                       or self.trace_out)
        self.registry = MetricsRegistry() if enabled else None
        self.manifest = RunManifest(
            command,
            {k: v for k, v in vars(args).items() if k != "command"},
        ) if self.metrics_out else None
        # Every span/event timestamp of this run is anchored to one
        # wall-clock epoch — the manifest's, so separate worker processes
        # align on one exported timeline.
        self._epoch_ns = (self.manifest.clock_epoch_ns
                          if self.manifest is not None else _time.time_ns())
        self._root_span = None
        if self.trace_out:
            tracker = self.registry.enable_spans()
            self._root_span = tracker.begin(command)
        self.events = EventRecorder(
            sample_rate=getattr(args, "trace_sample", 1.0),
            seed=getattr(args, "trace_seed", 0),
            # Stamp events onto the shared timeline only when spans are
            # being traced; unstamped events stay byte-reproducible.
            epoch_ns=self._epoch_ns if self.trace_out else None,
        ) if self.trace_events else None
        self.human = sys.stderr if "-" in (self.metrics_out,
                                           self.trace_events,
                                           self.trace_out) else sys.stdout
        self._no_progress = getattr(args, "no_progress", False)
        # Fail before the run, not after: a long simulation should not
        # complete and then discover its output path is unwritable.
        for path in (self.metrics_out, self.trace_events, self.trace_out):
            if path and path != "-":
                try:
                    open(path, "a", encoding="utf-8").close()
                except OSError as exc:
                    raise SystemExit(f"cannot write {path}: {exc}")

    def timer(self, name: str):
        if self.registry is None:
            return _NullSpan()
        return self.registry.timer(name)

    def progress(self, label: str) -> Optional[ProgressPrinter]:
        if self._no_progress:
            return None
        printer = ProgressPrinter(label=label)
        return printer if printer.enabled else None

    def add(self, section: str, payload) -> None:
        if self.manifest is not None:
            self.manifest.add(section, payload)

    def finish(self) -> None:
        if self._root_span is not None:
            import os

            tracker = self.registry.span_tracker
            tracker.end(self._root_span)
            count = write_chrome_trace(self.trace_out, tracker.spans,
                                       epoch_ns=self._epoch_ns,
                                       driver_pid=os.getpid(),
                                       trace_id=tracker.trace_id)
            log.info("wrote %d spans to %s", count, self.trace_out)
            if self.trace_out != "-":
                print(f"{count} spans saved to {self.trace_out} "
                      "(Chrome trace format; open in ui.perfetto.dev)",
                      file=self.human)
        if self.manifest is not None:
            self.manifest.finish()
            self.manifest.write(self.metrics_out, self.registry)
            if self.metrics_out != "-":
                print(f"metrics manifest saved to {self.metrics_out}",
                      file=self.human)
        if self.events is not None:
            count = self.events.write(self.trace_events)
            log.info("wrote %d sampled events to %s", count,
                     self.trace_events)
            if self.trace_events != "-":
                print(f"{count} sampled events saved to {self.trace_events}",
                      file=self.human)


def _attach_predictor_metrics(predictors: Dict[str, object],
                              registry: Optional[MetricsRegistry]) -> None:
    """Attach metrics to every predictor that supports it (gDiff family)."""
    if registry is None:
        return
    for name, predictor in predictors.items():
        attach = getattr(predictor, "attach_metrics", None)
        if attach is not None:
            attach(registry, prefix=f"gdiff.{name}")


def _parse_benchmarks(spec: Optional[str]) -> Optional[List[str]]:
    if not spec:
        return None
    names = [b.strip() for b in spec.split(",") if b.strip()]
    unknown = [b for b in names if b not in BENCHMARKS]
    if unknown:
        raise SystemExit(f"unknown benchmark(s): {unknown}; "
                         f"choose from {BENCHMARKS}")
    return names


def cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks:")
    for name in BENCHMARKS:
        print(f"  {name:8s} {get(name).description}")
    print("\nexperiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("\npredictors:", ", ".join(sorted(PREDICTORS)))
    print("pipeline schemes:", ", ".join(sorted(PIPELINE_SCHEMES)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    tele = _Telemetry(args, "run")
    kwargs = {}
    if args.length:
        kwargs["length"] = args.length
    benchmarks = _parse_benchmarks(args.bench)
    if benchmarks and args.experiment != "fig12":
        kwargs["benchmarks"] = benchmarks
    log.info("running experiment %s (%s)", args.experiment,
             kwargs or "defaults")
    result = run_experiment(args.experiment, registry=tele.registry, **kwargs)
    text = result.render()
    print(text, file=tele.human)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nsaved to {args.out}", file=tele.human)
    tele.add("experiment", result.as_dict())
    tele.finish()
    return 0


def _trace_gen(args: argparse.Namespace) -> int:
    _require_workload(args.benchmark, "trace gen")
    tele = _Telemetry(args, "trace")
    log.info("generating %s trace (%d instructions)",
             args.benchmark, args.length)
    with tele.timer("trace_gen") as span:
        trace = get(args.benchmark).trace(args.length)
        span.items = len(trace)
    print(f"{trace.name}: {trace.stats}", file=tele.human)
    if args.out:
        from .trace.io import save_trace

        with tele.timer("trace_save") as span:
            count = save_trace(trace, args.out)
            span.items = count
        print(f"saved {count} instructions to {args.out}", file=tele.human)
    tele.add("benchmark", args.benchmark)
    tele.add("trace", str(trace.stats))
    tele.finish()
    return 0


def _trace_import(args: argparse.Namespace) -> int:
    from .trace.ingest import IngestError, import_trace
    from .trace.ingest.store import trace_path

    if bool(args.capture) == bool(args.source):
        raise SystemExit("trace import: give exactly one of SOURCE or "
                         "--capture SCRIPT")
    tele = _Telemetry(args, "trace-import")
    out = tele.human
    adapter = args.format
    source = args.source
    options: Dict[str, object] = {}
    if args.capture:
        adapter = "capture"
        source = args.capture
        options = {"argv": tuple(args.arg or ()), "scope": args.scope}
    try:
        with tele.timer("trace_import") as span:
            doc = import_trace(source, adapter=adapter, name=args.name,
                               limit=args.limit, force=args.force,
                               options=options, metrics=tele.registry)
            span.items = doc["events"]
    except IngestError as exc:
        raise SystemExit(f"trace import: {exc}")
    print(f"imported {doc['name']}: {doc['events']:,} events "
          f"({doc['value_events']:,} value-producing, "
          f"{doc['dropped']} dropped) via {doc['adapter']} "
          f"in {doc['elapsed_s']:.2f}s", file=out)
    print(f"  trace  : {trace_path(doc['name'])} "
          f"({doc['trace_bytes']:,} bytes)", file=out)
    print(f"  source : sha256 {doc['source_sha256'][:16]}... "
          f"({doc['source_bytes']:,} bytes)", file=out)
    print(f"  content: sha256 {doc['content_sha256'][:16]}...", file=out)
    print(f"run it:  repro predict {doc['name']}   |   "
          f"repro workloads --only {doc['name']}", file=out)
    tele.add("import", doc)
    tele.finish()
    return 0


def _trace_list(args: argparse.Namespace) -> int:
    from .trace.ingest import imported_names, imported_root, manifest

    tele = _Telemetry(args, "trace-list")
    out = tele.human
    names = imported_names()
    print(f"imported workloads at {imported_root()}: {len(names)}",
          file=out)
    docs = {}
    for name in names:
        doc = manifest(name)
        docs[name] = doc
        print(f"  {name:24s} {doc['events']:>10,} events "
              f"{doc['trace_bytes']:>12,} bytes  via {doc['adapter']}",
              file=out)
    tele.add("imported", docs)
    tele.finish()
    return 0


def _trace_info(args: argparse.Namespace) -> int:
    from .trace.ingest import IngestError, manifest

    tele = _Telemetry(args, "trace-info")
    try:
        doc = manifest(args.name)
    except IngestError as exc:
        raise SystemExit(f"trace info: {exc}")
    print(json.dumps(doc, indent=2, sort_keys=True), file=tele.human)
    tele.add("manifest", doc)
    tele.finish()
    return 0


def _trace_remove(args: argparse.Namespace) -> int:
    from .trace.ingest import remove

    tele = _Telemetry(args, "trace-remove")
    if remove(args.name):
        print(f"removed imported workload {args.name}", file=tele.human)
        code = 0
    else:
        print(f"no imported workload {args.name}", file=tele.human)
        code = 1
    tele.finish()
    return code


def cmd_trace(args: argparse.Namespace) -> int:
    return {
        "gen": _trace_gen,
        "import": _trace_import,
        "list": _trace_list,
        "info": _trace_info,
        "remove": _trace_remove,
    }[args.action](args)


def cmd_workloads(args: argparse.Namespace) -> int:
    from .harness.workbank import render_bank, run_bank

    tele = _Telemetry(args, "workloads")
    out = tele.human
    groups = [g.strip() for g in args.groups.split(",") if g.strip()]
    only = ([w.strip() for w in args.only.split(",") if w.strip()]
            if args.only else None)
    predictors = [p.strip() for p in args.predictors.split(",")
                  if p.strip()]
    length = args.length
    check = args.check
    if args.smoke:
        # The CI shape: adversarial bank at the calibrated length, bands
        # gated.  Imported traces ride along so a fresh import is swept.
        groups = ["adversarial", "imported"]
        length = None
        check = True
    progress = tele.progress("workloads: ")
    try:
        with tele.timer("workloads") as span:
            rows, checks = run_bank(
                groups=groups, only=only, predictors=predictors,
                length=length, check=check, metrics=tele.registry,
                on_progress=progress)
            span.items = len(rows)
    except ValueError as exc:
        raise SystemExit(f"workloads: {exc}")
    if progress is not None:
        progress.close()
    print("\n".join(render_bank(rows, checks, predictors)), file=out)
    tele.add("workloads", {
        "rows": [{"workload": r.workload, "group": r.group,
                  "length": r.length, "value_events": r.value_events,
                  "accuracy": r.accuracy} for r in rows],
        "checks": [{"workload": c.workload, "predictor": c.predictor,
                    "lo": c.lo, "hi": c.hi, "actual": c.actual,
                    "ok": c.ok} for c in checks],
    })
    tele.finish()
    if not rows:
        print("workloads: nothing selected", file=out)
    return 2 if any(not c.ok for c in checks) else 0


def _require_workload(name: str, command: str) -> None:
    from .trace.workloads import is_known, known_names

    if not is_known(name):
        raise SystemExit(f"{command}: unknown workload {name!r}; "
                         f"choose from {known_names()}")


def cmd_predict(args: argparse.Namespace) -> int:
    _require_workload(args.benchmark, "predict")
    names = [p.strip() for p in args.predictors.split(",") if p.strip()]
    unknown = [p for p in names if p not in PREDICTORS]
    if unknown:
        raise SystemExit(f"unknown predictor(s): {unknown}; "
                         f"choose from {sorted(PREDICTORS)}")
    tele = _Telemetry(args, "predict")
    log.info("predicting %s over %s (%d instructions, gated=%s)",
             ", ".join(names), args.benchmark, args.length, args.gated)
    with tele.timer("trace_gen") as span:
        trace = get(args.benchmark).trace(args.length)
        span.items = len(trace)
    predictors = {name: PREDICTORS[name]() for name in names}
    _attach_predictor_metrics(predictors, tele.registry)
    progress = tele.progress(f"predict {args.benchmark}: ")
    with tele.timer("predict") as span:
        stats = run_value_prediction(
            trace, predictors, gated=args.gated,
            metrics=tele.registry, events=tele.events,
            on_progress=progress,
        )
        span.items = len(trace)
    if progress is not None:
        progress.close()
    out = tele.human
    print(f"{args.benchmark}: {trace.stats}\n", file=out)
    header = f"{'predictor':14s} {'raw_acc':>8s}"
    if args.gated:
        header += f" {'accuracy':>9s} {'coverage':>9s}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, stat in stats.items():
        line = f"{name:14s} {stat.raw_accuracy:8.1%}"
        if args.gated:
            line += f" {stat.accuracy:9.1%} {stat.coverage:9.1%}"
        print(line, file=out)
    tele.add("benchmark", args.benchmark)
    tele.add("predictors", {name: s.as_dict() for name, s in stats.items()})
    tele.finish()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _require_workload(args.benchmark, "simulate")
    adapter = None
    if args.vp:
        if args.vp not in PIPELINE_SCHEMES:
            raise SystemExit(f"unknown scheme {args.vp!r}; choose from "
                             f"{sorted(PIPELINE_SCHEMES)}")
        adapter = PIPELINE_SCHEMES[args.vp]()
    tele = _Telemetry(args, "simulate")
    if adapter is not None:
        if tele.registry is not None:
            adapter.attach_metrics(tele.registry)
        if tele.events is not None:
            adapter.attach_events(tele.events)
    core = OutOfOrderCore(value_predictor=adapter,
                          speculate=args.speculate,
                          track_value_delay=True,
                          metrics=tele.registry)
    log.info("simulating %s (%d instructions, vp=%s, speculate=%s)",
             args.benchmark, args.length, args.vp, args.speculate)
    with tele.timer("trace_gen") as span:
        trace = get(args.benchmark).trace(args.length)
        span.items = len(trace)
    progress = tele.progress(f"simulate {args.benchmark}: ")
    with tele.timer("simulate") as span:
        result = core.run(trace, on_progress=progress)
        span.items = len(trace)
    if progress is not None:
        progress.close()
    out = tele.human
    print(f"{args.benchmark}: IPC {result.ipc:.2f} over {result.cycles} "
          f"cycles ({result.retired} retired)", file=out)
    print(f"  D-cache miss rate   : {result.dcache_miss_rate:.1%}", file=out)
    print(f"  branch mispredicts  : {result.branch_mispredict_rate:.1%}",
          file=out)
    print(f"  mean value delay    : {result.mean_value_delay():.2f}",
          file=out)
    if adapter is not None:
        print(f"  VP ({adapter.name}): accuracy "
              f"{adapter.stats.accuracy:.1%}, coverage "
              f"{adapter.stats.coverage:.1%}", file=out)
        if args.speculate:
            print(f"  selective reissues  : {result.reissues}", file=out)
    tele.add("benchmark", args.benchmark)
    tele.add("simulation", {
        "ipc": result.ipc,
        "cycles": result.cycles,
        "retired": result.retired,
        "retired_value_producing": result.retired_vp,
        "dcache_miss_rate": result.dcache_miss_rate,
        "branch_mispredict_rate": result.branch_mispredict_rate,
        "mean_value_delay": result.mean_value_delay(),
        "reissues": result.reissues,
    })
    if adapter is not None:
        tele.add("predictors", {adapter.name: adapter.stats.as_dict()})
    tele.finish()
    return 0


def _parse_experiments(spec: Optional[str]) -> List[str]:
    if not spec:
        return sorted(EXPERIMENTS)
    names = [e.strip() for e in spec.split(",") if e.strip()]
    unknown = [e for e in names if e not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {unknown}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    return names


def _profiled(fn):
    """Run *fn* under cProfile; print top-20 cumulative entries to stderr.

    Perf PRs should start from data: the table shows where a run actually
    spends its time (kernels, trace loads, rendering, ...).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print("--- cProfile: top 20 by cumulative time ---", file=sys.stderr)
        stats.print_stats(20)


def cmd_run_all(args: argparse.Namespace) -> int:
    tele = _Telemetry(args, "run-all")
    names = _parse_experiments(args.experiments)
    common: Dict[str, object] = {}
    if args.length:
        common["length"] = args.length
    benchmarks = _parse_benchmarks(args.bench)
    kwargs_for: Dict[str, Dict] = {}
    if benchmarks:
        # fig12 takes a single ``bench``, not a benchmark list.
        kwargs_for = {name: {"benchmarks": benchmarks}
                      for name in names if name != "fig12"}
    progress = tele.progress("run-all: ")
    if getattr(args, "no_shm", False):
        os.environ["REPRO_SHM"] = "0"
    jobs = args.jobs
    if getattr(args, "profile", False):
        # Worker processes are invisible to the parent's profiler; a
        # profiled run is serial so the numbers mean something.
        jobs = 1
    log.info("running %d experiments with jobs=%s", len(names),
             jobs or "auto")
    with tele.timer("run_all") as span:
        runner = lambda: run_experiments(  # noqa: E731
            names,
            max_workers=jobs,
            common_kwargs=common,
            kwargs_for=kwargs_for,
            registry=tele.registry,
            on_progress=progress,
        )
        results = (_profiled(runner) if getattr(args, "profile", False)
                   else runner())
        span.items = len(results)
    if progress is not None:
        progress.close()
    out = tele.human
    for name in names:
        print(results[name].render(), file=out)
        print("", file=out)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, result in results.items():
            path = os.path.join(args.out_dir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result.render() + "\n")
            with open(os.path.join(args.out_dir, f"{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(result.as_dict(), fh, indent=2)
        print(f"saved {len(results)} experiments to {args.out_dir}/",
              file=out)
    tele.add("experiments",
             {name: result.as_dict() for name, result in results.items()})
    tele.finish()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    tele = _Telemetry(args, "cache")
    cache = default_cache(metrics=tele.registry)
    out = tele.human
    if args.action == "stats":
        stats = cache.stats()
        enabled = "enabled" if cache_enabled() else "disabled (REPRO_CACHE=0)"
        print(f"trace cache at {stats['root']} ({enabled})", file=out)
        print(f"  entries: {stats['entries']}", file=out)
        print(f"  bytes  : {stats['bytes']:,}", file=out)
        origins = stats.get("origins")
        if origins:
            gen, imp = origins["generated"], origins["imported"]
            print(f"  origin generated: {gen['entries']} entries, "
                  f"{gen['bytes']:,} bytes", file=out)
            print(f"  origin imported : {imp['entries']} entries, "
                  f"{imp['bytes']:,} bytes", file=out)
            store = origins["imported_store"]
            print(f"  import store    : {store['workloads']} workload(s), "
                  f"{store['bytes']:,} bytes at {store['root']}", file=out)
        for entry in stats["files"]:
            print(f"    {entry['name']:56s} {entry['bytes']:>12,}", file=out)
        tele.add("cache", stats)
    elif args.action == "warm":
        benchmarks = _parse_benchmarks(args.bench) or list(BENCHMARKS)
        progress = tele.progress("cache warm: ")
        with tele.timer("cache_warm") as span:
            outcome = cache.warm(benchmarks, args.length,
                                 code_copies=args.code_copies,
                                 on_progress=progress)
            span.items = len(outcome)
        if progress is not None:
            progress.close()
        for name, was_hit in outcome:
            print(f"  {name:8s} {'hit' if was_hit else 'generated'}",
                  file=out)
        tele.add("cache", cache.stats())
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}", file=out)
        tele.add("cache", {"removed": removed, "root": str(cache.root)})
    tele.finish()
    return 0


def _parse_set(entries: Optional[List[str]]) -> Dict[str, object]:
    """Parse repeated ``--set key=value`` flags; values are JSON when they
    parse as JSON (``--set 'benchmarks=["gcc","mcf"]'``), else strings."""
    sets: Dict[str, object] = {}
    for entry in entries or []:
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {entry!r}")
        try:
            sets[key] = json.loads(raw)
        except json.JSONDecodeError:
            sets[key] = raw
    return sets


def _campaign_target(args: argparse.Namespace):
    """Resolve the positional spec-or-directory into (spec, store).

    A directory is opened as an existing store (its snapshot carries the
    resolved cells, so no spec file is needed); a file is parsed as a
    spec, with the store at ``--dir`` or ``campaigns/<name>``.
    """
    import os

    from .campaign import CampaignSpec, CampaignStore, SpecError, StoreError

    target = args.target
    try:
        if os.path.isdir(target):
            store = CampaignStore(target)
            spec = store.open()
        else:
            spec = CampaignSpec.load(target)
            store = CampaignStore(
                args.dir or os.path.join("campaigns", spec.name))
        spec.apply_sets(_parse_set(getattr(args, "set", None)))
        return spec, store
    except (SpecError, StoreError) as exc:
        raise SystemExit(str(exc))


def _watch_campaign(spec, store, frame_fn, out, interval: float) -> None:
    """Refresh the live status frame until every cell has a verdict.

    Each frame re-reads the store index (another process is doing the
    actual running), so a concurrent ``campaign run`` drives the display.
    A TTY gets ANSI clear-and-home between frames; a pipe gets frames
    separated by blank lines.  Ctrl-C exits the watch, not the campaign.
    """
    import time

    clear = "\033[2J\033[H" if out.isatty() else "\n"
    total = len(spec.cells())
    try:
        while True:
            store.refresh()
            print(clear + "\n".join(frame_fn(spec, store)), file=out,
                  flush=True)
            counts = store.counts()
            if sum(counts.values()) >= total:
                print("campaign complete", file=out)
                return
            time.sleep(interval)
    except KeyboardInterrupt:
        print("", file=out)


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench history|check`` — the perf trajectory and its gate."""
    from .bench import check_history, load_history
    from .bench.history import render_history

    tele = _Telemetry(args, f"bench-{args.action}")
    out = tele.human
    records = load_history(args.file)
    if args.action == "history":
        print("\n".join(render_history(records, last_n=args.last or None)),
              file=out)
        tele.add("bench_history", {"file": args.file,
                                   "records": len(records)})
        tele.finish()
        return 0

    # check
    ok, results = check_history(records, last_n=args.last,
                                slow_tol=args.slow_tol,
                                floor_tol=args.floor_tol)
    if not results:
        print(f"bench check: no baseline yet ({len(records)} record(s) in "
              f"{args.file}); passing vacuously", file=out)
    else:
        gated = [r for r in results if r.direction != "info"]
        failed = [r for r in results if not r.ok]
        print(f"bench check: latest vs median of last {args.last} "
              f"({len(gated)} gated metrics, {len(failed)} regressed)",
              file=out)
        for result in results:
            print(result.render(), file=out)
    tele.add("bench_check", {
        "file": args.file,
        "ok": ok,
        "records": len(records),
        "results": [{"metric": r.metric, "direction": r.direction,
                     "baseline": r.baseline, "latest": r.latest,
                     "limit": r.limit, "ok": r.ok} for r in results],
    })
    tele.finish()
    return 0 if ok else 2


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the long-lived online prediction daemon."""
    from .serve.engine import ServeConfig, default_spool, run_serve

    tele = _Telemetry(args, "serve")
    config = ServeConfig(
        host=args.host,
        port=None if args.stdio else args.port,
        stdio=args.stdio,
        shards=args.shards,
        max_streams=args.max_streams,
        high_water=args.high_water,
        batch_events=args.batch_events,
        backend=args.backend,
        spool=args.spool or default_spool(),
    )
    engine = run_serve(config, registry=tele.registry, announce=tele.human)
    tele.add("serve", engine.daemon_stats())
    tele.finish()
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen`` — drive a running daemon, report QPS/latency."""
    from .serve.loadgen import DEFAULT_WORKLOADS, run_loadgen

    tele = _Telemetry(args, "loadgen")
    out = tele.human
    workloads = (tuple(b.strip() for b in args.bench.split(",") if b.strip())
                 if args.bench else DEFAULT_WORKLOADS)
    if args.trace:
        from .trace.workloads import is_known, known_names

        if not is_known(args.trace):
            raise SystemExit(f"loadgen: unknown workload {args.trace!r}; "
                             f"choose from {known_names()}")
        workloads = (args.trace,)
    try:
        report = run_loadgen(
            args.host, args.port,
            streams=args.streams,
            events_per_stream=args.events,
            frame_events=args.frame_events,
            predictor=args.predictor,
            gated=args.gated,
            mode=args.mode,
            rate=args.rate,
            workloads=workloads,
            verify=args.verify,
            timeout=args.timeout,
        )
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"loadgen: cannot reach {args.host}:{args.port} "
                         f"({exc})")
    print(f"loadgen [{report['mode']}]: {report['streams']} streams x "
          f"{args.events} events ({report['predictor']}"
          f"{', gated' if report['gated'] else ''})", file=out)
    print(f"  applied {report['events_applied']}/"
          f"{report['events_offered']} events in "
          f"{report['wall_s']:.2f}s -> {report['events_eps']:,.0f} "
          "events/s", file=out)
    print(f"  frames {report['frames']}, busy {report['busy']}, "
          f"errors {report['errors']}", file=out)
    print(f"  latency p50 {report['p50_ms']:.2f} ms / "
          f"p90 {report['p90_ms']:.2f} ms / "
          f"p99 {report['p99_ms']:.2f} ms", file=out)
    exit_code = 0
    verify = report.get("verify")
    if verify is not None:
        print(f"  verify: {verify['matched']}/{verify['checked']} streams "
              "bit-identical to the batch harness", file=out)
        for miss in verify["mismatches"]:
            print(f"    mismatch {miss['stream']}: serve={miss['serve']} "
                  f"batch={miss['batch']}", file=out)
        if verify["matched"] != verify["checked"]:
            exit_code = 2
    if report["errors"]:
        exit_code = exit_code or 2
    tele.add("loadgen", report)
    tele.finish()
    return exit_code


def cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignScheduler,
        RetryPolicy,
        StoreError,
        check_fidelity,
        render_checks,
        render_report,
        status_lines,
        telemetry_lines,
        watch_lines,
    )

    tele = _Telemetry(args, f"campaign-{args.action}")
    spec, store = _campaign_target(args)
    out = tele.human

    if args.action in ("run", "resume"):
        if getattr(args, "no_shm", False):
            os.environ["REPRO_SHM"] = "0"
        if args.action == "resume" and not store.exists():
            raise SystemExit(f"nothing to resume: {store.root} does not "
                             "exist (use 'campaign run')")
        try:
            store.create(spec)
        except StoreError as exc:
            raise SystemExit(str(exc))
        progress = tele.progress(f"campaign {spec.name}: ")
        scheduler = CampaignScheduler(
            spec, store,
            max_workers=args.jobs,
            retry=RetryPolicy(max_attempts=args.max_attempts,
                              backoff_base_s=args.backoff),
            registry=tele.registry,
            on_progress=progress,
            stop_after=args.stop_after,
            warm=not args.no_warm,
        )
        log.info("campaign %s: %d cells into %s", spec.name,
                 len(spec.cells()), store.root)
        with tele.timer("campaign") as span:
            summary = scheduler.run()
            span.items = summary.completed
        if progress is not None:
            progress.close()
        print(f"campaign {spec.name} at {store.root}: "
              f"{summary.completed} executed, {summary.skipped} skipped, "
              f"{summary.quarantined} quarantined "
              f"({summary.retried} retries, {summary.crashes} worker "
              "crashes)", file=out)
        if summary.stopped_early:
            print(f"stopped after {args.stop_after} cells; "
                  "'campaign resume' continues", file=out)
        for label in summary.quarantined_labels:
            print(f"  quarantined: {label}", file=out)
        counts = store.counts()
        tele.add("campaign", {
            "name": spec.name,
            "dir": str(store.root),
            "executed": summary.completed,
            "skipped": summary.skipped,
            "retried": summary.retried,
            "quarantined": summary.quarantined,
            "crashes": summary.crashes,
            "stopped_early": summary.stopped_early,
            "store": counts,
        })
        tele.finish()
        return 1 if counts.get("quarantined") else 0

    if not store.exists():
        raise SystemExit(f"{store.root} is not a campaign directory")
    if args.action == "status":
        if args.watch:
            _watch_campaign(spec, store, watch_lines, out, args.interval)
        else:
            print("\n".join(status_lines(spec, store)), file=out)
        tele.add("campaign", {"name": spec.name, "store": store.counts()})
        tele.finish()
        return 0

    # report
    text = render_report(spec, store)
    print(text, file=out)
    if args.telemetry:
        print("", file=out)
        print("\n".join(telemetry_lines(spec, store)), file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nsaved to {args.out}", file=out)
    exit_code = 0
    if args.check:
        checks = check_fidelity(spec, store)
        print("", file=out)
        print(render_checks(checks), file=out)
        if not checks:
            print("  (spec declares no fidelity targets)", file=out)
        if any(not c.ok for c in checks):
            exit_code = 2
        tele.add("fidelity", [
            {"label": c.label, "target": c.target, "tol": c.tol,
             "actual": c.actual, "ok": c.ok, "error": c.error}
            for c in checks])
    tele.add("campaign", {"name": spec.name, "store": store.counts()})
    tele.finish()
    return exit_code


def _sample_rate(text: str) -> float:
    """argparse type for ``--trace-sample``: a float within [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"sampling rate must be within [0, 1], got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for ``--length``, ``--code-copies`` and ``--jobs``:
    an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    telemetry = argparse.ArgumentParser(add_help=False)
    group = telemetry.add_argument_group("telemetry")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="-v for INFO, -vv for DEBUG (repro.* loggers)")
    group.add_argument("--metrics-out", metavar="FILE",
                       help="write a JSON run manifest; '-' streams it to "
                            "stdout (tables then print to stderr)")
    group.add_argument("--trace-events", metavar="FILE",
                       help="write sampled prediction events as JSON lines")
    group.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace-event span timeline "
                            "(open in ui.perfetto.dev); '-' streams it "
                            "to stdout")
    group.add_argument("--trace-sample", type=_sample_rate, default=0.01,
                       metavar="RATE",
                       help="event sampling probability in [0, 1] "
                            "(default 0.01)")
    group.add_argument("--trace-seed", type=int, default=0, metavar="SEED",
                       help="sampling RNG seed (default 0)")
    group.add_argument("--no-progress", action="store_true",
                       help="disable the TTY progress line")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Detecting Global Stride Locality in "
                    "Value Streams' (ISCA 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[telemetry],
                   help="list benchmarks, experiments, predictors")

    p_run = sub.add_parser("run", parents=[telemetry],
                           help="regenerate a paper table/figure")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--length", type=_positive_int, default=None,
                       help="trace length per benchmark")
    p_run.add_argument("--bench", help="comma-separated benchmark subset")
    p_run.add_argument("--out", help="also save the rendered table here")

    # Like ``cache``, the trace command carries nested actions; telemetry
    # flags live on the leaf parsers only.  ``main()`` rewrites the
    # historical ``repro trace <benchmark>`` to ``trace gen <benchmark>``.
    p_trace = sub.add_parser("trace",
                             help="generate, import, or inspect workload "
                                  "traces (docs/WORKLOADS.md)")
    trace_sub = p_trace.add_subparsers(dest="action", required=True)
    p_tgen = trace_sub.add_parser("gen", parents=[telemetry],
                                  help="generate a workload trace")
    p_tgen.add_argument("benchmark",
                        help="suite benchmark, adversarial scenario, or "
                             "imported workload")
    p_tgen.add_argument("--length", type=_positive_int, default=100_000)
    p_tgen.add_argument("--out", help="save the trace (.trace / .trace.gz)")
    p_timp = trace_sub.add_parser(
        "import", parents=[telemetry],
        help="convert an external value/address stream into a "
             "first-class workload")
    p_timp.add_argument("source", nargs="?",
                        help="trace dump: .csv/.ndjson interchange, .cvp, "
                             "or .champsim (each optionally .gz)")
    p_timp.add_argument("--format",
                        help="adapter name (default: detect from the "
                             "source suffix)")
    p_timp.add_argument("--capture", metavar="SCRIPT",
                        help="run a Python script under the bytecode "
                             "capture hook instead of reading a dump")
    p_timp.add_argument("--arg", action="append", metavar="ARG",
                        help="argv entry for --capture (repeatable)")
    p_timp.add_argument("--scope", choices=("script", "tree", "all"),
                        default="script",
                        help="which frames --capture records: the script "
                             "file, its directory tree, or everything "
                             "(default script)")
    p_timp.add_argument("--name", help="workload name (default: derived "
                                       "from the source filename)")
    p_timp.add_argument("--limit", type=int, default=None,
                        help="stop after N events")
    p_timp.add_argument("--force", action="store_true",
                        help="replace an existing import of the same name")
    trace_sub.add_parser("list", parents=[telemetry],
                         help="list imported workloads")
    p_tinfo = trace_sub.add_parser("info", parents=[telemetry],
                                   help="print an import's provenance "
                                        "manifest")
    p_tinfo.add_argument("name")
    p_trm = trace_sub.add_parser("remove", parents=[telemetry],
                                 help="delete an imported workload")
    p_trm.add_argument("name")

    p_work = sub.add_parser("workloads", parents=[telemetry],
                            help="sweep the workload bank (suite + "
                                 "adversarial + imported) through the "
                                 "predictor zoo")
    p_work.add_argument("--groups", default="suite,adversarial,imported",
                        help="comma-separated bank groups (default: all)")
    p_work.add_argument("--only", help="comma-separated workload subset")
    p_work.add_argument("--predictors",
                        default="stride,dfcm,gdiff8,gdiff32",
                        help="comma-separated zoo subset "
                             "(default stride,dfcm,gdiff8,gdiff32)")
    p_work.add_argument("--length", type=_positive_int, default=None,
                        help="trace length (default: the adversarial "
                             "bank's calibrated length)")
    p_work.add_argument("--check", action="store_true",
                        help="gate adversarial accuracies against their "
                             "declared bands; exit 2 on drift")
    p_work.add_argument("--smoke", action="store_true",
                        help="CI shape: adversarial + imported groups at "
                             "the calibrated length with --check")

    p_pred = sub.add_parser("predict", parents=[telemetry],
                            help="profile accuracy comparison")
    p_pred.add_argument("benchmark",
                        help="suite benchmark, adversarial scenario, or "
                             "imported workload")
    p_pred.add_argument("--length", type=_positive_int, default=100_000)
    p_pred.add_argument("--predictors",
                        default="stride,dfcm,gdiff8,gdiff32")
    p_pred.add_argument("--gated", action="store_true",
                        help="apply the 3-bit confidence gate")

    p_sim = sub.add_parser("simulate", parents=[telemetry],
                           help="run the OOO core")
    p_sim.add_argument("benchmark",
                       help="suite benchmark, adversarial scenario, or "
                            "imported workload")
    p_sim.add_argument("--length", type=_positive_int, default=50_000)
    p_sim.add_argument("--vp", help="value-prediction scheme "
                                    "(stride|dfcm|sgvq|hgvq|gdiff-sgvq|"
                                    "gdiff-hgvq)")
    p_sim.add_argument("--speculate", action="store_true",
                       help="break dependencies on confident predictions")

    p_all = sub.add_parser("run-all", parents=[telemetry],
                           help="run the experiment registry in parallel")
    p_all.add_argument("--experiments",
                       help="comma-separated experiment subset "
                            "(default: all)")
    p_all.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes (default: all cores; "
                            "1 = serial)")
    p_all.add_argument("--length", type=_positive_int, default=None,
                       help="trace length per benchmark")
    p_all.add_argument("--bench", help="comma-separated benchmark subset")
    p_all.add_argument("--out-dir",
                       help="save each experiment's table (.txt) and data "
                            "(.json) here")
    p_all.add_argument("--profile", action="store_true",
                       help="run under cProfile (serial) and print the "
                            "top-20 cumulative entries to stderr")
    p_all.add_argument("--no-shm", action="store_true",
                       help="disable the shared-memory trace plane "
                            "(workers load traces from the disk cache)")

    # Telemetry flags live on the leaf action parsers only: sharing the
    # parent with ``p_cache`` would let the leaf's defaults overwrite
    # flags given before the action word.
    p_cache = sub.add_parser("cache",
                             help="manage the on-disk trace cache")
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    cache_sub.add_parser("stats", parents=[telemetry],
                         help="entry count, sizes, hit/miss counters")
    p_warm = cache_sub.add_parser("warm", parents=[telemetry],
                                  help="pre-generate benchmark traces")
    p_warm.add_argument("--length", type=_positive_int, default=100_000)
    p_warm.add_argument("--code-copies", type=_positive_int, default=1)
    p_warm.add_argument("--bench", help="comma-separated benchmark subset")
    cache_sub.add_parser("clear", parents=[telemetry],
                         help="delete every cache entry")

    p_camp = sub.add_parser("campaign",
                            help="declarative, resumable experiment "
                                 "campaigns (docs/CAMPAIGNS.md)")
    camp_sub = p_camp.add_subparsers(dest="action", required=True)

    def _camp_common(p):
        p.add_argument("target",
                       help="campaign spec (.toml/.json) or an existing "
                            "campaign directory")
        p.add_argument("--dir", help="campaign directory (default: "
                                     "campaigns/<name>)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a parameter in every cell "
                            "(repeatable; value parsed as JSON when "
                            "possible)")

    for action in ("run", "resume"):
        p = camp_sub.add_parser(
            action, parents=[telemetry],
            help=("execute pending cells (skips completed ones)"
                  if action == "run"
                  else "continue an interrupted campaign"))
        _camp_common(p)
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes (default: all cores; "
                            "1 = in-process)")
        p.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per cell before quarantine "
                            "(default 3)")
        p.add_argument("--backoff", type=float, default=0.25,
                       metavar="SECONDS",
                       help="base retry backoff, doubled per round and "
                            "capped (default 0.25)")
        p.add_argument("--stop-after", type=int, default=None,
                       metavar="N",
                       help="stop cleanly after executing N new cells "
                            "(for testing interrupt/resume)")
        p.add_argument("--no-warm", action="store_true",
                       help="skip the up-front trace cache warm")
        p.add_argument("--no-shm", action="store_true",
                       help="disable the shared-memory trace plane "
                            "(workers load traces from the disk cache)")

    p_status = camp_sub.add_parser("status", parents=[telemetry],
                                   help="per-cell completion state from "
                                        "the store")
    _camp_common(p_status)
    p_status.add_argument("--watch", action="store_true",
                          help="live-refreshing progress view (bar, "
                               "throughput, ETA) until the campaign "
                               "completes; Ctrl-C exits")
    p_status.add_argument("--interval", type=float, default=2.0,
                          metavar="SECONDS",
                          help="refresh period for --watch (default 2)")

    p_report = camp_sub.add_parser("report", parents=[telemetry],
                                   help="render result tables from the "
                                        "store alone")
    _camp_common(p_report)
    p_report.add_argument("--check", action="store_true",
                          help="run the paper-fidelity gate; exit 2 on "
                               "drift")
    p_report.add_argument("--telemetry", action="store_true",
                          help="append the execution-telemetry section "
                               "(slowest cells, retries/quarantine, "
                               "cache hit rate)")
    p_report.add_argument("--out", help="also save the report here")

    p_bench = sub.add_parser("bench",
                             help="benchmark perf history and its "
                                  "regression gate (docs/OBSERVABILITY.md)")
    bench_sub = p_bench.add_subparsers(dest="action", required=True)
    from .bench import DEFAULT_HISTORY_PATH
    from .bench.history import DEFAULT_BASELINE_N

    p_hist = bench_sub.add_parser("history", parents=[telemetry],
                                  help="list recorded bench sessions, "
                                       "newest last")
    p_check = bench_sub.add_parser("check", parents=[telemetry],
                                   help="gate the latest session against "
                                        "the median of the last N; exit 2 "
                                        "on regression")
    for p in (p_hist, p_check):
        p.add_argument("--file", default=DEFAULT_HISTORY_PATH,
                       metavar="JSONL",
                       help=f"history file (default {DEFAULT_HISTORY_PATH})")
    p_hist.add_argument("--last", type=int, default=0, metavar="N",
                        help="show only the last N records (default: all)")
    p_check.add_argument("--last", type=int, default=DEFAULT_BASELINE_N,
                         metavar="N",
                         help="baseline = median of the last N prior "
                              f"records (default {DEFAULT_BASELINE_N})")
    p_check.add_argument("--slow-tol", type=float, default=1.75,
                         metavar="RATIO",
                         help="wall times may grow to RATIO x baseline "
                              "before failing (default 1.75)")
    p_check.add_argument("--floor-tol", type=float, default=0.6,
                         metavar="RATIO",
                         help="speedups may shrink to RATIO x baseline "
                              "before failing (default 0.6)")

    from .serve.engine import (
        DEFAULT_BATCH_EVENTS,
        DEFAULT_HIGH_WATER,
        DEFAULT_PORT,
        DEFAULT_SHARDS,
    )

    p_serve = sub.add_parser("serve", parents=[telemetry],
                             help="online prediction daemon "
                                  "(docs/SERVING.md)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"listen port; 0 = ephemeral "
                              f"(default {DEFAULT_PORT})")
    p_serve.add_argument("--stdio", action="store_true",
                         help="speak frames on stdin/stdout instead of a "
                              "socket (for subprocess embedding)")
    p_serve.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                         help="predictor shards = pinned pool workers "
                              f"(default {DEFAULT_SHARDS})")
    p_serve.add_argument("--max-streams", type=int, default=0,
                         metavar="N",
                         help="resident streams per shard before LRU "
                              "eviction to snapshots (0 = default)")
    p_serve.add_argument("--high-water", type=int,
                         default=DEFAULT_HIGH_WATER, metavar="FRAMES",
                         help="queued frames per shard before BUSY "
                              f"(default {DEFAULT_HIGH_WATER})")
    p_serve.add_argument("--batch-events", type=int,
                         default=DEFAULT_BATCH_EVENTS, metavar="EVENTS",
                         help="events coalesced per shard dispatch "
                              f"(default {DEFAULT_BATCH_EVENTS})")
    p_serve.add_argument("--backend", choices=("pool", "inproc"),
                         default="pool",
                         help="pool = sharded worker processes (default); "
                              "inproc = single-process, for debugging")
    p_serve.add_argument("--spool", help="snapshot spool directory for "
                                         "evicted streams")

    p_load = sub.add_parser("loadgen", parents=[telemetry],
                            help="drive a running daemon; report QPS and "
                                 "latency percentiles")
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_load.add_argument("--streams", type=int, default=64,
                        help="concurrent streams (default 64)")
    p_load.add_argument("--events", type=int, default=2000,
                        help="events per stream (default 2000)")
    p_load.add_argument("--frame-events", type=int, default=256,
                        help="events per frame (default 256)")
    p_load.add_argument("--predictor", default="gdiff32",
                        help="per-stream predictor spec (default gdiff32)")
    p_load.add_argument("--gated", action="store_true",
                        help="apply the 3-bit confidence gate")
    p_load.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="closed = one frame in flight per stream "
                             "(default); open = fixed offered rate")
    p_load.add_argument("--rate", type=float, default=None,
                        metavar="EVENTS_PER_S",
                        help="offered rate for --mode open")
    p_load.add_argument("--bench", help="comma-separated workload subset "
                                        "for stream content")
    p_load.add_argument("--trace", metavar="NAME",
                        help="replay one workload (e.g. an imported "
                             "trace) on every stream; overrides --bench")
    p_load.add_argument("--verify", action="store_true",
                        help="after the run, check every stream's stats "
                             "are bit-identical to the batch harness "
                             "(closed mode)")
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="socket timeout in seconds (default 120)")
    return parser


#: Action words of the nested ``trace`` subcommand; anything else after
#: ``trace`` keeps its historical generate meaning.
_TRACE_ACTIONS = ("gen", "import", "list", "info", "remove")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: ``repro trace <benchmark>`` predates the nested trace
    # actions and still has to work (scripts, docs, muscle memory).
    if (argv[:1] == ["trace"] and len(argv) > 1
            and argv[1] not in _TRACE_ACTIONS
            and not argv[1].startswith("-")):
        argv.insert(1, "gen")
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", 0):
        configure_logging(args.verbose)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "trace": cmd_trace,
        "workloads": cmd_workloads,
        "predict": cmd_predict,
        "simulate": cmd_simulate,
        "run-all": cmd_run_all,
        "cache": cmd_cache,
        "campaign": cmd_campaign,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Reader closed early (e.g. `repro run-all | head`): the Unix
        # convention is a silent exit, not a traceback.  Point stdout at
        # devnull so interpreter shutdown doesn't re-raise on flush.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
