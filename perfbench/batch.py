"""The batch workloads: ``reproduce`` (``repro run-all``) and ``sweep``
(``repro campaign run`` on a 120-cell predict grid).

Each timed command is a fresh process against a disk trace cache that
set-up filled, so no run inherits another's in-process memos.  Set-up is
measured separately, from an empty cache, between timed commands.

Run ``python3 perfbench/batch.py --record-reference`` to rewrite the
``reproduce`` table digests in ``reference/reproduce.json`` (only when a
change is meant to alter the paper's tables).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import attribution
import common
from common import (JOBS, SETUP_REPS, SUITE, TINY_SETUP_REPS, BenchError,
                    Workdir, metric, median, note)

#: ``repro run-all --length`` of the reproduce workload (and its tiny
#: self-test size).
REPRODUCE_LENGTH = 5000
TINY_REPRODUCE_LENGTH = 1000
#: Trace length of every sweep cell.
SWEEP_LENGTH = 20000
TINY_SWEEP_LENGTH = 2000
#: At least this many timed commands per run, however short --seconds is.
MIN_REPS = 2
#: A set-up sample after every this many timed commands.
SETUP_EVERY = 2
#: Untraced/traced command pairs in a traced run.
TRACED_PAIRS = 2

REFERENCE = common.HERE / "reference" / "reproduce.json"

EXPERIMENT_IDS = ("fig8", "fig9", "fig10", "fig12", "fig13", "fig16",
                  "fig18a", "fig18b", "table2", "fig19")

#: The sweep grid's predictor families: matrix value -> cell parameters.
SWEEP_FAMILIES = {
    "last-value": {"predictor": "last-value"},
    "stride": {"predictor": "stride"},
    "dfcm": {"predictor": "dfcm"},
    "gdiff8": {"predictor": "gdiff", "order": 8},
    "gdiff32": {"predictor": "gdiff", "order": 32},
    "hgvq": {"predictor": "hgvq"},
}


class BatchWorkload:
    """What the two batch workloads share: set-up, timed runs, tracing."""

    name = ""

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 break_reference: bool):
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.break_reference = break_reference
        self.work = Workdir(self.name)
        self.cache = self.work.path("cache")
        self.env = self.work.env(self.cache)
        self.attempted = 0
        self.failed = 0

    # -- hooks ----------------------------------------------------------------
    def trace_keys(self) -> List[Tuple[str, int, Optional[int], int]]:
        raise NotImplementedError

    def command(self, tag: str) -> List[str]:
        raise NotImplementedError

    def collect(self, tag: str, cmd: common.Command) -> Dict[str, object]:
        """Check one finished command's outputs; returns its event count
        and what ``layer_metrics`` reads from it."""
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------------
    def fill_cache(self, directory: Optional[Path] = None) -> float:
        """Generate and store every trace the workload reads, into an empty
        cache at *directory* (the commands' cache by default); returns
        the seconds it took."""
        from repro.trace.cache import TraceCache

        directory = directory or self.cache
        if directory.exists():
            shutil.rmtree(directory)
        cache = TraceCache(directory)
        started = time.perf_counter()
        for bench, length, seed, copies in self.trace_keys():
            cache.load_or_generate(bench, length, seed=seed,
                                   code_copies=copies)
        return time.perf_counter() - started

    # -- measurement --------------------------------------------------------------
    #: Exit codes of a command that ran to the end.
    ok_codes = (0,)

    def run_once(self, tag: str, argv_prefix: Optional[List[str]] = None
                 ) -> Tuple[common.Command, Dict[str, object]]:
        args = self.command(tag)
        argv = (argv_prefix + args if argv_prefix is not None
                else [sys.executable, "-m", "repro", *args])
        cmd = common.Command(argv, self.env, self.work.root,
                             self.work.path(f"{tag}.log"))
        code = cmd.wait(170.0)
        if code not in self.ok_codes:
            raise BenchError(f"{self.name} command exited {code}:\n"
                             f"{cmd.tail()}")
        return cmd, self.collect(tag, cmd)

    def prepare(self) -> None:
        """Work the output check needs, done before anything is timed."""

    def warm_up(self) -> None:
        """One untimed command first: the first run after set-up pays for
        cold file caches (interpreter, ``git`` for the run manifest) that
        later runs do not."""
        self.run_once("warmup")

    def measure(self) -> Dict[str, Dict[str, object]]:
        """Timed commands until ``--seconds`` have passed, with a set-up
        into a cache of its own after every ``SETUP_EVERY`` of them, so
        the set-up samples span the same stretch of the run (and of the
        host's load) as the commands.  Every figure is the median over
        the run."""
        setups = [self.fill_cache()]
        self.prepare()
        self.warm_up()
        setup_reps = TINY_SETUP_REPS if self.tiny else SETUP_REPS
        setup_cache = self.work.path("setup-cache")
        walls: List[float] = []
        rss: List[float] = []
        events = 0
        started = time.perf_counter()
        while (len(walls) < MIN_REPS or len(setups) < setup_reps
               or time.perf_counter() - started < self.seconds):
            cmd, info = self.run_once(f"run{len(walls)}")
            walls.append(cmd.wall_s)
            rss.append(cmd.peak_mb)
            events = info["events"]
            note(f"{self.name}: run {len(walls) - 1} wall {cmd.wall_s:.3f} s, "
                 f"peak {cmd.peak_mb:.1f} MiB")
            if len(walls) % SETUP_EVERY == 0:
                setups.append(self.fill_cache(setup_cache))
                note(f"{self.name}: set-up {setups[-1]:.3f} s")
        wall = median(walls)
        return {
            "setup_s": metric(median(setups), "s"),
            "wall_s": metric(wall, "s"),
            "throughput_eps": metric(events / wall, "events/s"),
            "peak_rss_mb": metric(median(rss), "MiB"),
        }

    def traced_part(self) -> Dict[str, Dict[str, object]]:
        """The workload's share of a traced run: its commands untraced
        and under the span launcher, alternating so drift in the machine
        lands on both sides of the overhead; spans come from the first
        traced command."""
        self.fill_cache()
        self.prepare()
        self.warm_up()
        plain, traced = [], []
        for i in range(TRACED_PAIRS):
            plain.append(self.run_once(f"untraced{i}"))
            spans_dir = self.work.fresh(f"spans{i}")
            traced.append(self.run_once(
                f"traced{i}", argv_prefix=common.launcher_argv(spans_dir,
                                                               [])))
        files, counters = attribution.load_spans(self.work.path("spans0"))
        manifest = json.loads(self.work.path("traced0-metrics.json")
                              .read_text())
        for name, value in manifest["metrics"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        cmd = traced[0][0]
        out = attribution.report(
            self.name, attribution.attribute(files, cmd.t0_ns, cmd.t1_ns),
            cmd.wall_s, median(c.wall_s for c, _ in traced)
            - median(c.wall_s for c, _ in plain))
        out.update(self.layer_metrics(files, counters, *plain[0]))
        return out

    def layer_metrics(self, files, counters, plain, plain_info
                      ) -> Dict[str, Dict[str, object]]:
        """Per-layer metrics only this workload produces."""
        raise NotImplementedError

    def close(self) -> None:
        self.work.close()


def counter_metrics(counters: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    """Trace-tier and pool figures from the program's own counters."""
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    return {
        "trace.hit_ratio": metric(hits / (hits + misses)
                                  if hits + misses else 0.0, "ratio"),
        "trace.misses": metric(misses, "count"),
        "trace.shm_attaches": metric(counters.get("shm.attach", 0), "count"),
        "dispatch.tasks": metric(counters.get("pool.tasks", 0), "count"),
        "dispatch.fallbacks": metric(counters.get("parallel.fallback", 0),
                                     "count"),
        "dispatch.replaced": metric(counters.get("pool.replace", 0),
                                    "count"),
    }


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------
def _trace_plan(experiments, length: int):
    """The program's own list of traces *experiments* read at *length*:
    the campaign scheduler's warm plan for the same experiment cells."""
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict({
        "campaign": {"name": "perfbench-reproduce"},
        "defaults": {"kind": "experiment", "length": length},
        "matrix": {"experiment": list(experiments)},
    })
    return CampaignScheduler(spec, store=None).warm_plan(spec.cells())


def _table_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reproduce(BatchWorkload):
    """``repro run-all --jobs 2`` at a fixed reduced length."""

    name = "reproduce"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.length = TINY_REPRODUCE_LENGTH if self.tiny else REPRODUCE_LENGTH
        digests = json.loads(REFERENCE.read_text())
        self.reference = dict(digests[str(self.length)])
        if self.break_reference:
            self.reference["fig8"] = "0" * 64

        #: Trace instructions the run hands its experiments: each
        #: experiment reads each of its benchmarks' traces once.
        self.events = sum(len(_trace_plan([exp], self.length)) * self.length
                          for exp in EXPERIMENT_IDS)

    def trace_keys(self):
        return sorted(_trace_plan(EXPERIMENT_IDS, self.length),
                      key=lambda k: (k[0], k[3]))

    def command(self, tag):
        out = self.work.fresh(f"{tag}-tables")
        return ["run-all", "--jobs", str(JOBS), "--length", str(self.length),
                "--no-progress", "--out-dir", str(out),
                "--metrics-out", str(self.work.path(f"{tag}-metrics.json"))]

    def collect(self, tag, cmd):
        tables = self.work.path(f"{tag}-tables")
        for exp in EXPERIMENT_IDS:
            self.attempted += 1
            path = tables / f"{exp}.json"
            if not path.exists() or _table_digest(path) != self.reference[exp]:
                self.failed += 1
                note(f"reproduce: {exp} differs from the reference tables")
        return {"events": self.events}

    def layer_metrics(self, files, counters, plain, plain_info):
        spans = attribution.span_durations(files, "run_experiment")
        return {f"experiment_s.{exp}": metric(spans[exp], "s")
                for exp in EXPERIMENT_IDS}


def record_reference() -> None:
    """Write the reproduce table digests at both workload lengths."""
    common.require_source()
    common.import_repro()
    common.compile_sources()
    digests = {}
    for length in (REPRODUCE_LENGTH, TINY_REPRODUCE_LENGTH):
        work = Workdir("reference")
        try:
            env = work.env(work.path("cache"))
            out = work.fresh("tables")
            common.run_repro(["run-all", "--jobs", str(JOBS), "--length",
                              str(length), "--no-progress", "--out-dir",
                              str(out)], env, work.root, work.path("log"))
            digests[str(length)] = {exp: _table_digest(out / f"{exp}.json")
                                    for exp in EXPERIMENT_IDS}
        finally:
            work.close()
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    note(f"wrote {REFERENCE}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def sweep_spec(length: int, seed: int) -> Dict[str, object]:
    """The 120-cell predict grid: suite x family x {ungated, gated}."""
    return {
        "campaign": {"name": "perfbench-sweep"},
        "defaults": {"kind": "predict", "length": length, "seed": seed},
        "matrix": {"bench": list(SUITE), "predictor": list(SWEEP_FAMILIES),
                   "gated": [False, True]},
        "override": [{"where": {"predictor": family}, "set": params}
                     for family, params in SWEEP_FAMILIES.items()
                     if params != {"predictor": family}],
    }


def reference_predictor(params: Dict[str, object]):
    """A predict cell's predictor, built directly from the predictor
    classes (the reference side of the sweep output check)."""
    from repro.core.gdiff import GDiffPredictor
    from repro.core.hybrid import HybridGDiffPredictor
    from repro.predictors.dfcm import DFCMPredictor
    from repro.predictors.last_value import LastValuePredictor
    from repro.predictors.stride import StridePredictor

    name = params["predictor"]
    if name == "gdiff":
        return GDiffPredictor(order=params["order"], entries=None)
    if name == "hgvq":
        return HybridGDiffPredictor(order=32, entries=None)
    if name == "dfcm":
        return DFCMPredictor(order=4, l1_entries=None)
    if name == "stride":
        return StridePredictor(entries=None)
    return LastValuePredictor(entries=None)


class Sweep(BatchWorkload):
    """``repro campaign run --jobs 2`` on a fresh campaign directory."""

    name = "sweep"
    #: ``campaign run`` exits 1 when a cell was quarantined; that is a
    #: failed cell, counted by the output check, not a broken run.
    ok_codes = (0, 1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.length = TINY_SWEEP_LENGTH if self.tiny else SWEEP_LENGTH
        self.spec_path = self.work.path("sweep.json")
        self.spec_path.write_text(json.dumps(sweep_spec(self.length,
                                                        self.seed)))
        self._reference: Optional[Dict[Tuple, Dict]] = None

    def trace_keys(self):
        return [(bench, self.length, self.seed, 1) for bench in SUITE]

    def command(self, tag):
        camp = self.work.path(f"{tag}-campaign")
        if camp.exists():
            shutil.rmtree(camp)
        return ["campaign", "run", str(self.spec_path), "--dir", str(camp),
                "--jobs", str(JOBS), "--no-progress",
                "--metrics-out", str(self.work.path(f"{tag}-metrics.json"))]

    def prepare(self) -> None:
        self.reference()

    def reference(self) -> Dict[Tuple, Dict]:
        """Each cell's stats from ``run_value_prediction`` on the same
        trace, computed once per run outside every timed region."""
        if self._reference is None:
            from repro.harness.runner import run_value_prediction
            from repro.trace.cache import TraceCache

            cache = TraceCache(self.cache)
            ref: Dict[Tuple, Dict] = {}
            for bench in SUITE:
                trace = cache.load_or_generate(bench, self.length,
                                               seed=self.seed)
                for family, params in SWEEP_FAMILIES.items():
                    for gated in (False, True):
                        stats = run_value_prediction(
                            trace, {"ref": reference_predictor(params)},
                            gated=gated)["ref"].as_dict()
                        if self.break_reference:
                            stats["correct"] += 1
                        ref[(bench, family, gated)] = stats
            self._reference = ref
        return self._reference

    @staticmethod
    def _family(params: Dict[str, object]) -> str:
        if params["predictor"] == "gdiff":
            return f"gdiff{params['order']}"
        return str(params["predictor"])

    def collect(self, tag, cmd):
        reference = self.reference()
        cells = sorted(self.work.path(f"{tag}-campaign", "cells")
                       .glob("*.json"))
        task_s = []
        events = 0
        seen = 0
        for path in cells:
            record = json.loads(path.read_text())
            params = record["config"]["params"]
            key = (params["bench"], self._family(params),
                   bool(params.get("gated")))
            stats = record["result"]["stats"][params["predictor"]]
            seen += 1
            self.attempted += 1
            if stats != reference.get(key):
                self.failed += 1
                note(f"sweep: cell {record['label']} differs from "
                     "run_value_prediction")
            task_s.append(record["telemetry"]["duration_s"])
            events += record["telemetry"]["events"]
        expected = len(SUITE) * len(SWEEP_FAMILIES) * 2
        if seen < expected:
            # Quarantined or missing cells.
            self.attempted += expected - seen
            self.failed += expected - seen
            note(f"sweep: {expected - seen} cell(s) produced no result")
        return {"task_s": task_s, "events": events}

    def layer_metrics(self, files, counters, plain, plain_info):
        cell_s = plain_info["task_s"]
        out = counter_metrics(counters)
        out["campaign.cell_ms.p50"] = metric(
            common.percentile(cell_s, 50) * 1e3, "ms")
        out["campaign.cell_ms.p99"] = metric(
            common.percentile(cell_s, 99) * 1e3, "ms")
        out["campaign.outside_cell_share"] = metric(
            1.0 - sum(cell_s) / (JOBS * plain.wall_s), "ratio")
        return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-reference"]:
        record_reference()
    else:
        print("usage: batch.py --record-reference", file=sys.stderr)
        sys.exit(2)
