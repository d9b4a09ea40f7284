"""Resumable, fault-tolerant campaign execution.

The scheduler walks the campaign grid and drives every *pending* cell to
one of two terminal states — completed (a record in the store) or
quarantined (a record with the traceback) — while guaranteeing:

* **Resumability**: a cell already in the store is skipped, never
  recomputed; killing a campaign at any instant loses at most the cells
  in flight, because each cell's record is written as soon as its
  outcome reaches the driver, while the rest of its round still runs.
  ``index.json`` is written once at the end of every round (also when a
  round is interrupted); a kill mid-round leaves it one round behind,
  which the next open of the store heals from the records.  Completed
  records are never rewritten on resume.
* **Fault isolation**: an exception inside a cell is caught *in the
  worker* and returned as data, retried with capped exponential backoff,
  and finally quarantined — one broken configuration cannot abort the
  other cells.  A worker that dies outright (segfault, OOM-kill) takes
  only itself down: the persistent pool replaces the dead worker in
  place and the scheduler re-tries only the casualties, so a poisoned
  cell eventually lands in quarantine while its siblings complete.
  (Under the legacy ``REPRO_POOL=fresh`` executor the whole pool breaks
  and is recreated on the next round — same store outcomes, more
  collateral retries.)
* **Determinism**: a worker computes exactly what a direct
  :func:`~repro.harness.experiments.run_experiment` /
  :func:`~repro.harness.runner.run_value_prediction` call computes — same
  functions, fresh state — so campaign records equal direct harness
  results (asserted by ``tests/test_campaign.py``).

The trace cache is warmed once up front (unique ``(bench, length, seed,
code_copies)`` tuples across the whole grid) so workers start from warm
loads instead of racing to generate; combined with the cache's per-key
generation lock, each distinct trace is generated at most once per
machine, ever.
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..harness.parallel import TASK_OK, default_workers, run_tasks
from ..telemetry import MetricsRegistry, RunManifest, get_logger
from ..trace import shm
from ..trace.cache import cache_enabled, default_cache, effective_length
from ..trace.packed import PackedTrace
from .spec import Cell, CampaignSpec
from .store import CampaignStore

log = get_logger("repro.campaign.scheduler")

#: Trace usage of each registry experiment, used to warm the cache before
#: the pool starts: (default length, default code_copies, fixed bench).
#: ``length`` / ``code_copies`` / ``benchmarks`` params override these.
_EXPERIMENT_TRACE_HINTS: Dict[str, Tuple[int, int, Optional[str]]] = {
    "fig8": (100_000, 1, None),
    "fig9": (100_000, 8, None),
    "fig10": (100_000, 1, None),
    "fig12": (50_000, 4, "vortex"),
    "fig13": (50_000, 4, None),
    "fig16": (50_000, 4, None),
    "fig18a": (100_000, 1, None),
    "fig18b": (100_000, 1, None),
    "table2": (50_000, 4, None),
    "fig19": (50_000, 4, None),
}


@dataclass
class RetryPolicy:
    """Capped exponential backoff between retry rounds."""

    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0

    def delay(self, round_no: int) -> float:
        if round_no <= 0:
            return 0.0
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** (round_no - 1)))


@dataclass
class CampaignRunSummary:
    """What one scheduler invocation did (not the store's total state)."""

    total: int = 0
    completed: int = 0
    skipped: int = 0
    retried: int = 0
    quarantined: int = 0
    crashes: int = 0
    stopped_early: bool = False
    quarantined_labels: List[str] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.total - self.completed - self.skipped - self.quarantined


# ---------------------------------------------------------------------------
# Worker side (subprocess): everything below must be picklable/importable.
# ---------------------------------------------------------------------------
def _make_predictor(params: Dict[str, Any]):
    """Build the predictor of a ``predict`` cell from its axes."""
    from ..core.gdiff import GDiffPredictor
    from ..core.hybrid import HybridGDiffPredictor
    from ..predictors.dfcm import DFCMPredictor
    from ..predictors.last_value import LastValuePredictor
    from ..predictors.stride import StridePredictor

    name = params["predictor"]
    entries = params.get("entries")
    if name == "gdiff":
        return GDiffPredictor(order=params.get("order", 8), entries=entries,
                              delay=params.get("delay", 0))
    if name == "hgvq":
        return HybridGDiffPredictor(order=params.get("order", 32),
                                    entries=entries)
    if name == "stride":
        return StridePredictor(entries=entries)
    if name == "dfcm":
        return DFCMPredictor(order=params.get("order", 4),
                             l1_entries=entries)
    if name == "last-value":
        return LastValuePredictor(entries=entries)
    raise ValueError(f"unknown predictor {name!r}")


def _cell_telemetry(registry: MetricsRegistry, duration_s: float,
                    cpu_s: float) -> Dict[str, Any]:
    """The per-cell telemetry summary persisted alongside the result.

    Everything here is derived from the cell's own registry, so the
    stored record is self-describing: ``campaign status``/``report
    --telemetry`` render throughput, retry, and cache behaviour from the
    store alone, long after the run.
    """
    def count(name: str) -> int:
        counter = registry.counters.get(name)
        return counter.value if counter is not None else 0

    def leaf(phase_name: str) -> str:
        # Phases nest with "/" (the cell body runs under a "cell" timer),
        # so the work phase of a predict cell is "cell/predict".
        return phase_name.rsplit("/", 1)[-1]

    events = (count("harness.value_instructions") or count("ooo.retired")
              or sum(p.items for n, p in registry.phases.items()
                     if leaf(n) == "predict"
                     or leaf(n).startswith("experiment.")))
    return {
        "duration_s": round(duration_s, 6),
        "cpu_s": round(cpu_s, 6),
        "events": events,
        "events_per_s": (round(events / duration_s, 1)
                         if duration_s > 0 and events else None),
        "cache_hits": count("cache.hit"),
        "cache_misses": count("cache.miss"),
    }


def _execute_cell(config: Dict[str, Any],
                  span_ctx: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one cell to completion and return its record payload."""
    from ..harness.experiments import run_experiment
    from ..harness.runner import run_value_prediction
    from ..trace.cache import cached_trace

    registry = MetricsRegistry()
    if span_ctx is not None:
        registry.enable_spans(context=span_ctx)
    kind = config["kind"]
    params = dict(config["params"])
    manifest = RunManifest("campaign-cell", config)
    started = time.perf_counter()
    cpu_started = time.process_time()
    with registry.timer("cell"):
        if kind == "experiment":
            name = params.pop("experiment")
            result = run_experiment(name, registry=registry, **params)
            payload: Dict[str, Any] = {"experiment": result.as_dict()}
        else:
            trace = cached_trace(params["bench"],
                                 params.get("length", 100_000),
                                 seed=params.get("seed"),
                                 code_copies=params.get("code_copies", 1),
                                 metrics=registry)
            predictor = _make_predictor(params)
            # No metrics/events are threaded into the harness here: a
            # registry would force the per-pair object path, and campaign
            # predict cells must stay on the fused kernels (PR 3).  The
            # phase's item count carries the throughput denominator.
            with registry.timer("predict") as span:
                stats = run_value_prediction(
                    trace, {params["predictor"]: predictor},
                    gated=bool(params.get("gated", False)))
                span.items = len(trace)
            payload = {"stats": {name: s.as_dict()
                                 for name, s in stats.items()}}
    duration = time.perf_counter() - started
    manifest.finish()
    return {
        "payload": payload,
        "metrics": registry.as_dict(),
        "duration_s": duration,
        "telemetry": _cell_telemetry(
            registry, duration, time.process_time() - cpu_started),
        "manifest": manifest.as_dict(),
    }


def _cell_worker(config: Dict[str, Any],
                 span_ctx: Optional[Dict[str, Any]] = None) -> Tuple[str, Any]:
    """Pool entry point: soft failures come back as data, never as an
    exception that would poison the pool."""
    try:
        return ("done", _execute_cell(config, span_ctx))
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}",
                traceback.format_exc())


def _crashing_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Fault injection: every cell hard-kills its worker (and pool)."""
    os._exit(13)


def _crash_marked_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Fault injection: cells with ``length == 4242`` die hard;
    everything else runs normally."""
    if config["params"].get("length") == 4242:
        os._exit(13)
    return _cell_worker(config, span_ctx)


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------
class CampaignScheduler:
    """Drive a campaign's pending cells through the worker pool.

    Args:
        spec: the campaign (its grid defines the cells).
        store: where results land; must already be created/opened.
        max_workers: pool size (``None`` = all cores, ``1`` = in-process).
        retry: retry/backoff policy for failed and crashed cells.
        registry: optional driver-side metrics registry; receives the
            ``campaign.*`` counters plus every successful worker's merged
            snapshot.
        on_progress: ``(cells_accounted, total)`` callback — counts
            skipped, completed, and quarantined cells.
        stop_after: execute at most this many new cells, then stop
            cleanly (used by the interrupt/resume tests and CI).
        warm: pre-populate the trace cache before the pool starts.
        cell_worker: the pool entry point (overridable for fault
            injection; the default runs the real cell body).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        on_progress: Optional[Callable[[int, int], None]] = None,
        stop_after: Optional[int] = None,
        warm: bool = True,
        cell_worker: Callable[[Dict[str, Any]], Tuple[str, Any]] = _cell_worker,
    ):
        self.spec = spec
        self.store = store
        self.max_workers = (default_workers() if max_workers is None
                            else max_workers)
        self.retry = retry or RetryPolicy()
        self.registry = registry
        self.on_progress = on_progress
        self.stop_after = stop_after
        self.warm = warm
        self.cell_worker = cell_worker

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(f"campaign.{name}").inc(amount)

    # -- cache warm-up ----------------------------------------------------
    def warm_plan(self, cells: List[Cell]) -> Set[Tuple[str, int, Optional[int], int]]:
        """Unique ``(bench, length, seed, code_copies)`` tuples the grid
        will pull through the trace cache."""
        from ..trace.workloads import BENCHMARKS

        plan: Set[Tuple[str, int, Optional[int], int]] = set()
        for cell in cells:
            params = cell.params
            if cell.kind == "predict":
                plan.add((params["bench"], params.get("length", 100_000),
                          params.get("seed"),
                          params.get("code_copies", 1)))
                continue
            name = params["experiment"]
            hint = _EXPERIMENT_TRACE_HINTS.get(name)
            if hint is None:
                continue
            default_length, copies, fixed_bench = hint
            length = params.get("length", default_length)
            copies = params.get("code_copies", copies)
            if fixed_bench is not None:
                benches = [params.get("bench", fixed_bench)]
            else:
                benches = params.get("benchmarks", BENCHMARKS)
            for bench in benches:
                plan.add((bench, length, None, copies))
        return plan

    def warm_cache(self, cells: List[Cell]) -> int:
        """Generate-or-load every trace the grid needs, once, up front.

        Warmed traces are also published to shared memory (when enabled):
        pool workers attach the driver's segments zero-copy instead of
        each re-inflating the disk cache, and the publications stay alive
        across scheduler rounds for the life of the driver.
        """
        if not cache_enabled():
            return 0
        from ..trace.workloads import get as _workload

        plan = sorted(self.warm_plan(cells),
                      key=lambda t: (t[0], t[1], t[3]))
        cache = default_cache(metrics=self.registry)
        timer = (self.registry.timer("campaign/warm")
                 if self.registry is not None else None)
        span = timer.__enter__() if timer is not None else None
        warmed = 0
        try:
            for bench, length, seed, copies in plan:
                # Best effort: a bad cell config (e.g. negative length) must
                # surface as a quarantined cell, not abort the whole run here.
                try:
                    trace = cache.load_or_generate(bench, length, seed=seed,
                                                   code_copies=copies)
                    warmed += 1
                except Exception as exc:
                    log.warning("cache warm failed for %s length=%s: %s",
                                bench, length, exc)
                    continue
                if shm.shm_enabled() and isinstance(trace, PackedTrace):
                    # Publish under the *effective* seed and *effective*
                    # length so worker-side ``cached_trace`` lookups
                    # (which resolve a None seed to the workload default
                    # and clamp finite imported workloads) find the
                    # segment.
                    spec = _workload(bench)
                    eff = spec.seed if seed is None else seed
                    eff_len = effective_length(spec, length)
                    shm.publish(trace, (bench, eff_len, eff, copies),
                                metrics=self.registry)
        finally:
            if timer is not None:
                span.items = warmed
                timer.__exit__(None, None, None)
        log.info("warmed %d trace cache entries", warmed)
        return warmed

    # -- the main loop ----------------------------------------------------
    def run(self) -> CampaignRunSummary:
        cells = self.spec.cells()
        summary = CampaignRunSummary(total=len(cells))
        if self.registry is not None:
            self.registry.gauge("campaign.cells.total").set(len(cells))

        pending = [c for c in cells if not self.store.is_done(c.cell_id)]
        summary.skipped = len(cells) - len(pending)
        self._count("cells.skipped", summary.skipped)
        if self.on_progress is not None:
            self.on_progress(summary.skipped, len(cells))
        if not pending:
            return summary

        if self.warm:
            self.warm_cache(pending)

        # Workers record spans under the driver's current span when the
        # driver is tracing (``--trace-out``); the context is baked into
        # a partial so ``run_tasks`` stays agnostic of span plumbing.
        span_ctx = (self.registry.span_tracker.context()
                    if self.registry is not None
                    and self.registry.span_tracker is not None else None)
        worker = (self.cell_worker if span_ctx is None else
                  functools.partial(self.cell_worker, span_ctx=span_ctx))

        attempts: Dict[str, int] = {}
        round_no = 0
        isolate = False
        while pending:
            budget = len(pending)
            if self.stop_after is not None:
                budget = self.stop_after - summary.completed
                if budget <= 0:
                    summary.stopped_early = True
                    break
            batch, rest = pending[:budget], pending[budget:]
            delay = self.retry.delay(round_no)
            if delay:
                log.info("retry round %d: backing off %.2fs for %d "
                         "cell(s)", round_no, delay, len(batch))
                time.sleep(delay)
            try:
                requeue, any_failures, isolate = self._run_round(
                    worker, batch, isolate, attempts, summary)
            finally:
                self.store.write_index()
            pending = requeue + rest
            round_no = round_no + 1 if any_failures else round_no
        return summary

    def _run_round(self, worker: Callable, batch: List[Cell], isolate: bool,
                   attempts: Dict[str, int], summary: CampaignRunSummary
                   ) -> Tuple[List[Cell], bool, bool]:
        """Run one round, recording each cell as its outcome arrives.

        Returns the cells to retry, in batch order, and whether any cell
        failed and whether any crashed its worker.  A record that cannot
        be written (e.g. a full disk) is raised once the round's
        in-flight cells have drained: raising inside ``run_tasks``'
        callback would look like a broken pool and re-run the round.
        """
        retry: List[int] = []
        crashed = failed = False
        handled: Set[int] = set()
        errors: List[Exception] = []

        def record(i: int, outcome: Tuple[str, Any]) -> None:
            nonlocal crashed, failed
            # A pool that fails mid-round makes ``run_tasks`` re-run the
            # whole round in-process; the first outcome of a cell wins.
            if i in handled or errors:
                return
            handled.add(i)
            cell = batch[i]
            status, value = outcome
            attempt = attempts.get(cell.cell_id, 0) + 1
            attempts[cell.cell_id] = attempt
            try:
                if status == TASK_OK and value[0] == "done":
                    self._record_done(cell, value[1], attempt)
                    summary.completed += 1
                elif status == TASK_OK:  # soft failure inside the worker
                    failed = True
                    _kind, error, tb = value
                    if attempt >= self.retry.max_attempts:
                        self._record_quarantine(cell, error, tb, attempt,
                                                summary)
                    else:
                        self._count("cells.retried")
                        summary.retried += 1
                        log.warning("cell %s failed (%s); attempt %d/%d",
                                    cell.label, error, attempt,
                                    self.retry.max_attempts)
                        retry.append(i)
                else:  # the worker (or its pool) crashed
                    failed = crashed = True
                    summary.crashes += 1
                    self._count("pool.crash")
                    if attempt >= self.retry.max_attempts:
                        self._record_quarantine(
                            cell, f"worker crashed: {value}", "", attempt,
                            summary)
                    else:
                        self._count("cells.retried")
                        summary.retried += 1
                        log.warning("cell %s crashed its worker (%s); "
                                    "attempt %d/%d", cell.label, value,
                                    attempt, self.retry.max_attempts)
                        retry.append(i)
                if self.on_progress is not None:
                    self.on_progress(summary.skipped + summary.completed
                                     + summary.quarantined, summary.total)
            except Exception as exc:
                errors.append(exc)

        if isolate and self.max_workers > 1:
            # The previous round lost its pool to a crashing worker,
            # which also breaks innocent siblings' futures.  Re-try each
            # casualty in a pool of its own so the poisoned cell can only
            # take itself down.
            for i, cell in enumerate(batch):
                outcomes = run_tasks(
                    worker, [cell.config()], max_workers=self.max_workers,
                    registry=self.registry,
                    on_result=lambda _tid, outcome, i=i: record(i, outcome))
                record(i, outcomes[0])
                if errors:
                    break
        else:
            outcomes = run_tasks(
                worker, [c.config() for c in batch],
                max_workers=self.max_workers, registry=self.registry,
                on_result=record)
            # ``run_tasks`` returns without a callback the cells it never
            # completed ("task never completed").
            for i, outcome in enumerate(outcomes):
                record(i, outcome)
        if errors:
            raise errors[0]
        return [batch[i] for i in sorted(retry)], failed, crashed

    def _record_done(self, cell: Cell, outcome: Dict[str, Any],
                     attempt: int) -> None:
        self.store.write_result(
            cell,
            outcome["payload"],
            metrics=outcome.get("metrics"),
            attempts=attempt,
            duration_s=outcome.get("duration_s"),
            manifest=outcome.get("manifest"),
            telemetry=outcome.get("telemetry"),
        )
        self._count("cells.completed")
        if self.registry is not None:
            metrics = outcome.get("metrics")
            if metrics:
                self.registry.merge_dict(metrics)
            duration = outcome.get("duration_s")
            if duration is not None:
                self.registry.series_of("campaign.cell_wall_s").append(
                    round(duration, 6))
                self.registry.histogram(
                    "campaign.cell_seconds", bucket_width=0.5).observe(
                        round(duration, 6))
        log.info("cell %s done in %.2fs (attempt %d)", cell.label,
                 outcome.get("duration_s") or 0.0, attempt)

    def _record_quarantine(self, cell: Cell, error: str, tb: str,
                           attempt: int,
                           summary: CampaignRunSummary) -> None:
        self.store.write_quarantine(cell, error, tb, attempts=attempt)
        self._count("cells.quarantined")
        summary.quarantined += 1
        summary.quarantined_labels.append(cell.label)
        log.error("cell %s quarantined after %d attempt(s): %s",
                  cell.label, attempt, error)
