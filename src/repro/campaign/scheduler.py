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
  only the task it was running down: the persistent pool replaces the
  dead worker in place, requeues the rest of its batch, and the
  scheduler re-tries only the casualties, so a poisoned cell eventually
  lands in quarantine while its siblings complete.
* **Determinism**: a worker computes exactly what a direct
  :func:`~repro.harness.experiments.run_experiment` /
  :func:`~repro.harness.runner.run_value_prediction` call computes — same
  functions, fresh state — so campaign records equal direct harness
  results (asserted by ``tests/test_campaign.py``).

Cells share work without sharing results.  Predict cells whose predictor
runs make the same predictions (*siblings*: cells that differ only in
``gated``, and an ``hgvq`` cell with the ``gdiff`` cell of its order and
entries at delay 0) form one task whose predictor runs once, gated: the
confidence gate never trains the predictor, so that run's raw counters
are exactly the ungated cell's stats.  The tasks whose cells
read one trace go to one worker as one pool batch, so each trace is
loaded and grouped once per round; the worker still replies task by
task, and every cell keeps its own record.

The trace cache is warmed once up front (unique ``(bench, length, seed,
code_copies)`` tuples across the whole grid) so workers start from warm
loads instead of racing to generate; combined with the cache's per-key
generation lock, each distinct trace is generated at most once per
machine, ever.  The warm-up only checks each entry on disk (or fills it);
the driver loads no trace, and each worker loads what its batch reads.
"""

from __future__ import annotations

import functools
import time
import traceback
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..harness.experiments import EXPERIMENT_INPUTS
from ..harness.parallel import TASK_OK, default_workers, run_tasks
from ..telemetry import MetricsRegistry, RunManifest, get_logger
from ..trace.cache import cache_enabled, default_cache
from .spec import Cell, CampaignSpec, canonical_json
from .store import CampaignStore

log = get_logger("repro.campaign.scheduler")

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


def _trace_key(params: Dict[str, Any]) -> Tuple[str, int, Optional[int], int]:
    """The ``(bench, length, seed, code_copies)`` trace a predict cell
    reads."""
    return (params["bench"], params.get("length", 100_000),
            params.get("seed"), params.get("code_copies", 1))


def _run_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """The predictor run a predict cell reads, alone or in a sibling
    task: its parameters but ``gated``, with gDiff's defaults written out.
    An ``hgvq`` cell's run is gDiff's at delay 0: over a trace the hybrid
    queue holds every value before a younger pair reads it, and its
    filler's predictions are never scored."""
    run = {k: v for k, v in params.items() if k != "gated"}
    name = params["predictor"]
    if name == "hgvq":
        run.update(predictor="gdiff", order=params.get("order", 32),
                   entries=params.get("entries"), delay=0)
    elif name == "gdiff":
        run.update(order=params.get("order", 8),
                   entries=params.get("entries"),
                   delay=params.get("delay", 0))
    return run


def _sibling_key(params: Dict[str, Any]) -> str:
    """The key of a predict cell's predictor run: cells with one key are
    siblings, whose runs make the same predictions."""
    return canonical_json(_run_params(params))


# ---------------------------------------------------------------------------
# Worker side (subprocess): everything below must be picklable/importable.
# ---------------------------------------------------------------------------
#: The predictor runs the cells of the current sibling task share, by
#: sibling key; ``None`` outside such a task.
_SHARED_RUNS: ContextVar[Optional[Dict[str, Any]]] = ContextVar(
    "campaign_shared_runs", default=None)


def _make_predictor(run: Dict[str, Any]):
    """Build the predictor of a predict cell's run (:func:`_run_params`)."""
    from ..core.gdiff import GDiffPredictor
    from ..predictors.dfcm import DFCMPredictor
    from ..predictors.last_value import LastValuePredictor
    from ..predictors.stride import StridePredictor

    name = run["predictor"]
    entries = run.get("entries")
    if name == "gdiff":
        return GDiffPredictor(order=run["order"], entries=entries,
                              delay=run["delay"])
    if name == "stride":
        return StridePredictor(entries=entries)
    if name == "dfcm":
        return DFCMPredictor(order=run.get("order", 4), l1_entries=entries)
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


def _predict(trace, params: Dict[str, Any]) -> Dict[str, Any]:
    """A predict cell's ``{predictor: PredictionStats}``.

    Inside a sibling task the predictor of the siblings' run
    (:func:`_run_params`) runs once, gated, for the first sibling; the
    others reuse that run.  A gated cell takes its stats whole, an
    ungated one its raw counters, which are the ungated run's because the
    gate never trains the predictor (``tests/test_kernel_equivalence.py``
    pins that, and that HGVQ scores what gDiff scores at delay 0).
    """
    from ..harness.runner import run_value_prediction
    from ..predictors.base import PredictionStats

    name = params["predictor"]
    gated = bool(params.get("gated", False))
    run_params = _run_params(params)
    shared = _SHARED_RUNS.get()
    if shared is None:
        return run_value_prediction(
            trace, {name: _make_predictor(run_params)}, gated=gated)
    key = canonical_json(run_params)
    run = shared.get(key)
    if run is None:
        run = shared[key] = run_value_prediction(
            trace, {name: _make_predictor(run_params)}, gated=True)[name]
    if gated:
        return {name: run}
    return {name: PredictionStats(run.attempts, run.predictions,
                                  run.correct)}


def _execute_cell(config: Dict[str, Any],
                  span_ctx: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one cell to completion and return its record payload."""
    from ..harness.experiments import run_experiment
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
            # No metrics/events are threaded into the harness here: a
            # registry would force the per-pair object path, and campaign
            # predict cells must stay on the fused kernels.  The phase's
            # item count carries the throughput denominator, also for a
            # cell that reuses its sibling's run.
            with registry.timer("predict") as span:
                stats = _predict(trace, params)
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
    """One cell's body: soft failures come back as data, never as an
    exception that would poison the pool."""
    try:
        return ("done", _execute_cell(config, span_ctx))
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}",
                traceback.format_exc())


def _run_task(cell_worker: Callable, span_ctx: Optional[Dict[str, Any]],
              configs: List[Dict[str, Any]]) -> List[Tuple[str, Any]]:
    """Pool entry point of one task: each cell through *cell_worker*, in
    order, one outcome per cell.  The cells of a task of more than one
    are siblings and share one predictor run (:func:`_predict`)."""
    token = _SHARED_RUNS.set({} if len(configs) > 1 else None)
    try:
        return [cell_worker(config, span_ctx) for config in configs]
    finally:
        _SHARED_RUNS.reset(token)


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------
def _plan_round(cells: List[Cell], workers: int
                ) -> Tuple[List[List[int]], List[List[int]]]:
    """Split a round's cells into tasks, and the tasks into pool batches.

    A task is the predict cells of one sibling key, or one experiment
    cell; it sits at its first cell's place in round order.  The tasks
    whose cells read one trace are cut, in round order, into batches of
    at most ⌈tasks / *workers*⌉, so a round with fewer traces than
    workers still keeps every worker busy; an experiment cell's task is
    a batch of its own.  Returns the tasks as lists of cell indices and
    the batches as lists of task indices.
    """
    tasks: List[List[int]] = []
    by_sibling: Dict[str, List[int]] = {}
    for i, cell in enumerate(cells):
        if cell.kind != "predict":
            tasks.append([i])
            continue
        key = _sibling_key(cell.params)
        if key not in by_sibling:
            by_sibling[key] = []
            tasks.append(by_sibling[key])
        by_sibling[key].append(i)
    cap = -(-len(tasks) // max(1, workers))
    batches: List[List[int]] = []
    by_trace: Dict[Tuple, List[int]] = {}
    for t, task in enumerate(tasks):
        cell = cells[task[0]]
        if cell.kind != "predict":
            batches.append([t])
            continue
        trace = _trace_key(cell.params)
        batch = by_trace.get(trace)
        if batch is None or len(batch) == cap:
            batch = by_trace[trace] = []
            batches.append(batch)
        batch.append(t)
    return tasks, batches


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
        cell_worker: ``(config, span_ctx)`` -> outcome, the body each
            task runs per cell (overridable for fault injection; the
            default runs the real cell body).
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
        cell_worker: Callable[..., Tuple[str, Any]] = _cell_worker,
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
                plan.add(_trace_key(params))
                continue
            inputs = EXPERIMENT_INPUTS.get(params["experiment"])
            if inputs is None:
                continue
            length = params.get("length", inputs.length)
            copies = params.get("code_copies", inputs.code_copies)
            if inputs.bench is not None:
                benches = [params.get("bench", inputs.bench)]
            else:
                benches = params.get("benchmarks", BENCHMARKS)
            for bench in benches:
                plan.add((bench, length, None, copies))
        return plan

    def warm_cache(self, cells: List[Cell]) -> int:
        """Make every trace the grid needs ready on disk, once, up front.

        Each entry is only checked on disk, or generated and stored when
        it is missing; the driver keeps no trace, and each worker loads
        what its batch reads from the disk cache.  Where the cache root
        cannot be written the driver generates nothing: a trace it
        could not store would be generated again by its readers.
        """
        if not cache_enabled():
            return 0
        cache = default_cache(metrics=self.registry)
        if not cache.writable():
            log.warning("trace cache %s cannot be written: workers "
                        "generate the traces they read", cache.root)
            return 0
        plan = sorted(self.warm_plan(cells),
                      key=lambda t: (t[0], t[1], t[3]))
        timer = (self.registry.timer("campaign/warm")
                 if self.registry is not None else None)
        span = timer.__enter__() if timer is not None else None
        warmed = 0
        try:
            for bench, length, seed, copies in plan:
                # Best effort: a bad cell config (e.g. negative length) must
                # surface as a quarantined cell, not abort the whole run here.
                try:
                    cache.warm([bench], length, seed=seed, code_copies=copies)
                    warmed += 1
                except Exception as exc:
                    log.warning("cache warm failed for %s length=%s: %s",
                                bench, length, exc)
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
        run_task = functools.partial(_run_task, self.cell_worker, span_ctx)

        attempts: Dict[str, int] = {}
        round_no = 0
        while pending:
            budget = len(pending)
            if self.stop_after is not None:
                budget = self.stop_after - summary.completed
                if budget <= 0:
                    summary.stopped_early = True
                    break
            cells, rest = pending[:budget], pending[budget:]
            delay = self.retry.delay(round_no)
            if delay:
                log.info("retry round %d: backing off %.2fs for %d "
                         "cell(s)", round_no, delay, len(cells))
                time.sleep(delay)
            try:
                requeue, any_failures = self._run_round(
                    run_task, cells, attempts, summary)
            finally:
                self.store.write_index()
            pending = requeue + rest
            round_no = round_no + 1 if any_failures else round_no
        return summary

    def _run_round(self, run_task: Callable, cells: List[Cell],
                   attempts: Dict[str, int], summary: CampaignRunSummary
                   ) -> Tuple[List[Cell], bool]:
        """Run one round — one ``run_tasks`` call over the round's tasks
        and batches (:func:`_plan_round`) — recording each cell as its
        task's outcome arrives.

        Returns the cells to retry, in round order, and whether any cell
        failed.  A record that cannot be written (e.g. a full disk) is
        raised once the round's in-flight tasks have drained: raising
        inside ``run_tasks``' callback would look like a broken pool and
        re-run the round.
        """
        tasks, batches = _plan_round(cells, self.max_workers)
        retry: List[int] = []
        failed = False
        handled: Set[int] = set()
        errors: List[Exception] = []

        def record(i: int, outcome: Tuple[str, Any]) -> None:
            nonlocal failed
            # A pool that fails mid-round makes ``run_tasks`` re-run the
            # whole round in-process; the first outcome of a cell wins.
            if i in handled or errors:
                return
            handled.add(i)
            cell = cells[i]
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
                    failed = True
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

        def record_task(t: int, outcome: Tuple[str, Any]) -> None:
            # A task that ran replies one outcome per cell; one that
            # crashed charges each of its cells.
            status, value = outcome
            for k, i in enumerate(tasks[t]):
                record(i, (status, value[k]) if status == TASK_OK
                       else outcome)

        outcomes = run_tasks(
            run_task, [[cells[i].config() for i in task] for task in tasks],
            max_workers=self.max_workers, registry=self.registry,
            on_result=record_task, batches=batches)
        # ``run_tasks`` returns without a callback the tasks it never
        # completed ("task never completed").
        for t, outcome in enumerate(outcomes):
            record_task(t, outcome)
        if errors:
            raise errors[0]
        return [cells[i] for i in sorted(retry)], failed

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
