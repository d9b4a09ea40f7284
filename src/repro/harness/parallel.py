"""Parallel experiment execution: fan the registry out across cores.

The figure suite is embarrassingly parallel — every experiment (and every
per-workload body inside one) is an independent pure function of its
arguments — so the driver here fans work across processes, ships each
worker's :class:`~repro.telemetry.MetricsRegistry` snapshot back as a
plain dict, and merges the snapshots into the caller's registry for one
consolidated manifest.

There is one worker plane: a module-singleton :class:`WorkerPool` of
long-lived forked workers, and one way onto it, :func:`run_tasks`
(:func:`run_experiments` is a thin adapter over it; the serve plane pins
shard workers of the same pool).  Warm per-worker state — the in-process
:class:`PackedTrace` memo and the pipeline timing memos — survives
between calls, so a campaign pays interpreter spawn and trace
materialisation once per worker, not once per round.  A worker holds one
batch of tasks at a time and replies task by task, so a worker that dies
takes down only the task it was running: its unstarted batch-mates go
back to the queue, and the dead worker is replaced without restarting
the pool.

Determinism is a hard requirement: a worker computes *exactly* what the
serial path computes (same experiment function, same arguments, fresh
predictor state), so parallel runs reproduce the serial tables bit for bit
(asserted by ``tests/test_parallel.py``).  Degradation is graceful: one
worker or one experiment task runs in-process, a task whose worker
crashed re-runs in-process, and a pool that cannot run at all (a sandbox
that forbids subprocesses, an unpicklable callable) runs everything
in-process, with the same results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..telemetry import MetricsRegistry, get_logger
from .experiments import EXPERIMENT_INPUTS, EXPERIMENTS, run_experiment
from .report import ExperimentResult

log = get_logger("repro.harness.parallel")

#: Exceptions that mean "the pool is unusable", not "the experiment is
#: broken" — these trigger the serial fallback instead of propagating.
#: AttributeError/TypeError are what pickle raises for local or otherwise
#: unpicklable callables; a genuine experiment bug of the same type still
#: surfaces, because the fallback re-runs the real body in-process.
POOL_FAILURES = (BrokenProcessPool, OSError, PermissionError,
                 pickle.PicklingError, AttributeError, TypeError)

#: Environment keys with this prefix are mirrored into persistent workers
#: before every dispatch: a forked worker outlives the environment it was
#: born under (tests monkeypatch ``REPRO_CACHE_DIR``), so each call
#: re-synchronises.
_ENV_PREFIX = "REPRO_"


def _count(registry: Optional[MetricsRegistry], name: str,
           amount: int = 1) -> None:
    if registry is not None and amount:
        registry.counter(name).inc(amount)


def _record_fallback(registry: Optional[MetricsRegistry],
                     exc: BaseException) -> None:
    """Count a pool failure so degraded runs are visible in manifests.

    ``parallel.fallback`` counts dispatch calls that ran some or all of
    their work in-process; ``parallel.fallback.<ExceptionType>`` records
    why, so a campaign manifest can distinguish a sandbox that forbids
    subprocesses from a worker that segfaulted.
    """
    if registry is not None:
        registry.counter("parallel.fallback").inc()
        registry.counter(f"parallel.fallback.{type(exc).__name__}").inc()


def default_workers() -> int:
    """Worker count: every core the scheduler lets this process use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_one(name: str, kwargs: Dict,
             span_ctx: Optional[Dict] = None) -> Tuple[ExperimentResult, Dict]:
    """Worker body: one experiment, one fresh registry, shipped as dicts.

    *span_ctx* is the driver's :meth:`SpanTracker.context`; when given,
    the worker records spans (under its own pid) parented to the
    driver-side span that submitted it, and they ride home inside the
    registry snapshot.
    """
    registry = MetricsRegistry()
    if span_ctx is not None:
        registry.enable_spans(context=span_ctx)
    result = run_experiment(name, registry=registry, **kwargs)
    return result, registry.as_dict()


def _run_task(task: Tuple[Callable, List[Tuple[str, Dict]], Optional[Dict]]
              ) -> List[Tuple[ExperimentResult, Dict]]:
    """Body of one :func:`dispatch_plan` task: ``(worker, [(name, kwargs),
    ...], span_ctx)``, each member through *worker* in order, in this
    process, so later members replay what earlier ones left in its memos.
    """
    worker, members, span_ctx = task
    return [worker(name, kwargs, span_ctx) for name, kwargs in members]


def span_context(registry: Optional[MetricsRegistry]) -> Optional[Dict]:
    """The picklable span context workers should record under, or None
    when the driver is not tracing."""
    if registry is None or registry.span_tracker is None:
        return None
    return registry.span_tracker.context()


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------
def _sync_environ(env: Dict[str, str]) -> None:
    """Make the worker's ``REPRO_*`` environment match the driver's."""
    for key in [k for k in os.environ if k.startswith(_ENV_PREFIX)]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


def _pool_worker_main(conn) -> None:  # pragma: no cover - subprocess body
    """Persistent worker loop: apply setup envelopes, run task batches.

    Everything module-level survives between batches — that is the point:
    the trace memo and the pipeline timing memos stay warm for the
    worker's whole life.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "setup":
            _sync_environ(msg[1])
            continue
        _kind, fn, tagged = msg  # ("batch", fn, [(tid, item), ...])
        for tid, item in tagged:
            try:
                result = fn(item)
            except BaseException as exc:
                try:
                    conn.send(("raise", tid, exc))
                except Exception:
                    conn.send(("raise", tid, RuntimeError(
                        f"{type(exc).__name__}: {exc}")))
            else:
                try:
                    conn.send(("ok", tid, result))
                except Exception as exc:
                    conn.send(("raise", tid, RuntimeError(
                        f"task {tid} result failed to pickle: {exc}")))
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """One persistent worker process plus its driver-side pipe end."""

    __slots__ = ("proc", "conn", "inflight", "pinned", "setup_env")

    def __init__(self, ctx) -> None:
        driver_end, worker_end = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_pool_worker_main, args=(worker_end,),
                                daemon=True, name="repro-pool-worker")
        self.proc.start()
        worker_end.close()  # the child holds it now; keep EOF detectable
        self.conn = driver_end
        self.inflight: List[int] = []
        #: Pinned workers host shard-affine state (the serve plane):
        #: shard *i* always dispatches to worker *i*.
        self.pinned = False
        #: The env of the last ("setup", env) envelope shipped, so the
        #: sharded dispatch path can skip redundant env re-syncs.
        self.setup_env: Optional[Dict[str, str]] = None


class WorkerPool:
    """Long-lived worker processes reused across dispatch calls.

    Crash semantics: a worker holds one batch at a time and replies once
    per task, so a worker dying mid-batch resolves only the task it was
    running (the first without a reply) as a crash.  Its unstarted
    batch-mates return to the queue uncharged, siblings keep running,
    and the dead worker is replaced (while work remains) without
    restarting the pool.
    """

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = max(1, size or default_workers())
        self._ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._closed = False
        # Guards worker-list mutation against concurrent shutdown_pool
        # callers (atexit + signal handler).
        self._lock = threading.RLock()

    # -- lifecycle --------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[int]:
        return [w.proc.pid for w in self._workers]

    def _spawn(self, registry: Optional[MetricsRegistry]) -> _Worker:
        worker = _Worker(self._ctx)
        self._workers.append(worker)
        _count(registry, "pool.spawn")
        return worker

    @staticmethod
    def _setup(worker: _Worker, env: Dict[str, str]) -> None:
        """Ship the dispatch envelope: the driver's ``REPRO_*`` env."""
        worker.conn.send(("setup", env))
        worker.setup_env = env

    @staticmethod
    def _stop_worker(worker: _Worker) -> None:
        """Stop one worker (graceful, then terminate a straggler)."""
        try:
            worker.conn.send(("stop",))
        except Exception:
            pass
        worker.proc.join(timeout=2)
        if worker.proc.is_alive():  # pragma: no cover - stuck worker
            worker.proc.terminate()
            worker.proc.join(timeout=2)
        try:
            worker.conn.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop every worker; safe to call repeatedly or concurrently."""
        with self._lock:
            if self._closed and not self._workers:
                return
            self._closed = True
            workers, self._workers = list(self._workers), []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in workers:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=2)
            try:
                worker.conn.close()
            except Exception:
                pass

    # -- dispatch ---------------------------------------------------------
    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Sequence,
        workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        on_outcome: Optional[Callable[[int, Tuple[str, Any]], None]] = None,
        batches: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[Tuple[str, Any]]:
        """Run ``fn`` over *items* on persistent workers, one batch per
        worker at a time.

        *batches* partitions the item indices; each batch goes to one
        idle worker as one message and runs there in order.  Without it
        every item is a batch of one.

        Returns ``[(status, value)]`` aligned with *items*: ``("ok",
        result)``, ``("raise", exception)`` for an exception *fn* raised in
        a worker, or ``("crash", reason)`` for the task a worker was
        running when it died.  *on_outcome(index, outcome)* runs as each
        task's outcome arrives.  A driver-side dispatch failure
        (unpicklable *fn* or item) raises after every in-flight task has
        drained, so a retry or fallback never races stale replies.  Any
        other exception (one *on_outcome* raises, an interrupt) first
        stops the workers still running a task of this call, so no later
        call reads their replies.
        """
        if self._closed:
            raise BrokenProcessPool("worker pool is shut down")
        items = list(items)
        if not items:
            return []
        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(items)
        # Next batch last: ``pop`` takes it, ``append`` puts one back first.
        pending: List[List[int]] = (
            [[tid] for tid in range(len(items) - 1, -1, -1)]
            if batches is None else [list(b) for b in reversed(batches)])
        # An explicit worker request wins over the core-count default.
        want = max(1, min(len(pending), workers if workers else self.size))
        send_error: Optional[BaseException] = None

        _count(registry, "pool.reuse", min(len(self._workers), want))
        while len(self._workers) < want:
            self._spawn(registry)
        active = list(self._workers[:want])
        env = {k: v for k, v in os.environ.items()
               if k.startswith(_ENV_PREFIX)}

        def resolve(tid: int, outcome: Tuple[str, Any]) -> None:
            outcomes[tid] = outcome
            if on_outcome is not None:
                on_outcome(tid, outcome)

        def handle(worker: _Worker, msg: Tuple) -> None:
            kind, tid, payload = msg
            worker.inflight.remove(tid)
            resolve(tid, ("ok" if kind == "ok" else "raise", payload))

        def reap(worker: _Worker) -> None:
            """A worker died: drain what it sent, crash the task it was
            running, requeue the rest of its batch, replace it."""
            nonlocal send_error
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    break
                handle(worker, msg)
            worker.proc.join(timeout=5)
            reason = (f"BrokenProcessPool: worker pid {worker.proc.pid} "
                      f"died (exit {worker.proc.exitcode})")
            log.warning("%s with %d task(s) in flight",
                        reason, len(worker.inflight))
            if worker.inflight:
                running, *unstarted = worker.inflight
                worker.inflight.clear()
                if unstarted:
                    pending.append(unstarted)
                resolve(running, ("crash", reason))
            try:
                worker.conn.close()
            except Exception:
                pass
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in active:
                active.remove(worker)
            if pending and send_error is None:
                try:
                    replacement = self._spawn(registry)
                    self._setup(replacement, env)
                except OSError as exc:  # pragma: no cover - fork refused
                    send_error = exc
                else:
                    active.append(replacement)
                    _count(registry, "pool.replace")

        def give(worker: _Worker) -> None:
            """Hand the next pending batch to an idle worker."""
            nonlocal send_error
            batch = pending.pop()
            try:
                worker.conn.send(
                    ("batch", fn, [(tid, items[tid]) for tid in batch]))
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                pending.append(batch)
                send_error = exc
            except OSError:
                pending.append(batch)
                reap(worker)
            else:
                worker.inflight.extend(batch)
                _count(registry, "pool.batches")
                _count(registry, "pool.tasks", len(batch))

        try:
            for worker in active:
                self._setup(worker, env)
        except OSError as exc:
            # A fresh worker refusing its envelope means the pool cannot
            # run here at all (e.g. a sandbox killed the fork) — surface
            # as a pool failure so callers fall back serially.
            raise BrokenProcessPool(
                f"worker setup failed: {exc}") from exc

        try:
            while True:
                if send_error is None and pending:
                    for worker in list(active):
                        if not pending:
                            break
                        if not worker.inflight:
                            give(worker)
                busy = [w for w in active if w.inflight]
                if not busy:
                    break
                conn_of = {w.conn: w for w in busy}
                sentinel_of = {w.proc.sentinel: w for w in busy}
                ready = _connection_wait(list(conn_of) + list(sentinel_of))
                reaped: set = set()
                for obj in ready:
                    worker = conn_of.get(obj)
                    if worker is not None:
                        if id(worker) in reaped:
                            continue
                        try:
                            msg = worker.conn.recv()
                        except (EOFError, OSError):
                            reaped.add(id(worker))
                            reap(worker)
                        else:
                            handle(worker, msg)
                        continue
                    worker = sentinel_of[obj]
                    if id(worker) in reaped or not worker.inflight:
                        continue
                    reaped.add(id(worker))
                    reap(worker)
        except BaseException:
            # Drop every worker still running a task of this call: its
            # reply must not reach the next call.
            for worker in [w for w in active if w.inflight]:
                worker.inflight.clear()
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.proc.terminate()
                self._stop_worker(worker)
            raise

        if registry is not None:
            registry.gauge("pool.workers").set(len(self._workers))
        if send_error is not None:
            raise send_error
        return [outcome or ("crash", "task never completed")
                for outcome in outcomes]

    # -- sharded dispatch (the serve plane) -------------------------------
    def shard_workers(self, count: int,
                      registry: Optional[MetricsRegistry] = None) -> int:
        """Ensure *count* workers exist and pin the first *count*.

        Pinned workers host shard-affine stream state for
        :mod:`repro.serve`: shard *i* always dispatches to worker *i*, so
        their list positions must not shift underneath the shard map.
        Returns *count*.
        """
        with self._lock:
            if self._closed:
                raise BrokenProcessPool("worker pool is shut down")
            while len(self._workers) < count:
                self._spawn(registry)
            for worker in self._workers[:count]:
                worker.pinned = True
        return count

    def shard_unpin(self) -> None:
        """Release every pin (a serve engine shutting down)."""
        with self._lock:
            for worker in self._workers:
                worker.pinned = False

    def _shard_worker(self, index: int) -> _Worker:
        worker = self._workers[index]
        if not worker.pinned:
            raise BrokenProcessPool(
                f"shard {index} is not pinned (call shard_workers first)")
        return worker

    def shard_send(self, index: int, fn: Callable[[Any], Any],
                   tag: int, item: Any,
                   registry: Optional[MetricsRegistry] = None) -> None:
        """Send one tagged batch to the pinned worker *index*.

        Re-ships the ("setup", env) envelope only when the driver's
        ``REPRO_*`` environment changed since this worker's last
        dispatch — the steady-state serve path pays one pipe write per
        batch.  Raises ``OSError`` when the worker's pipe is gone
        (caller reaps via :meth:`shard_replace`).
        """
        worker = self._shard_worker(index)
        env = {k: v for k, v in os.environ.items()
               if k.startswith(_ENV_PREFIX)}
        if worker.setup_env != env:
            self._setup(worker, env)
        worker.conn.send(("batch", fn, [(tag, item)]))
        worker.inflight.append(tag)
        _count(registry, "pool.batches")

    def shard_recv(self, index: int) -> Tuple[str, int, Any]:
        """Receive one ``(kind, tag, payload)`` reply from worker *index*.

        Blocks until a reply is available (callers multiplex readiness
        over :meth:`shard_conn` / :meth:`shard_sentinel` first).  Raises
        ``EOFError``/``OSError`` when the worker died.
        """
        worker = self._shard_worker(index)
        kind, tag, payload = worker.conn.recv()
        if tag in worker.inflight:
            worker.inflight.remove(tag)
        return kind, tag, payload

    def shard_conn(self, index: int):
        """Driver-side pipe end for shard *index* (for selectors)."""
        return self._shard_worker(index).conn

    def shard_sentinel(self, index: int):
        """Process sentinel fd for shard *index* (readable on death)."""
        return self._shard_worker(index).proc.sentinel

    def shard_replace(self, index: int,
                      registry: Optional[MetricsRegistry] = None
                      ) -> List[int]:
        """Replace a dead shard worker in place.

        Returns the tags that were in flight on the casualty (their
        frames must be failed by the caller — the replacement worker
        starts with no stream state and restores from snapshots on
        demand).
        """
        with self._lock:
            worker = self._workers[index]
            lost = list(worker.inflight)
            worker.inflight.clear()
        self._stop_worker(worker)
        with self._lock:
            if self._closed:
                raise BrokenProcessPool("worker pool is shut down")
            replacement = _Worker(self._ctx)
            replacement.pinned = True
            self._workers[index] = replacement
        _count(registry, "pool.spawn")
        _count(registry, "pool.replace")
        return lost


_POOL: Optional[WorkerPool] = None
_POOL_PID: Optional[int] = None
_ATEXIT_REGISTERED = False
_POOL_LOCK = threading.Lock()


def get_pool(registry: Optional[MetricsRegistry] = None) -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    ``pool.created`` counts constructions: a whole campaign — every round,
    every retry, a stop/resume pair in one process — should see exactly
    one.  Forked children never inherit a usable pool (pid guard).
    """
    global _POOL, _POOL_PID, _ATEXIT_REGISTERED
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed or _POOL_PID != os.getpid():
            _POOL = WorkerPool()
            _POOL_PID = os.getpid()
            _count(registry, "pool.created")
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pool)
                _ATEXIT_REGISTERED = True
        return _POOL


def shutdown_pool() -> None:
    """Stop the persistent pool's workers (driver exit / test teardown).

    Idempotent and safe under concurrent callers: atexit, a signal
    handler, and test teardown can all race it — exactly one caller wins
    the pool and closes it (``WorkerPool.close`` is itself re-entrant),
    the rest are no-ops.
    """
    global _POOL
    with _POOL_LOCK:
        pool, pid = _POOL, _POOL_PID
        _POOL = None
    if pool is not None and pid == os.getpid():
        pool.close()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
#: Outcome statuses yielded by :func:`run_tasks`.
TASK_OK = "ok"
TASK_CRASH = "crash"


def run_tasks(
    fn: Callable[[Any], Any],
    items: Sequence,
    max_workers: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
    on_result: Optional[Callable[[int, Tuple[str, Any]], None]] = None,
    batches: Optional[Sequence[Sequence[int]]] = None,
) -> List[Tuple[str, Any]]:
    """Run *fn* over *items* on the worker pool, reporting per-item
    outcomes instead of failing the whole call.

    Returns ``[(status, value)]`` aligned with *items*, where status is
    :data:`TASK_OK` (value = ``fn(item)``) or :data:`TASK_CRASH` (value =
    a short reason string: the worker died before replying, *fn* raised
    one of :data:`POOL_FAILURES` there, or the item never ran).  One
    poisoned task does not discard its siblings' completed work, which is
    what a resumable scheduler needs.  *on_result(index, outcome)* runs
    as each outcome arrives.

    *batches*, a partition of the item indices, says which items go to
    one worker together, in order, as one message (items that read the
    same data, say); a worker still replies item by item, and one that
    dies charges only the item it was running.  Without it every item is
    a batch of one.

    *fn* is expected to catch its own application-level exceptions and
    encode them in its return value; any other exception escaping *fn*
    in a worker is re-raised here once every in-flight task has drained.
    Even a single item goes through the pool: a retried task that kills
    its worker must not take the driver down with it.  Only
    ``max_workers=1`` — or a pool that cannot run at all (counted via
    ``parallel.fallback``) — runs items in-process, in order, whatever
    the batches, where an escaping exception propagates at once.
    """
    items = list(items)
    if max_workers is None:
        max_workers = default_workers()
    if max_workers > 1 and items:
        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(items)
        raised: List[BaseException] = []

        def on_outcome(tid: int, outcome: Tuple[str, Any]) -> None:
            status, value = outcome
            if status == "ok":
                mapped = (TASK_OK, value)
            elif status == "crash":
                mapped = (TASK_CRASH, value)
            elif isinstance(value, POOL_FAILURES):
                mapped = (TASK_CRASH, f"{type(value).__name__}: {value}")
                log.warning("task %d crashed its worker (%s)", tid, mapped[1])
            else:
                raised.append(value)
                return
            outcomes[tid] = mapped
            if on_result is not None:
                on_result(tid, mapped)

        try:
            get_pool(registry).map_outcomes(
                fn, items, workers=max_workers, registry=registry,
                on_outcome=on_outcome, batches=batches)
        except POOL_FAILURES as exc:
            log.warning("task pool could not run (%s: %s); "
                        "running tasks in-process",
                        type(exc).__name__, exc)
            _record_fallback(registry, exc)
        else:
            if raised:
                raise raised[0]
            return [outcome or (TASK_CRASH, "task never completed")
                    for outcome in outcomes]
    results = []
    for i, item in enumerate(items):
        results.append((TASK_OK, fn(item)))
        if on_result is not None:
            on_result(i, results[i])
    return results


def dispatch_plan(names: Sequence[str]) -> List[List[str]]:
    """The tasks :func:`run_experiments` runs *names* as, in dispatch order.

    Experiments that simulate the same machine
    (:data:`~repro.harness.experiments.EXPERIMENT_INPUTS`) form one task,
    members in registry order: the pipeline kernel replays a passive
    timing solution only in the process that solved it, so one worker
    per machine solves each timing once, whichever worker is free.
    Machine tasks come first, because they carry the out-of-order core
    work and are the longest tasks; every other experiment follows as a
    task of its own, in registry order.  Each name appears once; a name
    outside the registry comes last (running it raises ``KeyError``).
    """
    rank = {name: i for i, name in enumerate(EXPERIMENTS)}
    machines: Dict[str, List[str]] = {}
    others: List[List[str]] = []
    for name in sorted(dict.fromkeys(names),
                       key=lambda n: rank.get(n, len(rank))):
        inputs = EXPERIMENT_INPUTS.get(name)
        if inputs is None or inputs.machine is None:
            others.append([name])
        else:
            machines.setdefault(inputs.machine, []).append(name)
    return list(machines.values()) + others


def run_experiments(
    names: Sequence[str],
    max_workers: Optional[int] = None,
    *,
    kwargs_for: Optional[Dict[str, Dict]] = None,
    common_kwargs: Optional[Dict] = None,
    registry: Optional[MetricsRegistry] = None,
    on_progress: Optional[Callable[[int, Optional[int]], None]] = None,
    pool_worker: Callable[..., Tuple[ExperimentResult, Dict]] = _run_one,
) -> Dict[str, ExperimentResult]:
    """Run experiments from the registry, fanned out across processes.

    The experiments run as the tasks of :func:`dispatch_plan`, through
    :func:`run_tasks`.  Every task that finished in a worker is kept; a
    task whose worker crashed re-runs in-process, and a call that re-ran
    any counts one ``parallel.fallback``.

    Args:
        names: experiment ids, in the order results should be returned.
        max_workers: pool size; ``None`` uses every available core, ``1``
            (or a plan of one task) runs serially in-process.
        kwargs_for: per-experiment keyword overrides ``{name: {...}}``.
        common_kwargs: keywords passed to every experiment (e.g.
            ``{"length": 20000}``).
        registry: optional driver-side registry; each experiment's metrics
            snapshot is merged into it in *names* order (only after the
            whole run commits, so a re-run never double-counts).
        on_progress: ``(completed, total)`` callback, advanced by a
            task's member count as each task finishes.
        pool_worker: the per-experiment function ``run_tasks`` executes
            (overridable for fault-injection tests); a task re-run after
            a crash always runs the real experiment body.

    Returns:
        ``{name: ExperimentResult}`` in *names* order.
    """
    names = list(names)
    kwargs_for = kwargs_for or {}
    common = common_kwargs or {}
    plan = [[(name, {**common, **kwargs_for.get(name, {})}) for name in task]
            for task in dispatch_plan(names)]
    if max_workers is None:
        max_workers = default_workers()
    total = sum(map(len, plan))
    span_ctx = span_context(registry)
    outputs: List[Optional[List]] = [None] * len(plan)
    done = 0

    def keep(i: int, output: List[Tuple[ExperimentResult, Dict]]) -> None:
        nonlocal done
        outputs[i] = output
        done += len(plan[i])
        if on_progress is not None:
            on_progress(done, total)

    if max_workers > 1 and len(plan) > 1:
        def on_result(i: int, outcome: Tuple[str, Any]) -> None:
            # A pool that fails mid-call makes ``run_tasks`` re-run the
            # whole call in-process; the first output of a task wins.
            if outcome[0] == TASK_OK and outputs[i] is None:
                keep(i, outcome[1])

        outcomes = run_tasks(
            _run_task, [(pool_worker, task, span_ctx) for task in plan],
            max_workers=max_workers, registry=registry, on_result=on_result)
        lost = [value for status, value in outcomes if status == TASK_CRASH]
        if lost:
            log.warning("%d of %d experiment task(s) lost their worker "
                        "(%s); re-running them in-process",
                        len(lost), len(plan), lost[0])
            _record_fallback(registry, BrokenProcessPool(lost[0]))
    for i, task in enumerate(plan):
        if outputs[i] is None:
            keep(i, _run_task((_run_one, task, span_ctx)))
    ran = {name: output for task, task_outputs in zip(plan, outputs)
           for (name, _kwargs), output in zip(task, task_outputs)}
    if registry is not None:
        for name in dict.fromkeys(names):
            registry.merge_dict(ran[name][1])
    return {name: ran[name][0] for name in names}
