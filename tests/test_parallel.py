"""Parallel experiment runner: determinism, metrics merging, degradation.

The one property that matters: fanning the registry across processes must
change wall-clock time and *nothing else* — identical ExperimentResult
rows, identical per-experiment phase accounting, and a clean serial
fallback when the pool cannot be used.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import (
    TASK_CRASH,
    TASK_OK,
    _run_one,
    default_workers,
    dispatch_plan,
    get_pool,
    run_experiments,
    run_tasks,
    shutdown_pool,
)
from repro.telemetry import MetricsRegistry
from repro.trace import shm
from repro.trace.cache import cached_trace, memo_clear
from repro.trace.workloads import get

#: Small-but-representative slice of the registry: one profile experiment
#: and one sweep, two benchmarks, short traces.
NAMES = ["fig8", "fig10"]
COMMON = {"length": 6000, "benchmarks": ["gcc", "mcf"]}


#: Experiments of both machines, two of each; fig12 reads its own
#: ``bench``, so the benchmarks go through ``kwargs_for`` as in run-all.
MACHINE_NAMES = ["fig12", "fig13", "table2", "fig19"]
MACHINE_COMMON = {"length": 2000}
MACHINE_KWARGS = {name: {"benchmarks": ["gcc", "mcf"]}
                  for name in MACHINE_NAMES if name != "fig12"}


def _crashing_worker(name, kwargs, span_ctx=None):  # pragma: no cover - subprocess
    """Fault-injection pool worker: every experiment dies hard."""
    os._exit(13)


def _crash_on_fig10(name, kwargs, span_ctx=None):  # pragma: no cover - subprocess
    """Fault-injection pool worker: fig10 dies hard, the rest run."""
    if name == "fig10":
        os._exit(13)
    return _run_one(name, kwargs, span_ctx)


class TestDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiments(NAMES, max_workers=1, common_kwargs=COMMON)
        parallel = run_experiments(NAMES, max_workers=2, common_kwargs=COMMON)
        assert list(serial) == list(parallel) == NAMES
        for name in NAMES:
            assert serial[name].as_dict() == parallel[name].as_dict(), name

    def test_kwargs_for_overrides_common(self):
        results = run_experiments(
            ["fig8"], max_workers=1,
            common_kwargs={"length": 6000, "benchmarks": ["gcc", "mcf"]},
            kwargs_for={"fig8": {"benchmarks": ["mcf"]}},
        )
        rows = [row[0] for row in results["fig8"].rows]
        assert "gcc" not in rows and "mcf" in rows


class TestMetrics:
    def test_merged_metrics_match_serial(self):
        reg_s = MetricsRegistry()
        run_experiments(NAMES, max_workers=1, common_kwargs=COMMON,
                        registry=reg_s)
        reg_p = MetricsRegistry()
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        registry=reg_p)
        snap_s, snap_p = reg_s.as_dict(), reg_p.as_dict()
        # One timed phase per experiment, exactly once, either way.
        for name in NAMES:
            phase = f"experiment.{name}"
            assert snap_s["phases"][phase]["calls"] == 1
            assert snap_p["phases"][phase]["calls"] == 1
        # Driver-side orchestration counters (pool dispatch accounting)
        # legitimately differ; the *experiment* metrics must not.
        def experiment_counters(snap):
            return {name: value for name, value in snap["counters"].items()
                    if not name.startswith(("pool.", "shm.", "parallel."))}

        assert experiment_counters(snap_s) == experiment_counters(snap_p)

    def test_progress_callback_counts_up(self):
        seen = []
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        on_progress=lambda done, total: seen.append(
                            (done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestDegradation:
    def test_worker_crash_falls_back_to_serial(self):
        reg = MetricsRegistry()
        results = run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                                  registry=reg,
                                  pool_worker=_crashing_worker)
        expected = run_experiments(NAMES, max_workers=1, common_kwargs=COMMON)
        for name in NAMES:
            assert results[name].as_dict() == expected[name].as_dict(), name
        # The aborted parallel attempt must not leak partial metrics.
        for name in NAMES:
            assert reg.as_dict()["phases"][f"experiment.{name}"]["calls"] == 1

    def test_fallback_records_exception_type(self):
        """A silent serial degradation must be visible in the manifest:
        one total counter plus one per exception type naming the cause."""
        reg = MetricsRegistry()
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        registry=reg, pool_worker=_crashing_worker)
        counters = reg.as_dict()["counters"]
        assert counters["parallel.fallback"] == 1
        assert counters["parallel.fallback.BrokenProcessPool"] == 1

    def test_only_the_crashed_task_reruns(self):
        """A crash re-runs only its own task, in the driver; the task that
        finished in a worker is kept, not recomputed."""
        reg = MetricsRegistry()
        tracker = reg.enable_spans()
        results = run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                                  registry=reg, pool_worker=_crash_on_fig10)
        expected = run_experiments(NAMES, max_workers=1, common_kwargs=COMMON)
        for name in NAMES:
            assert results[name].as_dict() == expected[name].as_dict(), name
        snap = reg.as_dict()
        for name in NAMES:
            assert snap["phases"][f"experiment.{name}"]["calls"] == 1
        assert snap["counters"]["parallel.fallback"] == 1
        pids = {span.name: span.pid for span in tracker.spans}
        assert pids["experiment.fig8"] != os.getpid()
        assert pids["experiment.fig10"] == os.getpid()

    def test_run_tasks_unpicklable_fn_runs_in_process(self):
        reg = MetricsRegistry()
        fn = lambda x: x + 1  # noqa: E731 - unpicklable -> pool failure
        assert run_tasks(fn, [1, 2], max_workers=2, registry=reg) == [
            (TASK_OK, 2), (TASK_OK, 3)]
        counters = reg.as_dict()["counters"]
        assert counters["parallel.fallback"] == 1
        assert any(name.startswith("parallel.fallback.")
                   for name in counters if name != "parallel.fallback")

    def test_single_experiment_runs_in_process(self):
        # total == 1 short-circuits the pool entirely.
        sentinel = []

        def boom(name, kwargs):  # would fail to pickle anyway
            sentinel.append(name)
            raise AssertionError("pool must not be used")

        results = run_experiments(["fig8"], max_workers=8,
                                  common_kwargs=COMMON, pool_worker=boom)
        assert not sentinel
        assert results["fig8"].name == "fig8"

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestDispatchPlan:
    def test_machine_tasks_first_then_registry_order(self):
        plan = dispatch_plan(list(EXPERIMENTS))
        assert plan == [["fig12", "fig13", "fig16"], ["table2", "fig19"],
                        ["fig8"], ["fig9"], ["fig10"], ["fig18a"],
                        ["fig18b"]]
        names = [name for task in plan for name in task]
        assert sorted(names) == sorted(EXPERIMENTS)
        assert dispatch_plan(list(reversed(EXPERIMENTS))) == plan

    def test_grouped_tasks_match_serial(self):
        seen = []
        pooled = run_experiments(MACHINE_NAMES, max_workers=2,
                                 common_kwargs=MACHINE_COMMON,
                                 kwargs_for=MACHINE_KWARGS,
                                 on_progress=lambda done, total: seen.append(
                                     (done, total)))
        serial = run_experiments(MACHINE_NAMES, max_workers=1,
                                 common_kwargs=MACHINE_COMMON,
                                 kwargs_for=MACHINE_KWARGS)
        assert list(pooled) == list(serial) == MACHINE_NAMES
        for name in MACHINE_NAMES:
            # repr: fig19's H_mean row holds a NaN, which never equals itself.
            assert (repr(pooled[name].as_dict())
                    == repr(serial[name].as_dict())), name
        assert seen == [(2, 4), (4, 4)]

    def test_grouped_crash_falls_back_once(self):
        reg = MetricsRegistry()
        run_experiments(MACHINE_NAMES, max_workers=2,
                        common_kwargs=MACHINE_COMMON,
                        kwargs_for=MACHINE_KWARGS, registry=reg,
                        pool_worker=_crashing_worker)
        snap = reg.as_dict()
        assert snap["counters"]["parallel.fallback"] == 1
        for name in MACHINE_NAMES:
            assert snap["phases"][f"experiment.{name}"]["calls"] == 1


def _double(x):
    return x * 2


def _exit_on_negative(x):
    if x < 0:
        os._exit(13)
    return x * 2


class TestRunTasks:
    def test_outcomes_aligned_with_items(self):
        outcomes = run_tasks(_double, [1, 2, 3], max_workers=2)
        assert outcomes == [(TASK_OK, 2), (TASK_OK, 4), (TASK_OK, 6)]

    def test_serial_path(self):
        assert run_tasks(_double, [4], max_workers=1) == [(TASK_OK, 8)]
        assert run_tasks(_double, [], max_workers=4) == []

    def test_crash_marked_not_raised(self):
        """A worker dying hard must surface as TASK_CRASH data, never as
        an exception, and must not poison the outcome alignment."""
        outcomes = run_tasks(_exit_on_negative, [1, -1], max_workers=2)
        assert len(outcomes) == 2
        assert outcomes[1][0] == TASK_CRASH
        # the sibling either finished (kept!) or was a pool casualty;
        # both are legal, but its slot must exist and be well-formed.
        assert outcomes[0][0] in (TASK_OK, TASK_CRASH)
        if outcomes[0][0] == TASK_OK:
            assert outcomes[0][1] == 2

    def test_single_item_still_isolated(self):
        """One crashing item goes through a pool, not in-process — the
        driver must survive (a retried poison cell depends on this)."""
        outcomes = run_tasks(_exit_on_negative, [-1], max_workers=2)
        assert outcomes == [(TASK_CRASH, outcomes[0][1])]
        assert "BrokenProcessPool" in outcomes[0][1]

    def test_on_result_streams(self):
        seen = []
        run_tasks(_double, [5, 6], max_workers=2,
                  on_result=lambda i, outcome: seen.append((i, outcome)))
        assert sorted(seen) == [(0, (TASK_OK, 10)), (1, (TASK_OK, 12))]


def _pid(_x):
    return os.getpid()


def _exit_or_sleep(x):
    if x < 0:
        os._exit(13)
    time.sleep(0.2)
    return x * 2


def _sleep_then_tag(x):
    time.sleep(0.1)
    return ("slow", x)


def _tag_pid_or_exit(x):
    if x < 0:
        os._exit(13)
    return (x, os.getpid())


class _Abort(Exception):
    pass


class TestPersistentPool:
    """The default worker plane: long-lived workers reused across calls,
    dead workers replaced in place, crash blast radius of one worker."""

    def test_pool_created_once_and_reused(self):
        shutdown_pool()
        reg = MetricsRegistry()
        run_tasks(_double, [1, 2], max_workers=2, registry=reg)
        pool = get_pool()
        run_tasks(_double, [3, 4], max_workers=2, registry=reg)
        assert get_pool() is pool
        counters = reg.as_dict()["counters"]
        assert counters["pool.created"] == 1
        assert counters["pool.spawn"] == 2  # first call only
        assert counters["pool.reuse"] == 2  # both workers warm on call 2
        assert counters["pool.tasks"] == 4

    def test_workers_survive_between_calls(self):
        shutdown_pool()
        first = set(run_tasks(_pid, [0, 1], max_workers=2))
        second = set(run_tasks(_pid, [0, 1], max_workers=2))
        assert first == second  # literally the same worker processes

    def test_dead_worker_replaced_not_pool_restarted(self):
        """A crashing task takes down one worker; siblings and queued
        tasks complete, and the pool replaces the casualty in place."""
        shutdown_pool()
        reg = MetricsRegistry()
        # The poison item dies instantly while its sibling is mid-sleep,
        # so work is still queued when the casualty is reaped.
        outcomes = run_tasks(_exit_or_sleep, [-1, 1, 2, 3],
                             max_workers=2, registry=reg)
        assert outcomes[0][0] == TASK_CRASH
        assert "BrokenProcessPool" in outcomes[0][1]
        # Every sibling completed despite the crash — the legacy
        # pool-per-call executor would have broken them all.
        assert outcomes[1] == (TASK_OK, 2)
        assert outcomes[2] == (TASK_OK, 4)
        assert outcomes[3] == (TASK_OK, 6)
        counters = reg.as_dict()["counters"]
        assert counters["pool.replace"] >= 1
        # no serial degradation happened
        assert counters.get("parallel.fallback", 0) == 0

    def test_batch_runs_in_one_worker_in_order(self):
        """A batch is one message to one worker, which runs its tasks in
        order and replies once per task."""
        shutdown_pool()
        reg = MetricsRegistry()
        seen = []
        batches = [[0, 2, 4], [1, 3, 5]]
        outcomes = run_tasks(_tag_pid_or_exit, range(6), max_workers=2,
                             registry=reg, batches=batches,
                             on_result=lambda i, outcome: seen.append(i))
        assert [value[0] for _status, value in outcomes] == list(range(6))
        pids = [{outcomes[i][1][1] for i in batch} for batch in batches]
        assert all(len(batch_pids) == 1 for batch_pids in pids)
        assert pids[0] != pids[1]
        assert sorted(seen) == list(range(6))
        for batch in batches:
            assert [i for i in seen if i in batch] == batch
        counters = reg.as_dict()["counters"]
        assert counters["pool.batches"] == 2
        assert counters["pool.tasks"] == 6

    def test_crash_inside_batch_charges_only_the_running_task(self):
        """A worker dying in task 2 of a 4-task batch crashes task 2
        only; tasks 3 and 4 go back to the queue and run on another
        worker."""
        shutdown_pool()
        reg = MetricsRegistry()
        outcomes = run_tasks(_tag_pid_or_exit, [1, -1, 3, 4], max_workers=2,
                             registry=reg, batches=[[0, 1, 2, 3]])
        assert [status for status, _value in outcomes] == [
            TASK_OK, TASK_CRASH, TASK_OK, TASK_OK]
        assert "BrokenProcessPool" in outcomes[1][1]
        assert [outcomes[i][1][0] for i in (0, 2, 3)] == [1, 3, 4]
        first, third, fourth = (outcomes[i][1][1] for i in (0, 2, 3))
        assert third == fourth != first
        counters = reg.as_dict()["counters"]
        assert counters["pool.replace"] == 1
        assert counters.get("parallel.fallback", 0) == 0

    def test_batches_ignored_in_process(self):
        assert run_tasks(_double, [1, 2, 3], max_workers=1,
                         batches=[[2], [0, 1]]) == [
            (TASK_OK, 2), (TASK_OK, 4), (TASK_OK, 6)]

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert run_tasks(_double, [7], max_workers=2) == [(TASK_OK, 14)]

    def test_aborted_call_leaves_no_stale_replies(self):
        """A call whose callback raises stops the workers still running
        its tasks: the next call on the pool sees only its own replies."""
        shutdown_pool()
        seen = []

        def abort_at_fifth(i, outcome):
            seen.append(i)
            if len(seen) == 5:
                raise _Abort()

        with pytest.raises(_Abort):
            run_tasks(_sleep_then_tag, range(8), max_workers=2,
                      on_result=abort_at_fifth)
        time.sleep(0.3)  # the task still in flight has finished by now
        reg = MetricsRegistry()
        later = []
        outcomes = run_tasks(_double, [20, 21], max_workers=2, registry=reg,
                             on_result=lambda i, outcome: later.append(
                                 (i, outcome)))
        assert outcomes == [(TASK_OK, 40), (TASK_OK, 42)]
        assert sorted(later) == [(0, (TASK_OK, 40)), (1, (TASK_OK, 42))]
        assert reg.as_dict()["counters"]["pool.spawn"] >= 1
        shutdown_pool()


def _shard_echo(payload):
    return (os.getpid(), payload)


class TestConcurrentShutdown:
    def test_shutdown_pool_concurrent_callers(self):
        """atexit and an explicit caller racing shutdown_pool() must both
        return cleanly with every worker stopped exactly once."""
        import threading

        for _round in range(3):
            shutdown_pool()
            run_tasks(_double, [1, 2], max_workers=2)
            pids = get_pool().worker_pids()
            assert pids
            errors = []

            def call():
                try:
                    shutdown_pool()
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for pid in pids:
                # Every worker is really gone (kill 0 probes existence).
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    def test_close_reentrant_on_pool_instance(self):
        shutdown_pool()
        run_tasks(_double, [1], max_workers=1)
        pool = get_pool()
        shutdown_pool()
        pool.close()  # second close on the same instance: a no-op
        assert pool.closed


class TestShardAPI:
    """Pinned shard workers: stable index ↔ worker affinity, setup-once
    dispatch, in-place replacement after a crash."""

    def test_shard_send_recv_round_trip(self):
        shutdown_pool()
        reg = MetricsRegistry()
        pool = get_pool(reg)
        pool.shard_workers(2, reg)
        pool.shard_send(0, _shard_echo, 7, {"hello": 1}, reg)
        pool.shard_send(1, _shard_echo, 8, {"hello": 2}, reg)
        kind0, tag0, (pid0, payload0) = pool.shard_recv(0)
        kind1, tag1, (pid1, payload1) = pool.shard_recv(1)
        assert (kind0, tag0, payload0) == ("ok", 7, {"hello": 1})
        assert (kind1, tag1, payload1) == ("ok", 8, {"hello": 2})
        assert pid0 != pid1  # distinct worker processes

        # Affinity: the same shard index reaches the same process.
        pool.shard_send(0, _shard_echo, 9, {}, reg)
        _kind, _tag, (pid0_again, _p) = pool.shard_recv(0)
        assert pid0_again == pid0
        shutdown_pool()

    def test_shard_replace_preserves_index(self):
        shutdown_pool()
        reg = MetricsRegistry()
        pool = get_pool(reg)
        pool.shard_workers(2, reg)
        pool.shard_send(0, _shard_echo, 1, {}, reg)
        _k, _t, (pid0, _p) = pool.shard_recv(0)
        pool.shard_send(1, _shard_echo, 2, {}, reg)
        _k, _t, (pid1, _p) = pool.shard_recv(1)

        # Kill shard 0's process; replace must keep shard 1 untouched.
        pool.shard_send(0, _shard_echo, 3, {}, reg)
        os.kill(pid0, 9)
        lost = pool.shard_replace(0, reg)
        assert lost == [3]
        pool.shard_send(0, _shard_echo, 4, {}, reg)
        _k, _t, (new_pid0, _p) = pool.shard_recv(0)
        assert new_pid0 != pid0
        pool.shard_send(1, _shard_echo, 5, {}, reg)
        _k, _t, (pid1_again, _p) = pool.shard_recv(1)
        assert pid1_again == pid1
        shutdown_pool()


#: The trace the published-trace test reads in the driver and its workers.
PUBLISHED_BENCH = "gzip"
PUBLISHED_LENGTH = 3000


def _load_published(_x):  # pragma: no cover - subprocess
    """Pool cell: read the published trace's key through the cache."""
    reg = MetricsRegistry()
    trace = cached_trace(PUBLISHED_BENCH, PUBLISHED_LENGTH, metrics=reg)
    columns = {col: bytes(data) for col, data in trace.columns().items()}
    return columns, reg.as_dict()["counters"]


class TestTraceTiers:
    """A worker reads its traces from the memo or the disk cache only; a
    trace the driver publishes to shared memory is never attached."""

    def test_workers_skip_a_published_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        shutdown_pool()
        trace = cached_trace(PUBLISHED_BENCH, PUBLISHED_LENGTH)
        key = (PUBLISHED_BENCH, PUBLISHED_LENGTH,
               get(PUBLISHED_BENCH).seed, 1)
        assert shm.publish(trace, key) is not None
        memo_clear()  # forked workers must not inherit the driver's memo
        try:
            outcomes = run_tasks(_load_published, range(4), max_workers=2)
        finally:
            shutdown_pool()
            shm.unpublish_all()
            memo_clear()
        expected = {col: bytes(data)
                    for col, data in trace.columns().items()}
        assert [status for status, _value in outcomes] == [TASK_OK] * 4
        assert all(columns == expected for _s, (columns, _c) in outcomes)
        assert sum(counters.get("shm.attach", 0)
                   for _s, (_columns, counters) in outcomes) == 0

    def test_runtime_imports_no_shared_memory(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import repro.cli, repro.campaign.scheduler\n"
            "import repro.harness.parallel, repro.serve.engine\n"
            "print(' '.join(m for m in ('repro.trace.shm',\n"
            "                           'multiprocessing.shared_memory')\n"
            "               if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == []
