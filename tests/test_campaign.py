"""Campaign orchestration: specs, store, scheduler, fidelity, reports.

The properties that matter, in order of importance:

1. **Determinism** — a campaign cell computes exactly what the direct
   harness call computes (same ``ExperimentResult`` / ``PredictionStats``).
2. **Resumability** — interrupt a campaign, resume it, and completed
   cells are skipped byte-for-byte untouched, never recomputed.
3. **Fault isolation** — a poisoned cell (exception *or* hard worker
   crash) ends up quarantined with its traceback while every sibling
   completes.
4. **Store-only reporting** — status/report/fidelity run from the
   directory alone, reproducing the live harness tables verbatim.
"""

import errno
import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CampaignStore,
    RetryPolicy,
    SpecError,
    StoreError,
    check_fidelity,
    render_report,
    report_tables,
)
from repro.campaign.scheduler import _cell_worker, _plan_round
from repro.campaign.spec import Cell
from repro.harness import runner
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import run_value_prediction
from repro.telemetry import MetricsRegistry
from repro.core.gdiff import GDiffPredictor
from repro.core.hybrid import HybridGDiffPredictor
from repro.predictors.stride import StridePredictor
from repro.trace import shm
from repro.trace.cache import default_cache, memo_clear
from repro.trace.workloads import get

#: Fast 2x2 grid used throughout: fig8 at two lengths x two benchmarks.
MINI = {
    "campaign": {"name": "mini", "description": "2x2 test grid"},
    "defaults": {"kind": "experiment", "experiment": "fig8"},
    "matrix": {"length": [4000, 6000], "benchmarks": [["gcc"], ["mcf"]]},
}


def mini_spec(**extra):
    doc = json.loads(json.dumps(MINI))
    doc.update(extra)
    return CampaignSpec.from_dict(doc)


def scheduler(spec, store, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("retry", RetryPolicy(max_attempts=2, backoff_base_s=0.0))
    kw.setdefault("warm", False)  # tiny traces; generation is cheap
    return CampaignScheduler(spec, store, **kw)


#: The benchmark suite, spelled out so a warm-plan change shows here.
SUITE = ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf",
         "vortex", "vpr")

#: The traces ``campaign run`` warms for one cell of each registry
#: experiment at length 5000: ``(bench, length, seed, code_copies)``.
WARM_AT_5000 = {
    "fig8": {(bench, 5000, None, 1) for bench in SUITE},
    "fig9": {(bench, 5000, None, 8) for bench in SUITE},
    "fig10": {(bench, 5000, None, 1) for bench in SUITE},
    "fig12": {("vortex", 5000, None, 4)},
    "fig13": {(bench, 5000, None, 4) for bench in SUITE},
    "fig16": {(bench, 5000, None, 4) for bench in SUITE},
    "fig18a": {(bench, 5000, None, 1) for bench in SUITE},
    "fig18b": {(bench, 5000, None, 1) for bench in SUITE},
    "table2": {(bench, 5000, None, 4) for bench in SUITE},
    "fig19": {(bench, 5000, None, 4) for bench in SUITE},
}

#: One predict cell per predictor on a tiny gcc trace.
PREDICT_GRID = {
    "campaign": {"name": "predict-grid"},
    "defaults": {"kind": "predict", "bench": "gcc", "length": 3000},
    "matrix": {"predictor": ["stride", "last-value", "dfcm", "gdiff"]},
}

#: The predictor whose cells ``_slow_marked_cell_worker`` stalls.
SLOW_PREDICTOR = "gdiff"

#: Two benches x {stride, gdiff} x gated: four gated/ungated sibling pairs.
SIBLING_GRID = {
    "campaign": {"name": "siblings"},
    "defaults": {"kind": "predict", "length": 3000},
    "matrix": {"bench": ["gcc", "mcf"], "predictor": ["stride", "gdiff"],
               "gated": [False, True]},
}

#: The predictor whose cells ``_crash_predictor_cell_worker`` kills.
CRASH_PREDICTOR = "stride"

#: The perfbench sweep's shape on three traces: each trace's two sibling
#: tasks form one pool batch, so no trace is read by two batches.
SWEEP_SHAPED_GRID = {
    "campaign": {"name": "sweep-shaped"},
    "defaults": {"kind": "predict", "length": 3000},
    "matrix": {"bench": ["gcc", "mcf", "gzip"],
               "predictor": ["stride", "gdiff"], "gated": [False, True]},
}

#: One trace, eight gated gdiff cells: with two workers, two batches of
#: four tasks read the one trace.
SHARED_TRACE_GRID = {
    "campaign": {"name": "shared-trace"},
    "defaults": {"kind": "predict", "predictor": "gdiff", "bench": "gcc",
                 "length": 3000, "gated": True},
    "matrix": {"order": [4, 8, 16, 32], "entries": [2048, 8192]},
}


# Fault-injection pool entry points (module level so workers can unpickle
# them by name).
def _crashing_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Every cell hard-kills its worker."""
    os._exit(13)


def _crash_marked_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Cells with ``length == 4242`` die hard; everything else runs
    normally."""
    if config["params"].get("length") == 4242:
        os._exit(13)
    return _cell_worker(config, span_ctx)


#: The trace length that marks a cell for ``_raise_marked_cell_worker``.
RAISE_LENGTH = 4343


def _raise_marked_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Cells with ``length == RAISE_LENGTH`` reach the real cell body with
    a negative length, which the spec would refuse, so the body raises
    ``ValueError`` in the worker; everything else runs normally."""
    if config["params"].get("length") == RAISE_LENGTH:
        config = {**config, "params": {**config["params"], "length": -5}}
    return _cell_worker(config, span_ctx)


def _slow_marked_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Cells of ``SLOW_PREDICTOR`` stall for a minute before running;
    everything else runs normally."""
    if config["params"]["predictor"] == SLOW_PREDICTOR:
        time.sleep(60)
    return _cell_worker(config, span_ctx)


def _crash_predictor_cell_worker(config, span_ctx=None):  # pragma: no cover - subprocess
    """Cells of ``CRASH_PREDICTOR`` die hard; everything else runs
    normally."""
    if config["params"]["predictor"] == CRASH_PREDICTOR:
        os._exit(13)
    return _cell_worker(config, span_ctx)


def _counting_cell_worker(log_path, config, span_ctx=None):  # pragma: no cover - subprocess
    """Run the real cell body, appending one line per execution."""
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(config, sort_keys=True) + "\n")
    return _cell_worker(config, span_ctx)


class _FailingStore(CampaignStore):
    """A store whose disk fills up at the *fail_at*-th completed record."""

    def __init__(self, root, fail_at):
        super().__init__(root)
        self.fail_at = fail_at
        self.writes = 0

    def write_result(self, *args, **kwargs):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write_result(*args, **kwargs)


#: Drives a campaign directory with the slow worker; run in its own
#: process group so the test can SIGKILL the driver and its pool at once.
_SLOW_DRIVER = """
import sys
from repro.campaign import CampaignScheduler, CampaignStore
from tests.test_campaign import _slow_marked_cell_worker
store = CampaignStore(sys.argv[1])
CampaignScheduler(store.open(), store, max_workers=2, warm=False,
                  cell_worker=_slow_marked_cell_worker).run()
"""


# ---------------------------------------------------------------------------
# Spec parsing and grid expansion
# ---------------------------------------------------------------------------
class TestSpec:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "t"\n'
            '[defaults]\nkind = "experiment"\n'
            '[matrix]\nexperiment = ["fig8"]\nlength = [4000, 6000]\n')
        spec = CampaignSpec.load(path)
        assert spec.name == "t"
        assert [c.params["length"] for c in spec.cells()] == [4000, 6000]

    def test_matrix_cross_product_with_defaults(self):
        cells = mini_spec().cells()
        assert len(cells) == 4
        assert all(c.kind == "experiment" for c in cells)
        assert all(c.params["experiment"] == "fig8" for c in cells)
        combos = {(c.params["length"], tuple(c.params["benchmarks"]))
                  for c in cells}
        assert combos == {(4000, ("gcc",)), (4000, ("mcf",)),
                          (6000, ("gcc",)), (6000, ("mcf",))}

    def test_exclude_drops_matching_cells(self):
        spec = mini_spec(exclude=[{"length": 4000, "benchmarks": ["gcc"]}])
        assert len(spec.cells()) == 3

    def test_override_patches_matching_cells(self):
        spec = mini_spec(override=[
            {"where": {"length": 4000, "benchmarks": ["mcf"]},
             "set": {"length": 4500}}])
        lengths = sorted(c.params["length"] for c in spec.cells())
        assert lengths == [4000, 4500, 6000, 6000]

    def test_override_collapse_is_an_error(self):
        with pytest.raises(SpecError, match="duplicate cell"):
            mini_spec(override=[
                {"where": {"benchmarks": ["mcf"]}, "set": {"length": 5000}}])

    def test_cell_id_is_content_hash(self):
        a = Cell.make("experiment", {"experiment": "fig8", "length": 4000})
        b = Cell.make("experiment", {"length": 4000, "experiment": "fig8"})
        c = Cell.make("experiment", {"experiment": "fig8", "length": 4001})
        assert a.cell_id == b.cell_id  # key order is irrelevant
        assert a.cell_id != c.cell_id

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment"):
            mini_spec(matrix={"experiment": ["fig99"]},
                      defaults={"kind": "experiment"})

    def test_unknown_predictor_rejected(self):
        with pytest.raises(SpecError, match="unknown predictor"):
            CampaignSpec.from_dict({
                "campaign": {"name": "p"},
                "defaults": {"kind": "predict", "predictor": "oracle"},
                "matrix": {"bench": ["gcc"]},
            })

    def test_predict_rejects_foreign_axes(self):
        with pytest.raises(SpecError, match="does not accept"):
            CampaignSpec.from_dict({
                "campaign": {"name": "p"},
                "defaults": {"kind": "predict", "predictor": "stride"},
                "matrix": {"bench": ["gcc"], "delay": [4]},  # stride: no delay
            })

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            mini_spec(matrix={"length": [4000], "benchmarks": [["nginx"]]})

    @pytest.mark.parametrize("kind,params", [
        ("predict", {"predictor": "stride", "bench": "gcc"}),
        ("experiment", {"experiment": "fig8"}),
    ], ids=["predict", "experiment"])
    @pytest.mark.parametrize("key", ["length", "code_copies"])
    @pytest.mark.parametrize("value", [0, -5, True, 2.0, "100"])
    def test_non_positive_trace_shape_rejected(self, kind, params, key,
                                               value):
        with pytest.raises(SpecError, match=f"{key} must be an integer"):
            CampaignSpec.from_dict({
                "campaign": {"name": "p"},
                "defaults": {"kind": kind, **params},
                "matrix": {key: [value]},
            })

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecError, match="zero cells"):
            mini_spec(exclude=[{"experiment": "fig8"}])

    def test_grid_sha_tracks_any_cell_change(self):
        base = mini_spec().grid_sha()
        assert mini_spec().grid_sha() == base  # deterministic
        changed = mini_spec(override=[
            {"where": {"length": 4000}, "set": {"length": 4001}}])
        assert changed.grid_sha() != base

    def test_snapshot_preserves_identity(self):
        spec = mini_spec()
        rebuilt = CampaignSpec.from_snapshot(spec.snapshot())
        assert rebuilt.grid_sha() == spec.grid_sha()
        assert ([c.cell_id for c in rebuilt.cells()]
                == [c.cell_id for c in spec.cells()])

    def test_apply_sets_grid_path(self):
        spec = mini_spec(matrix={"length": [4000],
                                 "benchmarks": [["gcc"], ["mcf"]]})
        spec.apply_sets({"length": 3000})
        assert {c.params["length"] for c in spec.cells()} == {3000}

    def test_apply_sets_collapse_is_loud(self):
        # --set on a spec whose matrix sweeps the same key would collapse
        # the axis into duplicate cells; that must fail, not dedup silently.
        with pytest.raises(SpecError, match="duplicate cell"):
            mini_spec().apply_sets({"length": 3000})

    def test_apply_sets_on_snapshot(self):
        spec = CampaignSpec.from_snapshot(mini_spec().snapshot())
        before = spec.grid_sha()
        spec.apply_sets({"seed": 9})
        assert spec.grid_sha() != before
        assert all(c.params["seed"] == 9 for c in spec.cells())


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------
class TestStore:
    def test_create_open_roundtrip(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        stored = CampaignStore(tmp_path / "c").open(spec)
        assert stored.grid_sha() == spec.grid_sha()
        assert [c.label for c in stored.cells()] == [
            c.label for c in spec.cells()]

    def test_open_refuses_different_grid(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.create(mini_spec())
        other = mini_spec(matrix={"length": [4000],
                                  "benchmarks": [["gcc"]]})
        with pytest.raises(StoreError, match="different grid"):
            CampaignStore(tmp_path / "c").open(other)

    def test_open_non_campaign_dir(self, tmp_path):
        with pytest.raises(StoreError, match="not a campaign directory"):
            CampaignStore(tmp_path / "nope").open()

    def test_write_result_is_atomic_and_indexed(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        cell = spec.cells()[0]
        store.write_result(cell, {"experiment": {"name": "fig8"}},
                           attempts=2, duration_s=0.5)
        assert store.is_done(cell.cell_id)
        assert store.counts()["done"] == 1
        record = store.load_cell(cell.cell_id)
        assert record["attempts"] == 2
        assert record["config"] == cell.config()
        # no temp droppings left behind
        leftovers = [p for p in store.cells_dir.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []

    def test_quarantine_then_success_clears_it(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        cell = spec.cells()[0]
        store.write_quarantine(cell, "ValueError: boom", "Traceback...",
                               attempts=3)
        assert store.status(cell.cell_id) == "quarantined"
        assert store.load_quarantine(cell.cell_id)["traceback"]
        store.write_result(cell, {"experiment": {}})
        assert store.is_done(cell.cell_id)
        assert not store.quarantine_path(cell.cell_id).exists()

    def test_index_self_heals(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        cell = spec.cells()[0]
        store.write_result(cell, {"experiment": {}})
        # Simulate a crash between the cell write and the index write.
        store.index_path.unlink()
        healed = CampaignStore(tmp_path / "c")
        healed.open()
        assert healed.is_done(cell.cell_id)
        # ... and a stale index (cell file present, index empty) too.
        store.index_path.write_text("{}")
        healed2 = CampaignStore(tmp_path / "c")
        healed2.open()
        assert healed2.is_done(cell.cell_id)

    def test_open_heals_missing_quarantine_records(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        cell = spec.cells()[0]
        store.write_quarantine(cell, "ValueError: boom", "Traceback...",
                               attempts=2)
        # The index a kill before the round's index write leaves behind.
        store.index_path.write_text("{}")
        reopened = CampaignStore(tmp_path / "c")
        reopened.open()
        assert reopened.status(cell.cell_id) == "quarantined"
        assert reopened.summary(cell.cell_id)["attempts"] == 2

    def test_refresh_heals_in_memory_only(self, tmp_path):
        """A lagging index is healed by reading only the records it lacks
        and dropping ids whose files are gone; index.json is left alone
        (the scheduler owns it)."""
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        gone, late = spec.cells()[:2]
        store.write_result(gone, {"experiment": {}})
        store.write_index()
        store.write_result(late, {"experiment": {}})
        store.cell_path(gone.cell_id).unlink()
        before = (store.index_path.read_bytes(),
                  store.index_path.stat().st_mtime_ns)

        watcher = CampaignStore(tmp_path / "c")
        watcher.open()
        watcher.refresh()
        assert watcher.is_done(late.cell_id)
        assert watcher.status(gone.cell_id) == "pending"
        assert (store.index_path.read_bytes(),
                store.index_path.stat().st_mtime_ns) == before

    def test_manifest_dedup(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        cells = spec.cells()
        manifest = {"run_id": "abc123", "command": "campaign-cell"}
        store.write_result(cells[0], {"experiment": {}}, manifest=manifest)
        store.write_result(cells[1], {"experiment": {}}, manifest=manifest)
        assert len(list(store.manifests_dir.glob("*.json"))) == 1


# ---------------------------------------------------------------------------
# Scheduler: determinism, resumability, fault isolation
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_campaign_equals_direct_harness(self, tmp_path):
        """Acceptance: a campaign cell's record equals the direct call."""
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        summary = scheduler(spec, store).run()
        assert summary.completed == 4 and summary.quarantined == 0
        for cell in spec.cells():
            kwargs = {k: v for k, v in cell.params.items()
                      if k != "experiment"}
            direct = run_experiment("fig8", **kwargs)
            stored = store.load_cell(cell.cell_id)
            assert stored["result"]["experiment"] == direct.as_dict()

    def test_predict_cell_equals_direct_runner(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "p"},
            "defaults": {"kind": "predict", "predictor": "gdiff",
                         "length": 3000, "order": 8, "gated": True},
            "matrix": {"bench": ["gcc"]},
        })
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store).run().completed == 1
        cell = spec.cells()[0]
        direct = run_value_prediction(
            get("gcc").trace(3000), {"gdiff": GDiffPredictor(order=8)},
            gated=True)
        stored = store.load_cell(cell.cell_id)
        assert stored["result"]["stats"]["gdiff"] == \
            direct["gdiff"].as_dict()

    def test_interrupt_resume_no_recompute(self, tmp_path):
        """Acceptance: stop after 2 of 4 cells, resume, and the completed
        records are byte-identical — zero re-executions."""
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        first = scheduler(spec, store, stop_after=2).run()
        assert first.completed == 2 and first.stopped_early
        done = sorted(store.cells_dir.glob("*.json"))
        assert len(done) == 2
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in done}

        reg = MetricsRegistry()
        resume_store = CampaignStore(tmp_path / "c")
        resume_spec = resume_store.open()
        second = scheduler(resume_spec, resume_store, registry=reg).run()
        assert second.skipped == 2 and second.completed == 2
        snap = reg.as_dict()["counters"]
        assert snap["campaign.cells.skipped"] == 2
        assert snap["campaign.cells.completed"] == 2
        for name, (payload, mtime) in before.items():
            path = store.cells_dir / name
            assert path.read_bytes() == payload
            assert path.stat().st_mtime_ns == mtime

        store3 = CampaignStore(tmp_path / "c")
        third = scheduler(store3.open(), store3).run()
        assert third.skipped == 4 and third.completed == 0

    def test_cells_land_while_round_runs_and_survive_sigkill(self, tmp_path):
        """Records are written as outcomes arrive: while one slow cell
        still runs, its finished siblings are on disk, and a SIGKILL of
        the driver loses only the slow cell.  The resume skips exactly the
        recorded cells and leaves their bytes untouched."""
        spec = CampaignSpec.from_dict(PREDICT_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        fast = {c.cell_id for c in spec.cells()
                if c.params["predictor"] != SLOW_PREDICTOR}
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(repo / "src"), str(repo)]))
        driver = subprocess.Popen(
            [sys.executable, "-c", _SLOW_DRIVER, str(store.root)],
            cwd=repo, env=env, start_new_session=True)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                landed = {p.stem for p in store.cells_dir.glob("*.json")}
                if landed >= fast or driver.poll() is not None:
                    break
                time.sleep(0.02)
            assert driver.poll() is None, "driver exited early"
            assert landed == fast
        finally:
            try:
                os.killpg(driver.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group already exited
                pass
            driver.wait(timeout=30)
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in store.cells_dir.glob("*.json")}
        assert {Path(name).stem for name in before} == fast

        reg = MetricsRegistry()
        resumed = CampaignStore(tmp_path / "c")
        summary = scheduler(resumed.open(), resumed, registry=reg).run()
        assert summary.skipped == len(fast) and summary.completed == 1
        assert reg.as_dict()["counters"]["campaign.cells.skipped"] == \
            len(fast)
        for name, (payload, mtime) in before.items():
            path = store.cells_dir / name
            assert path.read_bytes() == payload
            assert path.stat().st_mtime_ns == mtime

    def test_store_error_surfaces_after_round_drains(self, tmp_path):
        """A record write that fails mid-round is raised from run() once
        the in-flight cells drain; it must not look like a broken pool,
        whose serial fallback would run every cell body a second time."""
        spec = CampaignSpec.from_dict(PREDICT_GRID)
        store = _FailingStore(tmp_path / "c", fail_at=3)
        store.create(spec)
        log_path = tmp_path / "executions.log"
        reg = MetricsRegistry()
        sched = scheduler(spec, store, registry=reg, cell_worker=(
            functools.partial(_counting_cell_worker, str(log_path))))
        with pytest.raises(OSError) as err:
            sched.run()
        assert err.value.errno == errno.ENOSPC
        executions = log_path.read_text().splitlines()
        assert len(executions) == len(set(executions))
        assert "parallel.fallback" not in reg.as_dict()["counters"]
        # The round's index write still ran and lists the two records.
        recorded = {p.stem for p in store.cells_dir.glob("*.json")}
        assert len(recorded) == 2
        assert set(json.loads(store.index_path.read_text())) == recorded

    def test_soft_failure_quarantined_not_fatal(self, tmp_path):
        """A cell that raises is retried then quarantined with its
        traceback; the sibling cells still complete."""
        spec = mini_spec(matrix={"length": [4000, RAISE_LENGTH],
                                 "benchmarks": [["gcc"]]})
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = scheduler(spec, store, registry=reg,
                            cell_worker=_raise_marked_cell_worker).run()
        assert summary.completed == 1
        assert summary.quarantined == 1
        assert summary.retried == 1  # max_attempts=2 -> one retry round
        bad = next(c for c in spec.cells()
                   if c.params["length"] == RAISE_LENGTH)
        record = store.load_quarantine(bad.cell_id)
        assert "ValueError" in record["error"]
        assert "Traceback" in record["traceback"]
        assert record["attempts"] == 2
        assert reg.as_dict()["counters"]["campaign.cells.quarantined"] == 1

    def test_hard_crash_quarantined_siblings_survive(self, tmp_path):
        """A worker killed outright (os._exit) breaks its pool; the
        scheduler rebuilds it, quarantines the poisoned cell, and every
        other cell completes."""
        spec = mini_spec(matrix={"length": [4000, 4242, 6000],
                                 "benchmarks": [["gcc"]]})
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = scheduler(spec, store, registry=reg,
                            cell_worker=_crash_marked_cell_worker).run()
        assert summary.completed == 2
        assert summary.quarantined == 1
        assert summary.crashes >= 1
        marked = next(c for c in spec.cells()
                      if c.params["length"] == 4242)
        assert "crashed" in store.load_quarantine(marked.cell_id)["error"]
        assert reg.as_dict()["counters"]["campaign.pool.crash"] >= 1

    def test_every_worker_crashing_still_terminates(self, tmp_path):
        spec = mini_spec(matrix={"length": [4000],
                                 "benchmarks": [["gcc"]]})
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        summary = scheduler(spec, store,
                            cell_worker=_crashing_cell_worker).run()
        assert summary.completed == 0 and summary.quarantined == 1

    def test_warm_plan_covers_grid(self):
        spec = mini_spec()
        sched = scheduler(spec, CampaignStore("/nonexistent"))
        plan = sched.warm_plan(spec.cells())
        assert plan == {("gcc", 4000, None, 1), ("gcc", 6000, None, 1),
                        ("mcf", 4000, None, 1), ("mcf", 6000, None, 1)}

    def test_warm_plan_cases_cover_registry(self):
        assert set(WARM_AT_5000) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(WARM_AT_5000))
    def test_warm_plan_per_experiment(self, experiment):
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "warm"},
            "defaults": {"kind": "experiment", "length": 5000},
            "matrix": {"experiment": [experiment]},
        })
        sched = scheduler(spec, CampaignStore("/nonexistent"))
        assert sched.warm_plan(spec.cells()) == WARM_AT_5000[experiment]

    def test_progress_counts_every_cell_once(self, tmp_path):
        spec = mini_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        seen = []
        scheduler(spec, store,
                  on_progress=lambda done, total: seen.append(
                      (done, total))).run()
        assert seen[0] == (0, 4) and seen[-1] == (4, 4)


def _direct_stats(params):
    """A predict cell's stats from ``run_value_prediction`` with a fresh
    predictor and the cell's own ``gated``."""
    if params["predictor"] == "gdiff":
        predictor = GDiffPredictor(order=params.get("order", 8),
                                   entries=None)
    elif params["predictor"] == "hgvq":
        predictor = HybridGDiffPredictor(order=32, entries=None)
    else:
        predictor = StridePredictor(entries=None)
    return run_value_prediction(
        get(params["bench"]).trace(params["length"]),
        {params["predictor"]: predictor},
        gated=params["gated"])[params["predictor"]].as_dict()


def _count_runs(monkeypatch):
    """Record the ``gated`` of every predictor run an in-process cell
    makes."""
    runs = []
    real = runner.run_value_prediction

    def counted(trace, predictors, gated=False, **kwargs):
        runs.append(gated)
        return real(trace, predictors, gated=gated, **kwargs)

    monkeypatch.setattr(runner, "run_value_prediction", counted)
    return runs


def _sibling(cell):
    """A predict cell's parameters but ``gated``."""
    return json.dumps({k: v for k, v in cell.params.items()
                       if k != "gated"}, sort_keys=True)


class TestSharedWork:
    """Sibling cells (equal but for ``gated``) share one predictor run, and
    the tasks of one trace go to one worker as one batch; every record
    stays what the cell computes alone."""

    def test_round_plan(self):
        sweep = CampaignSpec.from_dict({
            "campaign": {"name": "sweep"},
            "defaults": {"kind": "predict", "length": 3000},
            "matrix": {"bench": ["gcc", "mcf", "gzip"],
                       "predictor": ["stride", "dfcm", "gdiff"],
                       "gated": [False, True]},
        }).cells()
        tasks, batches = _plan_round(sweep, 2)
        assert [[sweep[i].params["gated"] for i in task]
                for task in tasks] == [[False, True]] * 9
        assert all(len({_sibling(sweep[i]) for i in task}) == 1
                   for task in tasks)
        # Three traces of three tasks each; the cap is ceil(9 / 2) = 5.
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert all(len({sweep[i].params["bench"] for t in batch
                        for i in tasks[t]}) == 1 for batch in batches)
        # One trace, eight tasks, two workers: two batches of four.
        one_trace = CampaignSpec.from_dict({
            "campaign": {"name": "one"},
            "defaults": {"kind": "predict", "predictor": "gdiff",
                         "bench": "gcc", "length": 3000, "gated": True},
            "matrix": {"order": [8, 32], "entries": [2048, 8192],
                       "delay": [0, 4]},
        }).cells()
        tasks, batches = _plan_round(one_trace, 2)
        assert tasks == [[i] for i in range(8)]
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]
        # Experiment cells are tasks and batches of one.
        tasks, batches = _plan_round(mini_spec().cells(), 2)
        assert tasks == [[0], [1], [2], [3]]
        assert batches == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_shared_runs_equal_direct_runs(self, tmp_path, max_workers):
        spec = CampaignSpec.from_dict(SIBLING_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = scheduler(spec, store, max_workers=max_workers,
                            registry=reg).run()
        assert summary.completed == 8 and summary.quarantined == 0
        for cell in spec.cells():
            record = store.load_cell(cell.cell_id)
            assert (record["result"]["stats"][cell.params["predictor"]]
                    == _direct_stats(cell.params)), cell.label
            assert record["telemetry"]["events"] == 3000
            assert record["attempts"] == 1
        if max_workers > 1:
            counters = reg.as_dict()["counters"]
            assert counters["pool.tasks"] == 4
            assert counters["pool.batches"] == 2

    def test_predictor_runs_once_per_sibling_pair(self, tmp_path,
                                                  monkeypatch):
        runs = _count_runs(monkeypatch)
        spec = CampaignSpec.from_dict(SIBLING_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store, max_workers=1).run().completed == 8
        assert runs == [True] * 4

    def test_hgvq_shares_the_gdiff_run(self, tmp_path, monkeypatch):
        """An ``hgvq`` cell reads gDiff's run at its order and delay 0:
        one bench x {gdiff order 32, hgvq} x gated is one task and one
        predictor run, and every record equals the cell's direct run."""
        runs = _count_runs(monkeypatch)
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "hgvq-gdiff"},
            "defaults": {"kind": "predict", "bench": "gcc", "length": 3000},
            "matrix": {"predictor": ["gdiff", "hgvq"],
                       "gated": [False, True]},
            "override": [{"where": {"predictor": "gdiff"},
                          "set": {"order": 32}}],
        })
        tasks, _batches = _plan_round(spec.cells(), 2)
        assert tasks == [[0, 1, 2, 3]]
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store, max_workers=1).run().completed == 4
        assert runs == [True]
        for cell in spec.cells():
            record = store.load_cell(cell.cell_id)
            assert (record["result"]["stats"][cell.params["predictor"]]
                    == _direct_stats(cell.params)), cell.label

    @pytest.mark.parametrize("gated", [False, True])
    def test_lone_hgvq_cell_equals_the_hybrid(self, tmp_path, gated):
        """An ``hgvq`` cell alone in its task runs gDiff at delay 0 as
        well; its record equals ``HybridGDiffPredictor``'s direct run, on
        bounded and aliasing tables too."""
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "hgvq-alone"},
            "defaults": {"kind": "predict", "predictor": "hgvq",
                         "bench": "gcc", "length": 3000, "gated": gated},
            "matrix": {"order": [8, 32], "entries": [64, 4096]},
        })
        tasks, _batches = _plan_round(spec.cells(), 2)
        assert tasks == [[0], [1], [2], [3]]
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store, max_workers=1).run().completed == 4
        trace = get("gcc").trace(3000)
        for cell in spec.cells():
            hybrid = HybridGDiffPredictor(order=cell.params["order"],
                                          entries=cell.params["entries"])
            direct = run_value_prediction(trace, {"hgvq": hybrid},
                                          gated=gated)["hgvq"].as_dict()
            record = store.load_cell(cell.cell_id)
            assert record["result"]["stats"]["hgvq"] == direct, cell.label

    def test_lone_sibling_runs_alone(self, tmp_path, monkeypatch):
        """``--stop-after`` splits a sibling pair: each half runs by
        itself, gated or not as its config says, and its record equals
        the direct run."""
        runs = _count_runs(monkeypatch)
        doc = json.loads(json.dumps(SIBLING_GRID))
        doc["matrix"]["bench"] = ["gcc"]
        spec = CampaignSpec.from_dict(doc)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        first = scheduler(spec, store, max_workers=1, stop_after=3).run()
        assert first.completed == 3 and first.stopped_early
        # The stride pair shares one gated run; gdiff's ungated half runs
        # alone.
        assert runs == [True, False]
        lone = spec.cells()[3]
        assert (lone.params["predictor"], lone.params["gated"]) == (
            "gdiff", True)
        assert not store.is_done(lone.cell_id)

        resumed = CampaignStore(tmp_path / "c")
        second = scheduler(resumed.open(), resumed, max_workers=1).run()
        assert second.skipped == 3 and second.completed == 1
        assert runs == [True, False, True]
        for cell in spec.cells():
            record = resumed.load_cell(cell.cell_id)
            assert (record["result"]["stats"][cell.params["predictor"]]
                    == _direct_stats(cell.params)), cell.label

    def test_crash_inside_batch_charges_only_its_cell(self, tmp_path):
        """One trace, four tasks in two batches of two; the stride cell
        kills its worker as the first task of its batch.  Its batch-mate
        runs elsewhere, uncharged, and only the stride cell is retried
        and quarantined."""
        spec = CampaignSpec.from_dict(PREDICT_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = scheduler(spec, store, registry=reg,
                            cell_worker=_crash_predictor_cell_worker).run()
        assert summary.completed == 3 and summary.quarantined == 1
        assert summary.crashes == 2  # one per attempt
        for cell in spec.cells():
            if cell.params["predictor"] == CRASH_PREDICTOR:
                quarantine = store.load_quarantine(cell.cell_id)
                assert "crashed" in quarantine["error"]
                assert quarantine["attempts"] == 2
            else:
                assert store.load_cell(cell.cell_id)["attempts"] == 1
        counters = reg.as_dict()["counters"]
        assert counters["campaign.pool.crash"] == 2
        assert counters.get("parallel.fallback", 0) == 0


@pytest.fixture
def no_publications():
    """Start and end with no shm publications or attachments."""
    shm.unpublish_all()
    shm.detach_all()
    memo_clear()
    yield
    shm.unpublish_all()
    shm.detach_all()
    memo_clear()


def _entry(key):
    """The disk-cache path of a warm-plan ``(bench, length, seed,
    code_copies)`` tuple."""
    bench, length, seed, copies = key
    return default_cache().entry_path(
        bench, length, get(bench).seed if seed is None else seed, copies)


class _TruncatingScheduler(CampaignScheduler):
    """Damages every trace entry right after the warm-up checked it."""

    def warm_cache(self, cells):
        warmed = super().warm_cache(cells)
        for key in self.warm_plan(cells):
            path = _entry(key)
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size // 2)
        return warmed


class TestTraceResidency:
    """The warm-up only checks traces on disk: the driver loads and
    publishes none, even one that two pool batches read."""

    @pytest.mark.parametrize("grid,traces", [(SWEEP_SHAPED_GRID, 3),
                                             (SHARED_TRACE_GRID, 1)],
                             ids=["sweep-shaped", "shared-trace"])
    def test_warm_disk_cache_is_only_checked(self, grid, traces,
                                             no_publications):
        spec = CampaignSpec.from_dict(grid)
        cells = spec.cells()
        scheduler(spec, None).warm_cache(cells)  # fill the disk cache
        reg = MetricsRegistry()
        assert scheduler(spec, None, registry=reg).warm_cache(cells) == traces
        assert not shm._PUBLISHED
        counters = reg.as_dict()["counters"]
        assert "shm.publish" not in counters
        assert counters["cache.hit"] == traces
        assert "cache.bytes_read" not in counters  # nothing was loaded

    def test_cold_cache_is_filled_on_disk(self, tmp_path, monkeypatch,
                                          no_publications):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        spec = CampaignSpec.from_dict(SWEEP_SHAPED_GRID)
        cells = spec.cells()
        reg = MetricsRegistry()
        sched = scheduler(spec, None, registry=reg)
        assert sched.warm_cache(cells) == 3
        assert all(_entry(key).exists() for key in sched.warm_plan(cells))
        counters = reg.as_dict()["counters"]
        assert counters["cache.store"] == 3
        assert "shm.publish" not in counters
        assert not shm._PUBLISHED

    def test_damaged_entry_is_regenerated_by_its_worker(
            self, tmp_path, monkeypatch, no_publications):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = CampaignSpec.from_dict(SWEEP_SHAPED_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = _TruncatingScheduler(
            spec, store, max_workers=2, registry=reg,
            retry=RetryPolicy(max_attempts=1)).run()
        assert summary.completed == 12
        for cell in spec.cells():
            record = store.load_cell(cell.cell_id)
            assert (record["result"]["stats"][cell.params["predictor"]]
                    == _direct_stats(cell.params)), cell.label
        # Each trace's one reader found its entry torn and regenerated it.
        assert reg.as_dict()["counters"]["cache.invalid"] == 3

    def test_unwritable_cache_generates_each_trace_once(
            self, tmp_path, monkeypatch, no_publications):
        """A trace the driver could not store would be generated again
        by its worker, so the driver generates none."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, so no cache root can be made below it")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        spec = CampaignSpec.from_dict(SWEEP_SHAPED_GRID)
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        reg = MetricsRegistry()
        summary = scheduler(spec, store, registry=reg, warm=True).run()
        assert summary.completed == 12
        for cell in spec.cells():
            record = store.load_cell(cell.cell_id)
            assert (record["result"]["stats"][cell.params["predictor"]]
                    == _direct_stats(cell.params)), cell.label
        # Driver and workers together: one generation per trace.
        assert reg.as_dict()["counters"]["cache.miss"] == 3

    def test_campaign_run_publishes_no_shared_trace(self, tmp_path):
        grid = tmp_path / "shared.json"
        grid.write_text(json.dumps(SHARED_TRACE_GRID))
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))

        def run(jobs):
            out = tmp_path / f"jobs{jobs}"
            subprocess.run(
                [sys.executable, "-m", "repro", "campaign", "run",
                 str(grid), "--dir", str(out), "--jobs", str(jobs),
                 "--no-progress", "--metrics-out", f"{out}.json"],
                env=env, check=True, capture_output=True)
            doc = json.loads(Path(f"{out}.json").read_text())
            records = {p.name: json.loads(p.read_text())["result"]
                       for p in (out / "cells").glob("*.json")}
            return doc["metrics"]["counters"], records

        counters, pooled = run(2)
        _counters, serial = run(1)
        assert counters["pool.batches"] == 2  # two readers of one trace
        assert "shm.publish" not in counters
        assert "shm.attach" not in counters
        assert len(pooled) == 8 and pooled == serial


# ---------------------------------------------------------------------------
# Shipped specs
# ---------------------------------------------------------------------------
SHIPPED = ["fig8", "fig10", "fig13", "fig16", "fig18", "fig19",
           "gdiff-grid", "mini"]
SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "campaigns"


class TestShippedSpecs:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_and_expands(self, name):
        spec = CampaignSpec.load(SPEC_DIR / f"{name}.toml")
        assert spec.cells()
        assert spec.grid_sha()

    def test_gdiff_grid_exclude_applied(self):
        spec = CampaignSpec.load(SPEC_DIR / "gdiff-grid.toml")
        cells = spec.cells()
        assert len(cells) == 12  # 16 - excluded (order=32, delay=4) corner
        assert not any(c.params["order"] == 32 and c.params["delay"] == 4
                       for c in cells)
        # the mcf override bumped 2048 -> 4096
        assert not any(c.params["bench"] == "mcf"
                       and c.params["entries"] == 2048 for c in cells)

    def test_shipped_fig8_matches_direct_run(self, tmp_path):
        """Acceptance: `repro campaign run` on the shipped fig8 spec (cut
        down via --set to stay fast) produces the same stats as calling
        the harness directly."""
        spec = CampaignSpec.load(SPEC_DIR / "fig8.toml")
        spec.apply_sets({"length": 6000, "benchmarks": ["gcc", "mcf"]})
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store).run().completed == 1
        direct = run_experiment("fig8", length=6000,
                                benchmarks=["gcc", "mcf"])
        cell = spec.cells()[0]
        stored = store.load_cell(cell.cell_id)
        assert stored["result"]["experiment"] == direct.as_dict()

    def test_shipped_fig19_round_trip(self, tmp_path):
        """The fig19 speedup grid runs both queue depths through the
        store and matches a direct harness call cell-for-cell.  The
        H_mean row carries a NaN baseline_ipc, so equality is checked
        NaN-tolerantly (NaN == NaN after the JSON round-trip)."""
        def nan_eq(a, b):
            if isinstance(a, float) and isinstance(b, float):
                return a == b or (a != a and b != b)
            if isinstance(a, dict) and isinstance(b, dict):
                return (a.keys() == b.keys()
                        and all(nan_eq(a[k], b[k]) for k in a))
            if isinstance(a, list) and isinstance(b, list):
                return (len(a) == len(b)
                        and all(nan_eq(x, y) for x, y in zip(a, b)))
            return a == b

        spec = CampaignSpec.load(SPEC_DIR / "fig19.toml")
        spec.apply_sets({"length": 6000, "benchmarks": ["gcc", "mcf"]})
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        assert scheduler(spec, store).run().completed == 2
        for cell in spec.cells():
            direct = run_experiment("fig19", length=6000,
                                    benchmarks=["gcc", "mcf"],
                                    order=cell.params["order"])
            stored = store.load_cell(cell.cell_id)
            assert nan_eq(stored["result"]["experiment"],
                          direct.as_dict())


# ---------------------------------------------------------------------------
# Fidelity gate and reports
# ---------------------------------------------------------------------------
def run_mini(tmp_path, cell_worker=_cell_worker, **spec_extra):
    spec = mini_spec(**spec_extra)
    store = CampaignStore(tmp_path / "c")
    store.create(spec)
    scheduler(spec, store, cell_worker=cell_worker).run()
    return spec, store


class TestFidelity:
    def test_pass_and_fail(self, tmp_path):
        spec, store = run_mini(tmp_path, fidelity=[
            {"label": "sane", "where": {"length": 6000,
                                        "benchmarks": ["gcc"]},
             "row": "gcc", "column": "gdiff8", "target": 0.68,
             "tol": 0.10},
            {"label": "absurd", "where": {"length": 6000,
                                          "benchmarks": ["gcc"]},
             "row": "gcc", "column": "gdiff8", "target": 0.99,
             "tol": 0.01},
        ])
        checks = check_fidelity(spec, store)
        assert [c.ok for c in checks] == [True, False]
        assert checks[0].actual == checks[1].actual is not None

    def test_missing_cell_fails_not_passes(self, tmp_path):
        spec = mini_spec(fidelity=[
            {"label": "ghost", "where": {"length": 12345},
             "row": "gcc", "column": "gdiff8", "target": 0.5, "tol": 0.5}])
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        checks = check_fidelity(spec, store)
        assert not checks[0].ok and "no cell" in checks[0].error

    def test_incomplete_cell_fails(self, tmp_path):
        spec = mini_spec(fidelity=[
            {"label": "later", "where": {"length": 4000,
                                         "benchmarks": ["gcc"]},
             "row": "gcc", "column": "gdiff8", "target": 0.5, "tol": 0.5}])
        store = CampaignStore(tmp_path / "c")
        store.create(spec)  # nothing executed
        checks = check_fidelity(spec, store)
        assert not checks[0].ok and "not completed" in checks[0].error

    def test_ambiguous_where_fails(self, tmp_path):
        spec, store = run_mini(tmp_path, fidelity=[
            {"label": "vague", "where": {"experiment": "fig8"},
             "row": "gcc", "column": "gdiff8", "target": 0.5, "tol": 0.5}])
        checks = check_fidelity(spec, store)
        assert not checks[0].ok and "ambiguous" in checks[0].error

    def test_missing_column_fails(self, tmp_path):
        spec, store = run_mini(tmp_path, fidelity=[
            {"label": "typo", "where": {"length": 4000,
                                        "benchmarks": ["gcc"]},
             "row": "gcc", "column": "gdiff99", "target": 0.5,
             "tol": 0.5}])
        checks = check_fidelity(spec, store)
        assert not checks[0].ok and "not found" in checks[0].error


class TestReport:
    def test_report_reproduces_direct_table(self, tmp_path):
        """Acceptance: the stored table re-renders byte-identically to the
        live harness output."""
        spec, store = run_mini(tmp_path)
        tables = report_tables(spec, store)
        assert len(tables) == 4
        for cell, table in zip(spec.cells(), tables):
            kwargs = {k: v for k, v in cell.params.items()
                      if k != "experiment"}
            direct = run_experiment("fig8", **kwargs)
            assert table.render() == direct.render()

    def test_report_from_bare_directory(self, tmp_path):
        """status/report need nothing but the campaign directory."""
        _spec, store = run_mini(tmp_path)
        fresh = CampaignStore(store.root)
        snap_spec = fresh.open()  # no spec file involved
        text = render_report(snap_spec, fresh)
        assert "4 done, 0 pending, 0 quarantined" in text
        assert text.count("== fig8") == 4

    def test_quarantine_section_rendered(self, tmp_path):
        spec, store = run_mini(
            tmp_path, cell_worker=_raise_marked_cell_worker,
            matrix={"length": [4000, RAISE_LENGTH],
                    "benchmarks": [["gcc"]]})
        text = render_report(spec, store)
        assert "quarantined cells" in text
        assert "ValueError" in text
