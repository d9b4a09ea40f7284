"""Per-cell campaign telemetry: stored records, live views, span trees.

Everything asserted here reads the *store* (or the driver registry) — the
telemetry contract is that throughput, retry, cache, and span data
survive in the durable records so the live views (``status --watch``,
``report --telemetry``) work long after the run, from the directory
alone.
"""

import json

import pytest

from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CampaignStore,
    RetryPolicy,
    status_lines,
    telemetry_lines,
    watch_lines,
)
from repro.telemetry import MetricsRegistry
from repro.trace.workloads import BENCHMARKS
from tests.test_campaign import RAISE_LENGTH, _raise_marked_cell_worker

PREDICT = {
    "campaign": {"name": "tele", "description": "telemetry grid"},
    "defaults": {"kind": "predict", "predictor": "gdiff", "order": 8,
                 "length": 3000},
    "matrix": {"bench": ["gcc", "mcf"]},
}


def predict_spec(**extra):
    doc = json.loads(json.dumps(PREDICT))
    doc.update(extra)
    return CampaignSpec.from_dict(doc)


def run_campaign(tmp_path, spec, registry=None, max_workers=1, warm=True):
    store = CampaignStore(tmp_path / "c")
    store.create(spec)
    summary = CampaignScheduler(
        spec, store, max_workers=max_workers, registry=registry, warm=warm,
        retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        cell_worker=_raise_marked_cell_worker).run()
    return store, summary


class TestStoredTelemetry:
    def test_predict_cell_records_throughput_and_cache(self, tmp_path):
        spec = predict_spec()
        store, summary = run_campaign(tmp_path, spec)
        assert summary.completed == 2
        for cell in spec.cells():
            telemetry = store.summary(cell.cell_id)["telemetry"]
            assert telemetry["duration_s"] > 0
            assert telemetry["cpu_s"] >= 0
            assert telemetry["events"] == 3000
            assert telemetry["events_per_s"] == pytest.approx(
                3000 / telemetry["duration_s"], rel=0.01)
            # The up-front warm generated the trace; the cell then hit.
            assert telemetry["cache_hits"] == 1
            assert telemetry["cache_misses"] == 0

    def test_experiment_cell_records_trace_reads(self, tmp_path):
        """An experiment cell counts the trace tiers it read through and,
        as its events, the instructions of every trace it read."""
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "tele-exp"},
            "defaults": {"kind": "experiment", "length": 2000},
            "matrix": {"experiment": ["fig8", "fig12"]},
        })
        store, summary = run_campaign(tmp_path, spec)
        assert summary.completed == 2
        # fig8 reads every suite benchmark, fig12 vortex alone.
        read = {"fig8": len(BENCHMARKS) * 2000, "fig12": 2000}
        for cell in spec.cells():
            telemetry = store.summary(cell.cell_id)["telemetry"]
            assert telemetry["events"] == read[cell.params["experiment"]]
            # The warm-up stored every trace; the cell then hit.
            assert telemetry["cache_hits"] >= 1
            assert telemetry["cache_misses"] == 0

    def test_telemetry_survives_store_reopen(self, tmp_path):
        spec = predict_spec()
        run_campaign(tmp_path, spec)
        reopened = CampaignStore(tmp_path / "c")
        reopened.open()
        cell = spec.cells()[0]
        assert reopened.summary(cell.cell_id)["telemetry"]["events"] == 3000
        # Telemetry also lives in the full record (index is only a cache).
        assert reopened.load_cell(cell.cell_id)["telemetry"]["events"] == 3000

    def test_cell_manifest_covers_the_cell(self, tmp_path):
        spec = predict_spec()
        store, _summary = run_campaign(tmp_path, spec, max_workers=2)
        for cell in spec.cells():
            record = store.load_cell(cell.cell_id)
            path = store.manifests_dir / f"{record['manifest_run_id']}.json"
            manifest = json.loads(path.read_text())
            assert manifest["duration_s"] >= record["duration_s"]

    def test_driver_histogram_observes_cell_durations(self, tmp_path):
        registry = MetricsRegistry()
        _store, summary = run_campaign(tmp_path, predict_spec(),
                                       registry=registry)
        hist = registry.histograms["campaign.cell_seconds"]
        assert hist.count == summary.completed == 2

    def test_quarantined_record_names_broken_frame(self, tmp_path):
        spec = predict_spec(matrix={"bench": ["gcc"],
                                    "length": [3000, RAISE_LENGTH]})
        store, summary = run_campaign(tmp_path, spec)
        assert summary.completed == 1 and summary.quarantined == 1
        bad = next(c for c in spec.cells()
                   if c.params["length"] == RAISE_LENGTH)
        summary_row = store.summary(bad.cell_id)
        assert summary_row["status"] == "quarantined"
        assert summary_row["traceback_frame"].startswith('File "')


class TestLiveViews:
    def test_status_shows_events_per_s_and_frames(self, tmp_path):
        spec = predict_spec(matrix={"bench": ["gcc"],
                                    "length": [3000, RAISE_LENGTH]})
        store, _summary = run_campaign(tmp_path, spec)
        text = "\n".join(status_lines(spec, store))
        assert "ev/s" in text
        assert '! ' in text and 'File "' in text

    def test_watch_frame_complete_campaign(self, tmp_path):
        spec = predict_spec()
        store, _summary = run_campaign(tmp_path, spec)
        lines = watch_lines(spec, store)
        assert lines[0].endswith("2/2")
        assert "#" * 30 in lines[0]
        assert "done 2  running/pending 0  quarantined 0" in lines[1]
        assert any("throughput" in line and "ev/s" in line
                   for line in lines)
        assert not any("eta" in line for line in lines)

    def test_watch_frame_partial_campaign_has_eta(self, tmp_path):
        spec = predict_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        CampaignScheduler(spec, store, max_workers=1,
                          stop_after=1, warm=False).run()
        lines = watch_lines(spec, store)
        assert lines[0].endswith("1/2")
        assert any("eta ~" in line and "serial estimate" in line
                   for line in lines)

    def test_telemetry_report_sections(self, tmp_path):
        spec = predict_spec(matrix={"bench": ["gcc"],
                                    "length": [3000, RAISE_LENGTH]})
        store, _summary = run_campaign(tmp_path, spec)
        text = "\n".join(telemetry_lines(spec, store))
        assert "slowest 1 cells:" in text
        assert "ev/s" in text
        assert "trace cache: 1 hits / 0 misses (100% hit rate)" in text
        assert "QUARANTINED after 2 attempt(s)" in text

    def test_telemetry_report_empty_store(self, tmp_path):
        spec = predict_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        text = "\n".join(telemetry_lines(spec, store))
        assert "retries and quarantine: none" in text

    def test_store_refresh_sees_other_writers(self, tmp_path):
        """The watch loop polls via refresh(): a second handle must see
        cells a first handle completed after the second one opened."""
        spec = predict_spec()
        store = CampaignStore(tmp_path / "c")
        store.create(spec)
        watcher = CampaignStore(tmp_path / "c")
        watcher.open()
        assert watcher.counts().get("done", 0) == 0
        CampaignScheduler(spec, store, max_workers=1, warm=False).run()
        watcher.refresh()
        assert watcher.counts()["done"] == 2


class TestCampaignSpans:
    def test_cells_record_spans_under_driver_root(self, tmp_path):
        registry = MetricsRegistry()
        tracker = registry.enable_spans()
        root = tracker.begin("campaign")
        _store, summary = run_campaign(tmp_path, predict_spec(),
                                       registry=registry, max_workers=2,
                                       warm=False)
        tracker.end(root)
        assert summary.completed == 2
        spans = registry.span_tracker.spans
        cell_spans = [s for s in spans if s.name == "cell"]
        predict_spans = [s for s in spans if s.name == "predict"]
        assert len(cell_spans) == 2 and len(predict_spans) == 2
        cell_ids = {s.span_id for s in cell_spans}
        for span in cell_spans:
            assert span.parent_id == root.span_id
        for span in predict_spans:
            assert span.parent_id in cell_ids
            assert span.args == {"items": 3000}

    def test_no_spans_without_driver_tracker(self, tmp_path):
        registry = MetricsRegistry()
        run_campaign(tmp_path, predict_spec(), registry=registry,
                     warm=False)
        assert registry.span_tracker is None
