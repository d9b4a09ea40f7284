"""Tests for the telemetry subsystem: metrics, events, manifests, progress.

The metric *names* asserted here are part of the public contract listed in
``docs/TELEMETRY.md`` — if a name changes, both the table and these tests
must change with it.
"""

import io
import json
import logging
import os
import subprocess

import pytest

from repro.harness import run_value_prediction
from repro.harness.report import ExperimentResult, fmt
from repro.pipeline import HGVQAdapter, OutOfOrderCore, SGVQAdapter
from repro.predictors import StridePredictor
from repro.telemetry import (
    EventRecorder,
    MetricsRegistry,
    ProgressPrinter,
    RunManifest,
    get_logger,
    git_revision,
    verbosity_to_level,
)
from repro.telemetry import manifest as manifest_module
from repro.trace import ialu
from repro.trace.workloads import get as get_workload


def stride_trace(n=50):
    return [ialu(0x10, 1, i * 4) for i in range(n)]


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(4)
        assert reg.counter("a.b").value == 5

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(0.25)
        assert reg.gauge("g").value == 0.25

    def test_histogram_identity_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("dist")
        for v in (1, 1, 2, 7):
            h.observe(v)
        assert h.buckets == {1: 2, 2: 1, 7: 1}
        assert h.count == 4
        assert h.mean == pytest.approx(11 / 4)

    def test_histogram_bucket_width_quantises(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bucket_width=10)
        h.observe(3)
        h.observe(17)
        h.observe(19)
        assert h.buckets == {0: 1, 10: 2}

    def test_histogram_merge_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("occ")
        h.merge_counts({0: 3, 5: 2})
        h.merge_counts({5: 1})
        assert h.buckets == {0: 3, 5: 3}
        assert h.count == 6

    def test_series_appends(self):
        reg = MetricsRegistry()
        reg.series_of("acc").append(0.5)
        reg.series_of("acc").append(0.75)
        assert reg.series_of("acc").points == [0.5, 0.75]

    def test_collector_runs_at_export(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.add_collector(lambda r: r.gauge("late").set(state["n"]))
        state["n"] = 42
        assert reg.as_dict()["gauges"]["late"] == 42


class TestTimers:
    def test_timer_records_phase(self):
        reg = MetricsRegistry()
        with reg.timer("trace_gen"):
            pass
        phase = reg.phase("trace_gen")
        assert phase.calls == 1
        assert phase.wall_s >= 0.0

    def test_nested_timers_use_qualified_names(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            with reg.timer("inner"):
                pass
        assert set(reg.phases) == {"outer", "outer/inner"}

    def test_timer_stack_unwinds(self):
        reg = MetricsRegistry()
        with reg.timer("a"):
            pass
        with reg.timer("b"):
            pass
        assert set(reg.phases) == {"a", "b"}

    def test_items_give_throughput(self):
        reg = MetricsRegistry()
        with reg.timer("sim") as span:
            span.items = 1000
        phase = reg.phase("sim")
        assert phase.items == 1000
        assert phase.items_per_s is None or phase.items_per_s > 0

    def test_repeated_phase_accumulates(self):
        reg = MetricsRegistry()
        for _ in range(3):
            with reg.timer("step"):
                pass
        assert reg.phase("step").calls == 3


class TestJsonRoundTrip:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c.one").inc(7)
        reg.gauge("g.acc").set(0.875)
        reg.histogram("h.dist").merge_counts({1: 4, 3: 2})
        reg.series_of("s.win").append(0.5)
        with reg.timer("phase") as span:
            span.items = 10
        return reg

    def test_round_trip_exports_identically(self):
        reg = self._populated()
        doc = json.loads(json.dumps(reg.as_dict()))
        restored = MetricsRegistry.from_dict(doc)
        again = restored.as_dict()
        assert again["counters"] == doc["counters"]
        assert again["gauges"] == doc["gauges"]
        assert again["series"] == doc["series"]
        # Bucket keys survive the str() imposed by JSON object keys.
        assert again["histograms"]["h.dist"]["buckets"] == {"1": 4, "3": 2}
        assert restored.histogram("h.dist").buckets == {1: 4, 3: 2}
        assert again["phases"]["phase"]["items"] == 10

    def test_export_is_json_serialisable(self):
        json.dumps(self._populated().as_dict())


class TestEventRecorder:
    def test_records_everything_at_rate_one(self):
        rec = EventRecorder(capacity=16, sample_rate=1.0)
        for i in range(10):
            rec.record({"i": i})
        assert rec.offered == rec.recorded == 10
        assert [e["i"] for e in rec.events()] == list(range(10))

    def test_ring_keeps_most_recent(self):
        rec = EventRecorder(capacity=4, sample_rate=1.0)
        for i in range(10):
            rec.record({"i": i})
        assert len(rec) == 4
        assert [e["i"] for e in rec.events()] == [6, 7, 8, 9]

    def test_sampling_is_deterministic_under_seed(self):
        def kept(seed):
            rec = EventRecorder(sample_rate=0.3, seed=seed)
            return [i for i in range(200) if rec.record({"i": i})]

        assert kept(7) == kept(7)
        assert kept(7) != kept(8)

    def test_zero_rate_counts_offers_only(self):
        rec = EventRecorder(sample_rate=0.0)
        for i in range(5):
            rec.record({"i": i})
        assert rec.offered == 5
        assert rec.recorded == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EventRecorder(capacity=0)
        with pytest.raises(ValueError):
            EventRecorder(sample_rate=1.5)

    def test_write_ndjson(self, tmp_path):
        rec = EventRecorder()
        rec.record({"pc": 16, "correct": True})
        path = tmp_path / "events.ndjson"
        assert rec.write(str(path)) == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"pc": 16, "correct": True}

    def test_summary_fields(self):
        rec = EventRecorder(capacity=8, sample_rate=0.5, seed=3)
        summary = rec.summary()
        assert summary["capacity"] == 8
        assert summary["sample_rate"] == 0.5
        assert summary["seed"] == 3


class TestRunManifest:
    def test_document_shape(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with reg.timer("phase"):
            pass
        manifest = RunManifest("simulate", {"bench": "gzip", "length": 100})
        manifest.add("predictors", {"hgvq": {"accuracy": 0.8}})
        doc = manifest.as_dict(reg)
        for key in ("schema", "command", "args", "git_sha", "python",
                    "started_at", "finished_at", "duration_s",
                    "phases", "metrics", "predictors"):
            assert key in doc, key
        assert doc["command"] == "simulate"
        assert doc["args"]["bench"] == "gzip"
        assert doc["metrics"]["counters"]["x"] == 1
        assert "phase" in doc["phases"]
        # Phases live at the top level, not duplicated under metrics.
        assert "phases" not in doc["metrics"]

    def test_json_round_trips(self):
        manifest = RunManifest("predict", {"length": 10})
        doc = json.loads(manifest.to_json())
        assert doc["schema"] == 1

    def test_dash_writes_to_stream(self):
        buf = io.StringIO()
        RunManifest("trace", {}).write("-", stream=buf)
        assert json.loads(buf.getvalue())["command"] == "trace"

    def test_run_id_deterministic(self):
        """The run id is a content hash of (command, args): the same
        resolved configuration always maps to the same id, across
        processes and reruns, so stores can deduplicate manifests."""
        a = RunManifest("predict", {"bench": "gcc", "length": 10})
        b = RunManifest("predict", {"length": 10, "bench": "gcc"})
        assert a.run_id == b.run_id  # key order is irrelevant
        assert len(a.run_id) == 16
        assert a.run_id != RunManifest("predict", {"bench": "gcc",
                                                   "length": 11}).run_id
        assert a.run_id != RunManifest("simulate", {"bench": "gcc",
                                                    "length": 10}).run_id

    def test_run_id_in_document(self):
        manifest = RunManifest("trace", {"x": 1})
        doc = json.loads(manifest.to_json())
        assert doc["run_id"] == manifest.run_id

    def test_document_records_peak_rss(self):
        if manifest_module.resource is None:
            pytest.skip("no resource module on this platform")
        doc = json.loads(RunManifest("trace", {}).to_json())
        assert type(doc["peak_rss_kib"]) is int and doc["peak_rss_kib"] > 0

    def test_git_revision_spawns_git_once_per_process(self, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, stdout="abc123\n",
                                               stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        manifest_module._git_revision_of.cache_clear()
        try:
            assert git_revision() == "abc123"
            assert git_revision(os.getcwd()) == "abc123"
            assert RunManifest("trace", {}).git_sha == "abc123"
            assert RunManifest("predict", {"x": 1}).git_sha == "abc123"
            assert len(calls) == 1
        finally:
            manifest_module._git_revision_of.cache_clear()


class TestProgressPrinter:
    def test_silent_when_not_a_tty(self):
        buf = io.StringIO()  # no isatty → disabled
        progress = ProgressPrinter("run: ", stream=buf)
        progress(500, 1000)
        progress.close()
        assert buf.getvalue() == ""

    def test_paints_and_erases_when_enabled(self):
        buf = io.StringIO()
        progress = ProgressPrinter("run: ", stream=buf, enabled=True,
                                   min_interval=0.0)
        progress(500, 1000)
        assert "run: 500/1,000 (50%)" in buf.getvalue()
        progress.close()
        assert buf.getvalue().endswith("\r" + " " * len("run: 500/1,000 (50%)") + "\r")

    def test_total_unknown(self):
        buf = io.StringIO()
        progress = ProgressPrinter(stream=buf, enabled=True, min_interval=0.0)
        progress(123, None)
        assert "123" in buf.getvalue()


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(9) == logging.DEBUG

    def test_get_logger_qualifies_names(self):
        assert get_logger("harness").name == "repro.harness"
        assert get_logger("repro.cli").name == "repro.cli"


class TestRunnerTelemetry:
    def test_windowed_accuracy_series(self):
        reg = MetricsRegistry()
        run_value_prediction(
            stride_trace(100), {"s": StridePredictor(entries=None)},
            metrics=reg, window=25)
        points = reg.series_of("harness.window_accuracy.s").points
        assert len(points) == 4
        assert points[-1] > 0.9  # stride stream is learned by the tail
        assert reg.counter("harness.value_instructions").value == 100

    def test_confidence_transitions_counted_when_gated(self):
        reg = MetricsRegistry()
        run_value_prediction(
            stride_trace(100), {"s": StridePredictor(entries=None)},
            gated=True, metrics=reg, window=50)
        gained = reg.counter("harness.confidence_gained.s").value
        assert gained >= 1  # a perfectly-striding PC must cross threshold
        assert reg.series_of("harness.window_coverage.s").points

    def test_events_carry_prediction_fields(self):
        rec = EventRecorder(sample_rate=1.0)
        run_value_prediction(
            stride_trace(20), {"s": StridePredictor(entries=None)},
            events=rec)
        assert rec.offered == 20
        event = rec.events()[-1]
        for key in ("pc", "predictor", "predicted", "actual",
                    "correct", "confident", "distance"):
            assert key in event, key

    def test_progress_callback_fires(self):
        calls = []
        run_value_prediction(
            stride_trace(100), {"s": StridePredictor(entries=None)},
            on_progress=lambda done, total: calls.append((done, total)),
            progress_every=40)
        assert calls[-1] == (100, 100)
        assert len(calls) >= 2


class TestPipelineTelemetry:
    def _run(self, adapter, length=3000):
        reg = MetricsRegistry()
        adapter.attach_metrics(reg)
        core = OutOfOrderCore(value_predictor=adapter, metrics=reg)
        result = core.run(get_workload("gzip").trace(length))
        return reg, reg.as_dict(), result

    def test_ooo_counters_match_sim_result(self):
        reg, doc, result = self._run(HGVQAdapter(order=16, entries=1024))
        counters = doc["counters"]
        assert counters["ooo.cycles"] == result.cycles
        assert counters["ooo.retired"] == result.retired
        assert counters["ooo.branches"] == result.branches
        assert doc["gauges"]["ooo.ipc"] == pytest.approx(result.ipc)

    def test_rob_occupancy_covers_every_cycle(self):
        reg, doc, result = self._run(HGVQAdapter(order=16, entries=1024))
        hist = doc["histograms"]["ooo.rob_occupancy"]
        assert hist["count"] == result.cycles

    def test_stall_reasons_emitted(self):
        reg, doc, _ = self._run(HGVQAdapter(order=16, entries=1024))
        stall_names = [n for n in doc["counters"] if n.startswith("ooo.stall.")]
        assert stall_names  # a realistic trace always stalls somewhere
        known = {
            "retire_empty_window", "retire_head_executing",
            "retire_head_waiting", "issue_dependencies",
            "issue_dcache_ports", "dispatch_rob_full",
            "dispatch_fetch_starved", "fetch_branch_resolve",
            "fetch_redirect_or_icache", "fetch_queue_full",
        }
        assert {n.split("ooo.stall.")[1] for n in stall_names} <= known

    def test_distance_match_histogram_published(self):
        reg, doc, _ = self._run(HGVQAdapter(order=16, entries=1024))
        hist = doc["histograms"]["gdiff.hgvq.distance_match"]
        assert hist["count"] > 0
        assert all(1 <= int(k) <= 16 for k in hist["buckets"])

    def test_sgvq_metrics_use_sgvq_prefix(self):
        reg, doc, _ = self._run(SGVQAdapter(order=16, entries=1024))
        assert "gdiff.sgvq.distance_match" in doc["histograms"]
        assert "gdiff.sgvq.queue_pushes" in doc["counters"]

    def test_vp_gauges_published(self):
        adapter = HGVQAdapter(order=16, entries=1024)
        reg, doc, _ = self._run(adapter)
        prefix = f"vp.{adapter.name}"
        assert 0.0 <= doc["gauges"][f"{prefix}.accuracy"] <= 1.0
        assert doc["counters"][f"{prefix}.attempts"] == adapter.stats.attempts

    def test_detached_core_publishes_nothing(self):
        core = OutOfOrderCore(value_predictor=HGVQAdapter(order=16,
                                                          entries=1024))
        core.run(get_workload("gzip").trace(1000))  # must not raise

    def test_pipeline_events_include_distance(self):
        rec = EventRecorder(sample_rate=1.0)
        adapter = HGVQAdapter(order=16, entries=1024)
        adapter.attach_events(rec)
        OutOfOrderCore(value_predictor=adapter).run(
            get_workload("gzip").trace(2000))
        assert rec.recorded > 0
        distances = [e["distance"] for e in rec.events()
                     if e["distance"] is not None]
        assert distances  # some completions must have matched the table

    def test_ooo_progress_callback(self):
        calls = []
        core = OutOfOrderCore(value_predictor=None)
        core.run(get_workload("gzip").trace(2000),
                 on_progress=lambda d, t: calls.append((d, t)),
                 progress_every=500)
        assert calls[-1][0] == 2000
        assert calls[-1][1] == 2000


class TestReportKinds:
    def test_explicit_rate_kind(self):
        assert fmt(0.5, kind="rate") == "50.0%"

    def test_explicit_plain_kind_beats_heuristic(self):
        # 1.2 falls in the heuristic's percent range; "plain" overrides.
        assert fmt(1.2, kind="plain") == "1.20"

    def test_heuristic_fallback_unchanged(self):
        assert fmt(0.5) == "50.0%"
        assert fmt(1.2, column="ipc") == "1.20"

    def test_result_renders_by_declared_kind(self):
        result = ExperimentResult(
            name="t", title="t", columns=["bench", "ratio"],
            kinds={"ratio": "plain"})
        result.add_row("gzip", 0.9)
        assert "0.90" in result.render()
        assert "%" not in result.render()

    def test_set_kind_validates(self):
        result = ExperimentResult(name="t", title="t", columns=["a"])
        with pytest.raises(ValueError):
            result.set_kind("percentage", "a")

    def test_invalid_kind_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ExperimentResult(name="t", title="t", columns=["a"],
                             kinds={"a": "nope"})

    def test_as_dict_carries_kinds(self):
        result = ExperimentResult(name="t", title="t", columns=["a"],
                                  kinds={"a": "rate"})
        assert result.as_dict()["kinds"] == {"a": "rate"}


class TestDocContract:
    """Every metric name the code emits must appear in docs/TELEMETRY.md."""

    @staticmethod
    def _doc():
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        return (root / "docs" / "TELEMETRY.md").read_text()

    @staticmethod
    def _documented(name, doc):
        if f"`{name}`" in doc:
            return True
        candidates = []
        if name.startswith("harness."):
            head, _, _pred = name.rpartition(".")
            candidates.append(f"{head}.<pred>")
        if name.startswith("gdiff.") and name.count(".") >= 2:
            suffix = name.split(".", 2)[2]
            candidates.append(f"<prefix>.{suffix}")
        if name.startswith("vp."):
            suffix = name.rsplit(".", 1)[1]
            candidates.append(f"vp.<name>.{suffix}")
        if name.startswith("ooo.stall."):
            candidates.append(name.split("ooo.stall.", 1)[1])
        return any(f"`{c}`" in doc for c in candidates)

    def _emitted_names(self):
        reg = MetricsRegistry()
        adapter = HGVQAdapter(order=16, entries=1024)
        adapter.attach_metrics(reg)
        OutOfOrderCore(value_predictor=adapter, metrics=reg).run(
            get_workload("gzip").trace(4000))
        sgvq = SGVQAdapter(order=16, entries=1024)
        sgvq.attach_metrics(reg)
        OutOfOrderCore(value_predictor=sgvq, metrics=reg).run(
            get_workload("gzip").trace(1000))
        run_value_prediction(
            stride_trace(60), {"s": StridePredictor(entries=None)},
            gated=True, metrics=reg, window=20)
        doc_dict = reg.as_dict()
        return (list(doc_dict["counters"]) + list(doc_dict["gauges"])
                + list(doc_dict["histograms"]) + list(doc_dict["series"]))

    def test_every_emitted_name_is_documented(self):
        doc = self._doc()
        missing = [n for n in self._emitted_names()
                   if not self._documented(n, doc)]
        assert not missing, f"undocumented metrics: {missing}"

    def test_documented_stall_reasons_match_code(self):
        doc = self._doc()
        for reason in ("retire_empty_window", "retire_head_executing",
                       "retire_head_waiting", "issue_dependencies",
                       "issue_dcache_ports", "dispatch_rob_full",
                       "dispatch_fetch_starved", "fetch_branch_resolve",
                       "fetch_redirect_or_icache", "fetch_queue_full"):
            assert f"`{reason}`" in doc, reason
