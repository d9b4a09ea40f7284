"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import PIPELINE_SCHEMES, PREDICTORS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "fig8", "--length", "5000", "--bench", "mcf"])
        assert args.experiment == "fig8"
        assert args.length == 5000

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "soplex"])

    #: Every command taking a trace length or code-copy count.
    TRACE_SHAPE_ARGS = [
        ["run", "fig8", "--length"],
        ["trace", "gen", "gcc", "--length"],
        ["workloads", "--length"],
        ["predict", "gcc", "--length"],
        ["simulate", "gcc", "--length"],
        ["run-all", "--length"],
        ["cache", "warm", "--length"],
        ["cache", "warm", "--code-copies"],
    ]

    @pytest.mark.parametrize("argv", TRACE_SHAPE_ARGS,
                             ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_rejects_non_positive_trace_shape(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", TRACE_SHAPE_ARGS,
                             ids=lambda argv: " ".join(argv))
    def test_accepts_positive_trace_shape(self, argv):
        args = build_parser().parse_args(argv + ["1"])
        assert 1 in (args.length, getattr(args, "code_copies", None))

    #: Every command taking a worker count.
    JOBS_ARGS = [
        ["run-all", "--jobs"],
        ["campaign", "run", "spec.toml", "--jobs"],
        ["campaign", "resume", "camp", "--jobs"],
    ]

    @pytest.mark.parametrize("argv", JOBS_ARGS,
                             ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_non_positive_jobs(self, argv, value, capsys):
        # A count below 1 used to run serially while the log said "auto".
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", JOBS_ARGS,
                             ids=lambda argv: " ".join(argv))
    def test_accepts_positive_jobs(self, argv):
        assert build_parser().parse_args(argv + ["1"]).jobs == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "fig16" in out and "gdiff8" in out

    def test_predict(self, capsys):
        assert main(["predict", "gzip", "--length", "8000",
                     "--predictors", "stride,gdiff8"]) == 0
        out = capsys.readouterr().out
        assert "stride" in out and "gdiff8" in out and "%" in out

    def test_predict_gated(self, capsys):
        assert main(["predict", "gzip", "--length", "8000",
                     "--predictors", "stride", "--gated"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_predict_unknown_predictor(self):
        with pytest.raises(SystemExit):
            main(["predict", "gzip", "--predictors", "oracle"])

    def test_run_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "fig8.txt"
        assert main(["run", "fig8", "--length", "8000",
                     "--bench", "gzip", "--out", str(out_file)]) == 0
        assert "fig8" in capsys.readouterr().out
        assert out_file.read_text().startswith("== fig8")

    def test_run_rejects_bad_bench(self):
        with pytest.raises(SystemExit):
            main(["run", "fig8", "--bench", "nope"])

    def test_trace_with_save(self, capsys, tmp_path):
        out_file = tmp_path / "t.trace.gz"
        assert main(["trace", "gzip", "--length", "2000",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        from repro.trace.io import load_trace

        assert len(load_trace(out_file)) == 2000

    def test_simulate(self, capsys):
        assert main(["simulate", "gzip", "--length", "6000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_simulate_with_vp(self, capsys):
        assert main(["simulate", "gzip", "--length", "6000",
                     "--vp", "hgvq", "--speculate"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "reissues" in out

    def test_simulate_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--vp", "oracle"])


class TestRegistries:
    def test_all_predictor_factories_construct(self):
        for name, factory in PREDICTORS.items():
            predictor = factory()
            assert predictor.predict(0x1000) is None or True

    def test_all_scheme_factories_construct(self):
        for name, factory in PIPELINE_SCHEMES.items():
            adapter = factory()
            assert hasattr(adapter, "on_dispatch")


class TestTelemetryFlags:
    def test_predict_writes_manifest(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        assert main(["predict", "gzip", "--length", "2000",
                     "--predictors", "stride,gdiff8",
                     "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("schema", "command", "args", "git_sha", "python",
                    "started_at", "finished_at", "duration_s",
                    "phases", "metrics", "predictors"):
            assert key in doc, key
        assert doc["command"] == "predict"
        assert doc["args"]["benchmark"] == "gzip"
        assert {"trace_gen", "predict"} <= set(doc["phases"])
        assert doc["phases"]["predict"]["items"] > 0
        assert {"stride", "gdiff8"} <= set(doc["predictors"])
        assert 0.0 <= doc["predictors"]["stride"]["raw_accuracy"] <= 1.0

    def test_simulate_manifest_has_acceptance_shape(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        assert main(["simulate", "gzip", "--length", "6000",
                     "--vp", "gdiff-hgvq",
                     "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # Per-phase wall time and throughput.
        sim = doc["phases"]["simulate"]
        assert sim["wall_s"] > 0 and sim["items_per_s"] > 0
        # Per-predictor accuracy/coverage.
        (pred_stats,) = doc["predictors"].values()
        assert {"accuracy", "coverage"} <= set(pred_stats)
        metrics = doc["metrics"]
        # GVQ distance-match histogram (Figure 7's measurement).
        assert metrics["histograms"]["gdiff.hgvq.distance_match"]["count"] > 0
        # OOO stall-reason counters.
        assert any(name.startswith("ooo.stall.")
                   for name in metrics["counters"])
        assert metrics["counters"]["ooo.cycles"] > 0

    def test_metrics_out_dash_streams_json_to_stdout(self, capsys):
        assert main(["run", "fig8", "--length", "5000", "--bench", "gzip",
                     "--metrics-out", "-"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON...
        assert doc["command"] == "run"
        assert doc["experiment"]["name"] == "fig8"
        assert "fig8" in captured.err  # ...and the table moved to stderr

    def test_trace_events_written_as_ndjson(self, capsys, tmp_path):
        path = tmp_path / "events.ndjson"
        assert main(["simulate", "gzip", "--length", "4000", "--vp", "hgvq",
                     "--trace-events", str(path),
                     "--trace-sample", "1.0"]) == 0
        lines = path.read_text().splitlines()
        assert lines
        event = json.loads(lines[0])
        for key in ("pc", "predictor", "predicted", "actual",
                    "correct", "confident", "distance"):
            assert key in event, key

    def test_trace_sampling_is_seeded(self, tmp_path, capsys):
        def run(seed, name):
            path = tmp_path / name
            main(["simulate", "gzip", "--length", "3000", "--vp", "hgvq",
                  "--trace-events", str(path), "--trace-sample", "0.2",
                  "--trace-seed", str(seed)])
            capsys.readouterr()
            return path.read_text()

        assert run(5, "a.ndjson") == run(5, "b.ndjson")

    def test_verbose_flag_accepted(self, capsys):
        assert main(["predict", "gzip", "--length", "1000",
                     "--predictors", "stride", "-v"]) == 0


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _private_cache(self, monkeypatch, tmp_path):
        # The session-wide cache fixture is shared (so experiment tests
        # reuse traces); cache-management tests need a pristine one.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_stats_on_empty_cache(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_warm_then_stats_then_clear(self, capsys):
        assert main(["cache", "warm", "--length", "2000",
                     "--bench", "gcc,mcf", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
        assert main(["cache", "warm", "--length", "2000",
                     "--bench", "gcc,mcf", "--no-progress"]) == 0
        assert "hit" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out and ".rpt" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_stats_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        assert main(["cache", "stats", "--metrics-out", str(manifest)]) == 0
        capsys.readouterr()
        data = json.loads(manifest.read_text())
        assert data["cache"]["entries"] == 0
        assert data["metrics"]["gauges"]["cache.entries"] == 0

    def test_warm_rejects_bad_bench(self):
        with pytest.raises(SystemExit):
            main(["cache", "warm", "--bench", "nope"])


class TestRunAllCommand:
    def test_subset_serial(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["run-all", "--experiments", "fig8",
                     "--length", "5000", "--bench", "gzip",
                     "--jobs", "1", "--out-dir", str(out_dir),
                     "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert (out_dir / "fig8.txt").exists()
        saved = json.loads((out_dir / "fig8.json").read_text())
        assert saved["name"] == "fig8"
        assert [row[0] for row in saved["rows"]] == ["gzip", "average"]

    def test_parallel_matches_serial(self, capsys, tmp_path):
        def run(jobs, out_dir):
            assert main(["run-all", "--experiments", "fig8",
                         "--length", "5000", "--bench", "gzip,twolf",
                         "--jobs", str(jobs), "--out-dir", str(out_dir),
                         "--no-progress"]) == 0
            capsys.readouterr()
            return json.loads((out_dir / "fig8.json").read_text())

        assert run(1, tmp_path / "serial") == run(2, tmp_path / "parallel")

    def test_manifest_records_every_experiment(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        assert main(["run-all", "--experiments", "fig8,fig10",
                     "--length", "5000", "--bench", "gzip", "--jobs", "2",
                     "--metrics-out", str(manifest),
                     "--no-progress"]) == 0
        capsys.readouterr()
        data = json.loads(manifest.read_text())
        assert sorted(data["experiments"]) == ["fig10", "fig8"]
        phases = data["phases"]
        assert phases["experiment.fig8"]["calls"] == 1
        assert phases["experiment.fig10"]["calls"] == 1

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run-all", "--experiments", "figZZ"])

    def test_profile_prints_hot_path_to_stderr(self, capsys):
        assert main(["run-all", "--experiments", "fig8",
                     "--length", "5000", "--bench", "gzip",
                     "--profile", "--no-progress"]) == 0
        captured = capsys.readouterr()
        assert "fig8" in captured.out
        assert "cProfile: top 20 by cumulative time" in captured.err
        assert "cumtime" in captured.err
        # The profiled run must be the run: the experiment work itself
        # shows up in the table, not just harness scaffolding.
        assert "run_value_prediction" in captured.err
