"""Smoke and shape tests for the experiment registry.

Each experiment runs on a pair of benchmarks at reduced length; the full
regeneration (all benchmarks, full lengths) happens in benchmarks/.
"""

import math

import pytest

from repro.core.gdiff import GDiffPredictor
from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.experiments import FIG9_TABLE_SIZES
from repro.harness.runner import run_value_prediction
from repro.trace.cache import cached_trace
from repro.trace.workloads import BENCHMARKS

SHORT = 15_000
PIPE_SHORT = 15_000


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig8", "fig9", "fig10", "fig12", "fig13", "fig16",
            "fig18a", "fig18b", "table2", "fig19",
        }

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig8:
    def test_columns_and_rows(self):
        r = run_experiment("fig8", length=SHORT, benchmarks=["parser"])
        assert r.columns == ["bench", "stride", "dfcm", "gdiff8"]
        assert [row[0] for row in r.rows] == ["parser", "average"]

    def test_gdiff_wins_on_parser(self):
        r = run_experiment("fig8", length=30_000, benchmarks=["parser"])
        assert r.cell("parser", "gdiff8") > r.cell("parser", "stride")


class TestFig9:
    def test_aliasing_monotone_with_size(self):
        r = run_experiment("fig9", length=SHORT, benchmarks=["gcc"])
        row = r.row("gcc")
        # Conflicts never decrease as the table shrinks.
        conflicts = row[1:]
        assert conflicts[0] == 0.0  # infinite table
        assert conflicts[-1] >= conflicts[1]

    def test_infinite_table_no_conflicts(self):
        r = run_experiment("fig9", length=SHORT, benchmarks=["vpr"])
        assert r.cell("vpr", "inf") == 0.0

    @pytest.mark.parametrize("kernels", ["0", "1"])
    def test_rates_equal_the_gdiff_table(self, kernels, monkeypatch):
        """Each rate is what a conflict-tracking gDiff predictor's table
        counts over the same trace, on both predictor paths."""
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        r = run_experiment("fig9", length=2000, code_copies=8)
        for bench in BENCHMARKS:
            trace = cached_trace(bench, 2000, code_copies=8)
            for size, rate in zip(FIG9_TABLE_SIZES, r.row(bench)[1:]):
                predictor = GDiffPredictor(order=8, entries=size,
                                           track_conflicts=True)
                run_value_prediction(trace, {"gdiff": predictor})
                assert rate == predictor.conflict_rate, (bench, size)


class TestFig10:
    def test_delay_degrades_accuracy(self):
        r = run_experiment("fig10", length=30_000, benchmarks=["parser"])
        assert r.cell("parser", "T=0") > r.cell("parser", "T=16")


class TestFig12:
    def test_distribution_sums_to_one(self):
        r = run_experiment("fig12", length=PIPE_SHORT)
        fractions = [row[1] for row in r.rows]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-6)

    def test_small_delays_dominate(self):
        r = run_experiment("fig12", length=PIPE_SHORT)
        small = sum(row[1] for row in r.rows[:8])
        assert small > 0.5


class TestPipelineCapability:
    def test_fig13_sgvq_loses_to_local(self):
        r = run_experiment("fig13", length=PIPE_SHORT,
                           benchmarks=["vortex"])
        assert r.cell("vortex", "gdiff_sgvq_cov") < \
            r.cell("vortex", "l_stride_cov")

    def test_fig16_hgvq_coverage_wins(self):
        r = run_experiment("fig16", length=30_000, benchmarks=["vortex"])
        assert r.cell("vortex", "gdiff_hgvq_cov") > \
            r.cell("vortex", "l_stride_cov")


class TestFig18:
    def test_all_loads_variant(self):
        r = run_experiment("fig18a", length=SHORT, benchmarks=["mcf"])
        assert r.name == "fig18a"
        assert 0 <= r.cell("mcf", "gs_acc") <= 1

    def test_missing_loads_variant_smaller_population(self):
        ra = run_experiment("fig18a", length=SHORT, benchmarks=["gzip"])
        rb = run_experiment("fig18b", length=SHORT, benchmarks=["gzip"])
        assert rb.name == "fig18b"
        # Coverage/accuracy remain valid fractions on the filtered stream.
        assert 0 <= rb.cell("gzip", "gs_cov") <= 1


class TestTable2:
    def test_ipc_positive_and_bounded(self):
        r = run_experiment("table2", length=PIPE_SHORT,
                           benchmarks=["gzip", "mcf"])
        for bench in ("gzip", "mcf"):
            assert 0 < r.cell(bench, "ipc") <= 4

    def test_mcf_most_memory_bound(self):
        r = run_experiment("table2", length=20_000,
                           benchmarks=["gzip", "mcf"])
        assert r.cell("mcf", "dmiss") > r.cell("gzip", "dmiss")


class TestFig19:
    def test_speedups_and_hmean(self):
        r = run_experiment("fig19", length=PIPE_SHORT, benchmarks=["mcf"])
        assert r.cell("mcf", "gdiff_hgvq") > 0.05
        hmean = r.row("H_mean")
        assert not math.isnan(hmean[2])
