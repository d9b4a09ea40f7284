"""Tests for the experiment harness: runners and reporting."""

import random

import pytest

from repro.core import GDiffPredictor
from repro.harness import run_address_prediction, run_value_prediction
from repro.harness.report import ExperimentResult, fmt
from repro.harness.runner import warm_then_measure
from repro.predictors import (
    ConstantPredictor,
    MarkovPredictor,
    StridePredictor,
)
from repro.trace import ialu, load


def stride_trace(n=50):
    return [ialu(0x10, 1, i * 4) for i in range(n)]


class TestRunValuePrediction:
    def test_counts_only_value_producers(self):
        trace = stride_trace(20) + [load(0x20, 2, 5, 0x1000)]
        stats = run_value_prediction(trace, {"c": ConstantPredictor(5)})
        assert stats["c"].attempts == 21

    def test_stride_predictor_learns(self):
        stats = run_value_prediction(
            stride_trace(50), {"s": StridePredictor(entries=None)})
        assert stats["s"].raw_accuracy > 0.9

    def test_multiple_predictors_isolated(self):
        stats = run_value_prediction(
            stride_trace(50),
            {"s": StridePredictor(entries=None), "c": ConstantPredictor(0)},
        )
        assert stats["s"].raw_accuracy > 0.9
        assert stats["c"].raw_accuracy < 0.1

    def test_gated_mode_populates_coverage(self):
        stats = run_value_prediction(
            stride_trace(50), {"s": StridePredictor(entries=None)},
            gated=True)
        assert stats["s"].coverage > 0.5
        assert stats["s"].accuracy > 0.9

    def test_ungated_mode_zero_coverage(self):
        stats = run_value_prediction(
            stride_trace(50), {"s": StridePredictor(entries=None)})
        assert stats["s"].coverage == 0.0


class TestRunAddressPrediction:
    def _load_trace(self, n=40):
        return [load(0x10, 1, 0, 0x1000 + i * 64) for i in range(n)]

    def test_predicts_addresses_not_values(self):
        stats = run_address_prediction(
            self._load_trace(), {"s": StridePredictor(entries=None)})
        assert stats["s"].raw_accuracy > 0.8

    def test_markov_gated_by_tag(self):
        trace = []
        walk = [0x1000, 0x2000, 0x3000]
        for _ in range(10):
            for addr in walk:
                trace.append(load(0x10, 1, 0, addr))
        stats = run_address_prediction(
            trace, {"m": MarkovPredictor(entries=64, ways=4)})
        assert stats["m"].coverage > 0.7
        assert stats["m"].accuracy > 0.8

    def test_miss_filter_restricts_stream(self):
        seen = []

        def only_even(insn):
            keep = (insn.addr // 64) % 2 == 0
            if keep:
                seen.append(insn.addr)
            return keep

        stats = run_address_prediction(
            self._load_trace(40), {"s": StridePredictor(entries=None)},
            miss_filter=only_even)
        assert stats["s"].attempts == len(seen) == 20
        # The filtered stream has stride 128: still predictable.
        assert stats["s"].raw_accuracy > 0.8

    def test_ignores_non_loads(self):
        trace = [ialu(0x10, 1, 5)] * 10
        stats = run_address_prediction(trace, {"s": StridePredictor()})
        assert stats["s"].attempts == 0


class TestWarmThenMeasure:
    def test_warmup_not_scored(self):
        stats = warm_then_measure(
            lambda: iter(stride_trace(100)),
            {"s": StridePredictor(entries=None)},
            warmup=50, measure=50,
        )
        assert stats["s"].attempts == 50
        # Fully warmed: every measured prediction hits.
        assert stats["s"].raw_accuracy == 1.0

    def test_streams_endless_generator(self):
        # Nothing is materialised: an infinite source must work, consuming
        # exactly warmup+measure instructions.
        def endless():
            pc, value = 0x40, 0
            while True:
                value += 3
                yield ialu(pc, 1, value % (1 << 64))

        stats = warm_then_measure(endless, {"s": StridePredictor(entries=None)},
                                  warmup=1000, measure=500)
        assert stats["s"].attempts == 500
        assert stats["s"].raw_accuracy == 1.0

    def test_accepts_materialised_trace(self):
        # An already-built iterable (list/PackedTrace) is split, in order,
        # into the warm and measure phases.
        trace = stride_trace(100)
        stats = warm_then_measure(trace, {"s": StridePredictor(entries=None)},
                                  warmup=50, measure=50)
        factory_stats = warm_then_measure(
            lambda: iter(stride_trace(100)),
            {"s": StridePredictor(entries=None)}, warmup=50, measure=50)
        assert stats["s"].as_dict() == factory_stats["s"].as_dict()

    def test_measure_window_bounded_by_source(self):
        stats = warm_then_measure(
            lambda: iter(stride_trace(60)),
            {"s": StridePredictor(entries=None)},
            warmup=50, measure=50,
        )
        assert stats["s"].attempts == 10  # source exhausted, no wraparound


class TestExperimentResult:
    def _result(self):
        r = ExperimentResult(
            name="figX", title="demo", columns=["bench", "a", "b"])
        r.add_row("one", 0.5, 1)
        r.add_row("two", 0.25, 2)
        return r

    def test_row_lookup(self):
        assert self._result().row("one") == ["one", 0.5, 1]
        with pytest.raises(KeyError):
            self._result().row("three")

    def test_column(self):
        assert self._result().column("a") == [0.5, 0.25]

    def test_cell(self):
        assert self._result().cell("two", "b") == 2

    def test_render_contains_rows_and_title(self):
        text = self._result().render()
        assert "figX" in text and "demo" in text
        assert "50.0%" in text
        assert "one" in text and "two" in text

    def test_notes_rendered(self):
        r = self._result()
        r.notes.append("anchor 42")
        assert "anchor 42" in r.render()

    def test_fmt_percentage_vs_number(self):
        assert fmt(0.5) == "50.0%"
        assert fmt(3.25) == "3.25"
        assert fmt("x") == "x"
        assert fmt(7) == "7"
