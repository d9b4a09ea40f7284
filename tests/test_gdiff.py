"""Tests for the gDiff predictor, including the paper's worked examples."""

import random

import pytest

from repro.core import GDiffPredictor
from repro.telemetry import MetricsRegistry
from repro.wordops import WORD_MASK, wadd


class TestPaperExamples:
    def test_figure_7_walkthrough(self):
        """The paper's Figures 6-7: instruction a produces (1, 8, 3, ...),
        instruction b produces a+4; two uncorrelated producers sit between
        them.  gDiff learns in two productions, then predicts b exactly."""
        g = GDiffPredictor(order=8)
        rng = random.Random(42)
        a_values = [1, 8, 3, 2, 11, 6]
        predictions = []
        for a in a_values:
            g.update(0xA0, a)  # instruction a
            g.update(0xA4, rng.getrandbits(20))  # unrelated
            g.update(0xA8, rng.getrandbits(20))  # unrelated
            predictions.append(g.predict(0xAC))
            g.update(0xAC, wadd(a, 4))  # instruction b = a + 4
        # Learning takes two dynamic productions; all later predictions hit.
        assert predictions[0] is None or predictions[0] != a_values[0] + 4
        for a, p in zip(a_values[2:], predictions[2:]):
            assert p == a + 4

    def test_figure_2_spill_fill(self):
        """The reload's value equals the correlated load's value (stride 0
        at a fixed distance) even though both sequences are noise."""
        g = GDiffPredictor(order=8)
        rng = random.Random(7)
        hits = 0
        total = 0
        for _ in range(50):
            v = rng.getrandbits(32)
            g.update(0x10, v)  # the correlated load
            g.update(0x14, rng.getrandbits(16))  # intervening producer
            prediction = g.predict(0x18)
            total += 1
            if prediction == v:
                hits += 1
            g.update(0x18, v)  # the fill: identical value
        assert hits >= total - 2

    def test_equation_2_with_nonzero_stride(self):
        g = GDiffPredictor(order=4)
        for i in range(20):
            base = i * i * 7919  # locally hard (quadratic)
            g.update(0x20, base)
            if i >= 2:
                assert g.predict(0x24) == wadd(base, 1000)
            g.update(0x24, wadd(base, 1000))


class TestMechanics:
    def test_cold_predicts_none(self):
        g = GDiffPredictor(order=4)
        assert g.predict(0x100) is None

    def test_single_update_not_enough(self):
        g = GDiffPredictor(order=4)
        g.update(0x100, 1)
        assert g.predict(0x100) is None

    def test_observe_pushes_without_training(self):
        g = GDiffPredictor(order=4)
        g.observe(42)
        assert g.queue.get(1) == 42
        assert g.table.lookup(0x0) is None

    def test_wraparound_values(self):
        g = GDiffPredictor(order=2)
        # Correlated at distance 1 with stride that wraps the word.
        for v in (WORD_MASK - 1, WORD_MASK, 0, 1, 2):
            g.update(0x50, v)
            expected = wadd(v, 5)
            g.update(0x54, expected)
        assert g.predict(0x54) is not None

    def test_self_correlation_in_tight_loop(self):
        # A counter alone in the stream: self distance 1.
        g = GDiffPredictor(order=4)
        for i in range(10):
            g.update(0x100, i * 8)
        assert g.predict(0x100) == 80

    def test_correlation_beyond_order_invisible(self):
        g = GDiffPredictor(order=2)
        rng = random.Random(1)
        hits = 0
        for _ in range(30):
            v = rng.getrandbits(30)
            g.update(0x10, v)
            # Three uncorrelated values push the def out of a 2-entry queue.
            for pc in (0x14, 0x18, 0x1C):
                g.update(pc, rng.getrandbits(30))
            if g.predict(0x20) == v:
                hits += 1
            g.update(0x20, v)
        assert hits <= 2

    def test_delay_hides_close_correlation(self):
        rng = random.Random(3)

        def run(delay):
            g = GDiffPredictor(order=8, delay=delay)
            hits = 0
            for _ in range(40):
                v = rng.getrandbits(30)
                g.update(0x10, v)
                if g.predict(0x14) == wadd(v, 8):
                    hits += 1
                g.update(0x14, wadd(v, 8))
            return hits

        assert run(0) >= 35
        assert run(4) <= 3  # distance 1 < T: unreachable

    def test_reset(self):
        g = GDiffPredictor(order=4)
        for i in range(5):
            g.update(0x0, i)
        g.reset()
        assert g.predict(0x0) is None
        assert g.queue.total_pushed == 0

    def test_locked_distances(self):
        g = GDiffPredictor(order=4)
        for i in range(6):
            g.update(0x0, i * 4)
        locked = g.locked_distances()
        assert list(locked.values()) == [1]

    def test_conflict_rate_exposed(self):
        g = GDiffPredictor(order=2, entries=4)
        g.attach_metrics(MetricsRegistry())
        g.update(0x0, 1)
        g.update(0x40, 2)
        assert g.table.conflict_rate > 0
