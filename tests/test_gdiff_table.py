"""Tests for the gDiff prediction table and its update rule."""

import pytest

from repro.core import GDiffEntry, GDiffTable
from repro.core.table import DISTANCE_POLICIES
from repro.telemetry import MetricsRegistry


class TestGDiffEntry:
    def test_initial_state(self):
        entry = GDiffEntry(order=4)
        assert entry.distance is None
        assert entry.diffs == [None] * 4

    def test_matching_distances(self):
        entry = GDiffEntry(order=4)
        entry.diffs = [5, None, 7, 9]
        assert entry.matching_distances([5, 6, 7, 8]) == [1, 3]

    def test_none_never_matches(self):
        entry = GDiffEntry(order=3)
        entry.diffs = [None, None, None]
        assert entry.matching_distances([1, 2, 3]) == []
        entry.diffs = [1, 2, 3]
        assert entry.matching_distances([None, None, None]) == []


class TestGDiffTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            GDiffTable(order=0)
        with pytest.raises(ValueError):
            GDiffTable(order=4, policy="bogus")

    def test_first_update_no_match(self):
        table = GDiffTable(order=4)
        assert table.train(0x100, [1, 2, 3, 4]) is None
        entry = table.lookup(0x100)
        assert entry.diffs == [1, 2, 3, 4]
        assert entry.distance is None

    def test_repeat_diff_locks_distance(self):
        # The paper's two-production learning time.
        table = GDiffTable(order=4)
        table.train(0x100, [9, 4, 8, 7])
        selected = table.train(0x100, [1, 4, 2, 3])
        assert selected == 2
        assert table.lookup(0x100).distance == 2

    def test_no_match_keeps_distance(self):
        # "there is no update of the distance field" on mismatch.
        table = GDiffTable(order=2)
        table.train(0x100, [5, 5])
        table.train(0x100, [5, 9])  # locks distance 1
        table.train(0x100, [1, 2])  # nothing matches
        assert table.lookup(0x100).distance == 1
        assert table.lookup(0x100).diffs == [1, 2]

    def test_refresh_on_match_updates_diffs(self):
        table = GDiffTable(order=2, refresh_on_match=True)
        table.train(0x100, [4, 8])
        table.train(0x100, [4, 6])  # match at 1; diffs refreshed
        assert table.lookup(0x100).diffs == [4, 6]

    def test_literal_mode_freezes_diffs_on_match(self):
        table = GDiffTable(order=2, refresh_on_match=False)
        table.train(0x100, [4, 8])
        table.train(0x100, [4, 6])
        assert table.lookup(0x100).diffs == [4, 8]

    def test_sticky_policy_keeps_current(self):
        table = GDiffTable(order=4, policy="sticky-nearest")
        table.train(0x100, [1, 2, 3, 4])
        table.train(0x100, [9, 9, 3, 9])  # locks 3
        table.train(0x100, [9, 9, 3, 9])  # matches at 3 (current) -> keep
        assert table.lookup(0x100).distance == 3
        # A later update matching both 1 and 3 keeps 3 (sticky).
        table.train(0x100, [9, 8, 3, 8])
        assert table.lookup(0x100).distance == 3

    def test_nearest_policy(self):
        table = GDiffTable(order=4, policy="nearest")
        table.train(0x100, [7, 2, 3, 4])
        table.train(0x100, [7, 2, 9, 9])  # matches 1 and 2
        assert table.lookup(0x100).distance == 1

    def test_farthest_policy(self):
        table = GDiffTable(order=4, policy="farthest")
        table.train(0x100, [7, 2, 3, 4])
        table.train(0x100, [7, 2, 9, 9])
        assert table.lookup(0x100).distance == 2

    def test_policies_registry(self):
        assert set(DISTANCE_POLICIES) == {
            "sticky-nearest", "nearest", "farthest"
        }

    def test_finite_table_aliasing_shares_entries(self):
        table = GDiffTable(order=2, entries=4)
        table.attach_metrics(MetricsRegistry())
        table.train(0x0, [1, 1])
        table.train(0x40, [1, 1])  # aliases: matches the other PC's diffs
        assert table.lookup(0x0) is table.lookup(0x40)
        assert table.conflict_rate > 0

    def test_clear(self):
        table = GDiffTable(order=2)
        table.train(0x0, [1, 2])
        table.clear()
        assert table.lookup(0x0) is None
