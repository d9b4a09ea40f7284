"""Tests for the gDiff prediction table and its update rule."""

import pickle
from array import array

import pytest

from repro.core import GDiffEntry, GDiffPredictor, GDiffTable
from repro.core.table import DISTANCE_POLICIES, FlatGDiffTable
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


def _table_state(table):
    """A flat table's counters and every written row, in table order."""
    rows = []
    for idx in range(table.entries):
        if table._present[idx]:
            base = idx * table.order
            rows.append((idx, table._dist[idx], list(
                table._diffs[base:base + table._valid[idx]])))
    return (table.accesses, table.conflicts, table.evictions,
            table.occupied(), rows)


class TestFlatOwners:
    """Slot owners live only where a table reads them: a bounded table
    that is tagged or has a registry attached."""

    PCS = [0x0, 0x40, 0x4, 0x80, 0x0, 0x44, 0x40, 0x8, 0x0, 0x80]

    def _train(self, table, rounds=3):
        for r in range(rounds):
            for i, pc in enumerate(self.PCS):
                table.train(pc, [(r + i) % 3, 1, (pc >> 2) % 5, r])

    def test_untagged_tables_keep_none(self):
        bounded = FlatGDiffTable(order=4, entries=16)
        unlimited = FlatGDiffTable(order=2)
        self._train(bounded)
        for pc in range(300):  # grows the unlimited arena past 256 rows
            unlimited.train(pc << 2, [pc, 1])
        for table in (bounded, unlimited):
            assert table._owner is None and table._owner_set is None
        unlimited.attach_metrics(MetricsRegistry())
        assert unlimited._owner is None  # an unlimited table cannot alias
        assert FlatGDiffTable(order=4, entries=16,
                              tagged=True)._owner_set is not None
        assert FlatGDiffTable(order=4, tagged=True)._owner is None

    def test_gdiff32_pickle_sheds_the_owner_arrays(self):
        predictor = GDiffPredictor(order=32, entries=8192)
        lean = len(pickle.dumps(predictor))
        table = predictor.table
        table._owner = array("Q", bytes(8 * 8192))
        table._owner_set = bytearray(8192)
        assert len(pickle.dumps(predictor)) - lean >= 9 * 8192

    def test_attach_counts_conflicts_from_then_on(self):
        table = FlatGDiffTable(order=2, entries=4)
        table.train(0x0, [1, 2])
        table.attach_metrics(MetricsRegistry())
        assert not any(table._owner_set)  # trained before: no owner
        table.train(0x40, [1, 2])  # aliases the ownerless slot
        assert table.conflicts == 0
        table.train(0x0, [1, 2])   # the slot's owner is now 0x40
        assert table.conflicts == 1
        table.clear()
        assert not any(table._owner_set)

    @pytest.mark.parametrize("tagged", [False, True])
    def test_earlier_layout_pickle_restores_and_trains_identically(
            self, tagged):
        """A pickle that carries owner arrays on every bounded table (the
        earlier layout) restores and trains exactly like a current one."""
        current = FlatGDiffTable(order=4, entries=16, tagged=tagged)
        self._train(current)
        earlier = pickle.loads(pickle.dumps(current))
        if not tagged:  # an untagged table's arrays were all zero
            earlier._owner = array("Q", bytes(8 * 16))
            earlier._owner_set = bytearray(16)
        restored = pickle.loads(pickle.dumps(earlier))
        assert _table_state(restored) == _table_state(current)
        for table in (current, restored):
            self._train(table, rounds=2)
            table.attach_metrics(MetricsRegistry())
            self._train(table, rounds=2)
        assert _table_state(restored) == _table_state(current)
        assert bytes(restored._owner_set) == bytes(current._owner_set)
        assert list(restored._owner) == list(current._owner)
