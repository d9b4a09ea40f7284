"""Tests for the hardware-style table containers."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.tables import DirectMappedTable, SetAssociativeTable, conflict_rate


class TestDirectMappedTable:
    def test_unlimited_distinct_pcs(self):
        table = DirectMappedTable(entries=None)
        table.lookup_or_create(0x100, lambda: "a")
        table.lookup_or_create(0x104, lambda: "b")
        assert table.lookup(0x100) == "a"
        assert table.lookup(0x104) == "b"

    def test_lookup_missing_returns_none(self):
        table = DirectMappedTable(entries=64)
        assert table.lookup(0x100) is None

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            DirectMappedTable(entries=100)

    def test_finite_table_aliasing(self):
        table = DirectMappedTable(entries=4, pc_shift=2)
        # PCs 0x0 and 0x40 both index slot 0 with 4 entries.
        table.lookup_or_create(0x0, lambda: "first")
        assert table.lookup(0x40) == "first"

    def test_index_masks_low_bits(self):
        table = DirectMappedTable(entries=8, pc_shift=2)
        assert table.index(0x0) == table.index(0x80)
        assert table.index(0x4) == 1

    def test_conflict_tracking(self):
        table = DirectMappedTable(entries=4, track_conflicts=True)
        table.lookup_or_create(0x0, dict)
        table.lookup_or_create(0x40, dict)  # aliases with 0x0
        table.lookup_or_create(0x40, dict)  # same owner now: no conflict
        assert table.conflicts == 1
        assert table.accesses == 3
        assert table.conflict_rate == pytest.approx(1 / 3)

    def test_no_conflict_same_pc(self):
        table = DirectMappedTable(entries=4, track_conflicts=True)
        for _ in range(5):
            table.lookup_or_create(0x8, dict)
        assert table.conflicts == 0

    def test_aliasing_shares_entry_object(self):
        # Tagless hardware: the aliasing instruction inherits the state.
        table = DirectMappedTable(entries=4)
        entry = table.lookup_or_create(0x0, dict)
        entry["k"] = 1
        assert table.lookup_or_create(0x40, dict)["k"] == 1

    def test_occupied_counts_slots(self):
        table = DirectMappedTable(entries=8)
        table.lookup_or_create(0x0, dict)
        table.lookup_or_create(0x4, dict)
        table.lookup_or_create(0x80, dict)  # aliases slot 0
        assert table.occupied() == 2

    def test_clear(self):
        table = DirectMappedTable(entries=8, track_conflicts=True)
        table.lookup_or_create(0x0, dict)
        table.clear()
        assert table.lookup(0x0) is None
        assert table.accesses == 0

    def test_conflict_rate_empty(self):
        assert DirectMappedTable(entries=8).conflict_rate == 0.0


#: PC streams over 256 static instructions (word-aligned PCs in a 1 KiB
#: code body), so PCs share slots in every table of 64 entries or fewer.
pc_streams = st.lists(st.integers(min_value=0, max_value=255).map(
    lambda word: 0x400000 + 4 * word), max_size=200)
table_sizes = st.one_of(st.none(), st.sampled_from([1, 2, 4, 8, 16, 32, 64]))


class TestConflictRate:
    """Figure 9's conflict rate from the PC stream alone equals what a
    tracking table counts over the same accesses."""

    @given(pc_streams, table_sizes)
    def test_matches_tracking_table(self, pcs, entries):
        table = DirectMappedTable(entries=entries, track_conflicts=True)
        for pc in pcs:
            table.lookup_or_create(pc, dict)
        assert conflict_rate(pcs, entries) == table.conflict_rate

    def test_aliasing_pcs_conflict(self):
        # 0x0 and 0x40 share slot 0 of a 4-entry table (as above).
        assert conflict_rate([0x0, 0x40, 0x40, 0x0], 4) == 0.5

    def test_empty_and_unlimited(self):
        assert conflict_rate([], 8) == 0.0
        assert conflict_rate([0x0, 0x40, 0x0], None) == 0.0

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            conflict_rate([0x0], 100)


class TestSetAssociativeTable:
    def test_insert_lookup(self):
        table = SetAssociativeTable(entries=16, ways=4)
        table.insert(100, "payload")
        assert table.lookup(100) == "payload"

    def test_tag_miss_returns_none(self):
        table = SetAssociativeTable(entries=16, ways=4)
        table.insert(100, "x")
        # 104 maps to the same set count space but different tag.
        assert table.lookup(104) is None

    def test_lru_eviction(self):
        table = SetAssociativeTable(entries=4, ways=2)  # 2 sets
        # Keys 0, 2, 4 all map to set 0.
        table.insert(0, "a")
        table.insert(2, "b")
        table.insert(4, "c")  # evicts LRU ("a")
        assert table.lookup(0) is None
        assert table.lookup(2) == "b"
        assert table.lookup(4) == "c"

    def test_lookup_refreshes_lru(self):
        table = SetAssociativeTable(entries=4, ways=2)
        table.insert(0, "a")
        table.insert(2, "b")
        table.lookup(0)  # refresh "a" to MRU
        table.insert(4, "c")  # evicts "b" now
        assert table.lookup(0) == "a"
        assert table.lookup(2) is None

    def test_update_in_place(self):
        table = SetAssociativeTable(entries=16, ways=4)
        table.insert(7, "old")
        table.insert(7, "new")
        assert table.lookup(7) == "new"

    def test_hit_rate(self):
        table = SetAssociativeTable(entries=16, ways=4)
        table.insert(1, "x")
        table.lookup(1)
        table.lookup(2)
        assert table.hit_rate == pytest.approx(0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(entries=15, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeTable(entries=16, ways=3)

    def test_clear(self):
        table = SetAssociativeTable(entries=16, ways=4)
        table.insert(5, "x")
        table.clear()
        assert table.lookup(5) is None
