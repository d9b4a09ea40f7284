"""The gDiff prediction table.

Per Section 3, the PC-indexed prediction table "maintains the selected
distance (i.e., k for x_N ~ x_{N-k}) used for the prediction and the
differences between the instruction's result and the results of n
instructions that finished immediately before it".

Update rule (quoted from the paper, implemented in :meth:`GDiffTable.train`):

    "the calculated differences ... are compared against the differences
    stored in the corresponding entry of the prediction table.  If there is
    a match, the matching distance is stored in the distance field.  If
    there is no match, the calculated differences are stored in the
    prediction table and there is no update of the distance field."

When several distances match simultaneously the paper does not prescribe a
tie-break; we default to the *sticky-nearest* policy (keep the currently
selected distance if it still matches, otherwise take the nearest matching
distance), and expose ``nearest`` and ``farthest`` alternatives for the
distance-policy ablation bench.

One deliberate refinement: by default the calculated differences are
written back on *every* update, not only on a mismatch
(``refresh_on_match=True``).  The paper's wording only requires storing
them on a mismatch, but leaving them stale lets garbage differences from a
disturbance (e.g. a pointer-chase jump) linger and later produce spurious
matches at far distances, which measurably degrades accuracy as the queue
grows — the opposite of the paper's observed behaviour.  The differences
are already computed each update, so the write-back is free in hardware.
``refresh_on_match=False`` restores the literal reading; the ablation
bench compares the two.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

from ..tables import DirectMappedTable
from ..wordops import WORD_MASK

#: Valid distance-selection policies.
DISTANCE_POLICIES = ("sticky-nearest", "nearest", "farthest")


class _TrainMeters:
    """Telemetry handles for one GDiffTable (attached, never constructed
    on the hot path)."""

    __slots__ = ("distance", "matches", "mismatches")

    def __init__(self, registry, prefix: str):
        self.distance = registry.histogram(f"{prefix}.distance_match")
        self.matches = registry.counter(f"{prefix}.train_matches")
        self.mismatches = registry.counter(f"{prefix}.train_mismatches")


class GDiffEntry:
    """One prediction-table entry: n stored differences plus a distance."""

    __slots__ = ("diffs", "distance")

    def __init__(self, order: int):
        self.diffs: List[Optional[int]] = [None] * order
        self.distance: Optional[int] = None

    def matching_distances(self, diffs: Sequence[Optional[int]]) -> List[int]:
        """Return all distances (1-based) where *diffs* match stored diffs.

        A position only matches when both the stored and the calculated
        difference are present (the queue was deep enough both times).
        """
        matches = []
        for i, (stored, calc) in enumerate(zip(self.diffs, diffs)):
            if stored is not None and calc is not None and stored == calc:
                matches.append(i + 1)
        return matches


class GDiffTable:
    """PC-indexed table of :class:`GDiffEntry` with the paper's update rule."""

    #: Telemetry meters; a class-level None keeps the un-instrumented hot
    #: path to a single attribute test.
    _meters: Optional[_TrainMeters] = None

    def __init__(
        self,
        order: int = 8,
        entries: Optional[int] = None,
        policy: str = "sticky-nearest",
        refresh_on_match: bool = True,
        tagged: bool = False,
    ):
        if order <= 0:
            raise ValueError("order must be positive")
        if policy not in DISTANCE_POLICIES:
            raise ValueError(f"unknown distance policy {policy!r}")
        self.order = order
        self.policy = policy
        self.refresh_on_match = refresh_on_match
        self._entries = entries
        self._table = DirectMappedTable(entries=entries, tagged=tagged)

    def lookup(self, pc: int) -> Optional[GDiffEntry]:
        """Return the entry for *pc* without creating one."""
        return self._table.lookup(pc)

    def train(self, pc: int, diffs: Sequence[Optional[int]]) -> Optional[int]:
        """Apply the paper's update rule for one completed instruction.

        Args:
            pc: static PC of the completing instruction.
            diffs: the calculated differences (result minus queue entry,
                distance 1..n; ``None`` where the queue was not yet deep
                enough).

        Returns:
            The distance selected by this update, or ``None`` if no match
            occurred (in which case the calculated diffs replace the stored
            ones and the distance field is left untouched).
        """
        entry = self._table.lookup_or_create(pc, lambda: GDiffEntry(self.order))
        matches = entry.matching_distances(diffs)
        meters = self._meters
        if matches:
            entry.distance = self._choose(entry.distance, matches)
            if self.refresh_on_match:
                entry.diffs = list(diffs)
            if meters is not None:
                meters.matches.inc()
                meters.distance.observe(entry.distance)
            return entry.distance
        entry.diffs = list(diffs)
        if meters is not None:
            meters.mismatches.inc()
        return None

    def _choose(self, current: Optional[int], matches: List[int]) -> int:
        """Tie-break among matching distances according to the policy."""
        if self.policy == "sticky-nearest" and current in matches:
            return current
        if self.policy == "farthest":
            return matches[-1]
        return matches[0]

    def attach_metrics(self, registry, prefix: str = "gdiff") -> None:
        """Wire this table into a :class:`~repro.telemetry.MetricsRegistry`.

        Enables aliasing accounting (the Figure 9 quantity) and registers
        the hot-path meters: a histogram of matched GVQ distances — the
        Figure 7 distribution as a free by-product of training — plus
        match/mismatch counters.  Slow-changing table state (accesses,
        conflicts, evictions, occupancy) is published by a collector at
        export time rather than counted per update.
        """
        self._table.track_conflicts = True
        self._meters = _TrainMeters(registry, prefix)
        table = self._table

        def _collect(reg):
            reg.counter(f"{prefix}.table_accesses").value = table.accesses
            reg.counter(f"{prefix}.table_conflicts").value = table.conflicts
            reg.counter(f"{prefix}.table_evictions").value = table.evictions
            reg.gauge(f"{prefix}.table_occupancy").set(table.occupied())
            reg.gauge(f"{prefix}.table_conflict_rate").set(table.conflict_rate)

        registry.add_collector(_collect)

    @property
    def conflict_rate(self) -> float:
        """Aliasing conflict rate of the underlying tagless table (Fig. 9)."""
        return self._table.conflict_rate

    def occupied(self) -> int:
        return self._table.occupied()

    def clear(self) -> None:
        self._table.clear()


class FlatGDiffTable:
    """The gDiff table as parallel preallocated flat arrays.

    Behaviourally identical to :class:`GDiffTable` (asserted against the
    dict-based table by
    ``tests/test_kernel_equivalence.py::test_kernel_matches_reference_implementation``)
    but with none of its per-update
    allocation: rows live in parallel ``array`` columns —

    * ``_diffs``  (``'Q'``): ``order`` stored differences per row, machine
      words, laid out row-major (row *r* occupies ``[r*order, (r+1)*order)``);
    * ``_valid``  (``'H'``): how many leading differences in the row are
      real.  The object table's ``None`` pattern is always a *prefix* —
      calculated diffs are ``None`` exactly for the distances the queue
      cannot reach yet, which grow monotonically — so one prefix length
      replaces ``order`` per-slot ``is None`` tests;
    * ``_dist``   (``'H'``): the selected distance, 0 meaning "not locked";
    * ``_present``: slot-ever-written flag;
    * ``_owner``/``_owner_set``: the aliasing-owner state of
      :class:`~repro.tables.DirectMappedTable`, kept only by a bounded
      table that reads it — a tagged one, or one with a registry
      attached (allocated zeroed then, so a slot trained before reads as
      ownerless) — and None otherwise.

    Bounded tables are fully preallocated and indexed by masked PC; the
    unlimited profile table keeps a dict mapping PC to a row index into a
    growable arena (arrays double when full), so steady-state training is
    one dict probe plus array stores either way.

    The hot entry point is :meth:`train_prefix`, which takes the calculated
    differences as a caller-owned ``array('Q')`` scratch buffer plus its
    valid prefix length — no list is built and nothing is boxed.
    :meth:`train`/:meth:`lookup` keep the object table's sequence-of-
    optionals interface for existing callers and tests; ``train`` assumes
    the prefix shape described above (every caller in this package
    satisfies it by construction).
    """

    _meters: Optional[_TrainMeters] = None

    def __init__(
        self,
        order: int = 8,
        entries: Optional[int] = None,
        policy: str = "sticky-nearest",
        refresh_on_match: bool = True,
        tagged: bool = False,
        pc_shift: int = 2,
    ):
        if order <= 0:
            raise ValueError("order must be positive")
        if order >= 1 << 16:
            raise ValueError("order must fit the 16-bit distance column")
        if policy not in DISTANCE_POLICIES:
            raise ValueError(f"unknown distance policy {policy!r}")
        if entries is not None:
            if entries <= 0 or entries & (entries - 1):
                raise ValueError(f"entries must be a power of two, got {entries}")
        self.order = order
        self.policy = policy
        self.refresh_on_match = refresh_on_match
        self.entries = entries
        self.pc_shift = pc_shift
        self.tagged = tagged
        self.accesses = 0
        self.conflicts = 0
        self.evictions = 0
        self._occupied = 0
        #: PC -> row index (unlimited mode only; bounded rows are the index).
        self._rows: Dict[int, int] = {}
        rows = entries if entries is not None else 256
        self._nrows = 0  # rows handed out (unlimited mode)
        self._diffs = array("Q", bytes(8 * rows * order))
        self._valid = array("H", bytes(2 * rows))
        self._dist = array("H", bytes(2 * rows))
        self._present = bytearray(rows)
        self._owner: Optional[array] = None
        self._owner_set: Optional[bytearray] = None
        if tagged:
            self._keep_owners()
        self._scratch = array("Q", bytes(8 * order))

    @property
    def unlimited(self) -> bool:
        return self.entries is None

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _keep_owners(self) -> None:
        """Allocate zeroed owner arrays for a bounded table, once.

        An unlimited table cannot alias, so it never keeps them.
        """
        if self.entries is not None and self._owner is None:
            self._owner = array("Q", bytes(8 * self.entries))
            self._owner_set = bytearray(self.entries)

    def _grow(self) -> None:
        """Double the unlimited-mode arena."""
        self._diffs.extend(self._diffs)
        self._valid.extend(self._valid)
        self._dist.extend(self._dist)
        self._present.extend(bytes(len(self._present)))

    def row_of(self, pc: int) -> int:
        """Row index holding *pc*'s entry, or -1 (no accounting, no create).

        Mirrors :meth:`GDiffTable.lookup` visibility: -1 when the slot was
        never written, or (tagged mode) when it is owned by a different PC.
        """
        if self.entries is None:
            return self._rows.get(pc, -1)
        idx = (pc >> self.pc_shift) & (self.entries - 1)
        if not self._present[idx]:
            return -1
        if self.tagged and self._owner_set[idx] and self._owner[idx] != pc:
            return -1
        return idx

    def train_row(self, pc: int) -> int:
        """Resolve (creating if needed) *pc*'s row with full accounting.

        Replicates :meth:`DirectMappedTable.lookup_or_create` exactly:
        counts the access, evicts-and-restarts on an aliased tagged slot
        and, while a metrics registry is attached, counts a conflict when
        the slot's owner is a different PC; it records ownership where
        either reads it.
        """
        self.accesses += 1
        if self.entries is None:
            row = self._rows.get(pc, -1)
            if row < 0:
                row = self._nrows
                if row * self.order == len(self._diffs):
                    self._grow()
                self._nrows = row + 1
                self._rows[pc] = row
                self._present[row] = 1
                self._occupied += 1
                self._dist[row] = 0
                self._valid[row] = 0
            # An unlimited table cannot alias: owner bookkeeping is dead
            # weight (owner would always equal pc), so skip it.
            return row
        idx = (pc >> self.pc_shift) & (self.entries - 1)
        owner_set = self._owner_set
        if self._present[idx]:
            if owner_set is not None and owner_set[idx] \
                    and self._owner[idx] != pc:
                if self._meters is not None:
                    self.conflicts += 1
                if self.tagged:
                    self.evictions += 1
                    self._dist[idx] = 0
                    self._valid[idx] = 0
        else:
            self._present[idx] = 1
            self._occupied += 1
            self._dist[idx] = 0
            self._valid[idx] = 0
        if self._meters is not None or self.tagged:
            self._owner[idx] = pc
            owner_set[idx] = 1
        return idx

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_prefix(self, pc: int, calc: array, vc: int) -> int:
        """Apply the paper's update rule from a flat difference vector.

        Args:
            pc: static PC of the completing instruction.
            calc: ``array('Q')`` of at least ``order`` words whose first
                *vc* entries are the calculated differences for distances
                1..vc (the caller's reusable scratch buffer; entries past
                *vc* are ignored garbage).
            vc: number of valid leading differences.

        Returns:
            The selected distance, or 0 on a mismatch (the flat encoding
            of :meth:`GDiffTable.train` returning ``None``).
        """
        row = self.train_row(pc)
        order = self.order
        base = row * order
        diffs = self._diffs
        stored_valid = self._valid[row]
        limit = stored_valid if stored_valid < vc else vc
        chosen = 0
        cur = self._dist[row]
        if (self.policy == "sticky-nearest" and 0 < cur <= limit
                and diffs[base + cur - 1] == calc[cur - 1]):
            chosen = cur
        elif self.policy == "farthest":
            for d in range(limit, 0, -1):
                if diffs[base + d - 1] == calc[d - 1]:
                    chosen = d
                    break
        else:
            for d in range(limit):
                if diffs[base + d] == calc[d]:
                    chosen = d + 1
                    break
        meters = self._meters
        if chosen:
            self._dist[row] = chosen
            if self.refresh_on_match:
                # Copy the full row (memcpy); words past vc are garbage but
                # unreachable, since _valid gates every read.
                diffs[base:base + order] = calc[:order]
                self._valid[row] = vc
            if meters is not None:
                meters.matches.inc()
                meters.distance.observe(chosen)
            return chosen
        diffs[base:base + order] = calc[:order]
        self._valid[row] = vc
        if meters is not None:
            meters.mismatches.inc()
        return 0

    def train(self, pc: int, diffs: Sequence[Optional[int]]) -> Optional[int]:
        """Sequence-of-optionals compatibility wrapper over train_prefix.

        The ``None`` pattern must be a suffix (prefix-valid), which every
        producer of calculated differences in this package guarantees.
        """
        scratch = self._scratch
        vc = 0
        order = self.order
        for v in diffs:
            if v is None or vc == order:
                break
            scratch[vc] = v & WORD_MASK
            vc += 1
        selected = self.train_prefix(pc, scratch, vc)
        return selected if selected else None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def lookup(self, pc: int) -> Optional[GDiffEntry]:
        """Return a :class:`GDiffEntry` *snapshot* of *pc*'s row, or None.

        Mutating the snapshot does not write back to the table.
        """
        row = self.row_of(pc)
        if row < 0:
            return None
        order = self.order
        entry = GDiffEntry(order)
        valid = self._valid[row]
        base = row * order
        for i in range(valid):
            entry.diffs[i] = self._diffs[base + i]
        d = self._dist[row]
        entry.distance = d if d else None
        return entry

    def locked_distances(self) -> Dict[int, int]:
        """Return {table index: selected distance} for all locked rows."""
        result: Dict[int, int] = {}
        dist = self._dist
        if self.entries is None:
            for pc, row in self._rows.items():
                if dist[row]:
                    result[pc] = dist[row]
            return result
        present = self._present
        for idx in range(self.entries):
            if present[idx] and dist[idx]:
                result[idx] = dist[idx]
        return result

    # ------------------------------------------------------------------
    # Telemetry / stats (same surface as GDiffTable)
    # ------------------------------------------------------------------
    def attach_metrics(self, registry, prefix: str = "gdiff") -> None:
        """Wire this table into a :class:`~repro.telemetry.MetricsRegistry`.

        Same meters and collectors as :meth:`GDiffTable.attach_metrics`;
        a bounded table starts keeping slot owners here, for the conflict
        count.
        """
        self._keep_owners()
        self._meters = _TrainMeters(registry, prefix)
        table = self

        def _collect(reg):
            reg.counter(f"{prefix}.table_accesses").value = table.accesses
            reg.counter(f"{prefix}.table_conflicts").value = table.conflicts
            reg.counter(f"{prefix}.table_evictions").value = table.evictions
            reg.gauge(f"{prefix}.table_occupancy").set(table.occupied())
            reg.gauge(f"{prefix}.table_conflict_rate").set(table.conflict_rate)

        registry.add_collector(_collect)

    @property
    def conflict_rate(self) -> float:
        """Conflicts over accesses, counted while a registry is attached."""
        if not self.accesses:
            return 0.0
        return self.conflicts / self.accesses

    def occupied(self) -> int:
        return self._occupied

    def clear(self) -> None:
        self._rows.clear()
        self._nrows = 0
        self._occupied = 0
        self.accesses = 0
        self.conflicts = 0
        self.evictions = 0
        # Rows are guarded by _present/_rows; buffer words need no zeroing.
        self._present[:] = bytes(len(self._present))
        if self._owner_set is not None:
            self._owner_set[:] = bytes(len(self._owner_set))
