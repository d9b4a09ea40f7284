"""Hardware-style prediction-table containers.

All predictors in the paper are built from PC-indexed tables that are either
*unlimited* (one entry per static instruction — the idealised profile
configuration) or *finite and tagless* (a direct-mapped 2^m-entry array
indexed by low PC bits, where distinct instructions may alias).  Figure 9 of
the paper measures exactly this aliasing effect, so the table model tracks
the "owner" PC of each entry and counts conflicts: accesses that hit an
entry last touched by a different static instruction.

:class:`DirectMappedTable` implements both configurations behind one
interface; :func:`conflict_rate` computes its conflict rate from a PC
stream alone; :class:`SetAssociativeTable` adds tags and LRU replacement
for the Markov predictor of Section 6.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def conflict_rate(pcs: Iterable[int], entries: Optional[int],
                  pc_shift: int = 2) -> float:
    """Conflicts over accesses of a tagless direct-mapped table driven by
    *pcs*, one access per PC in order (Figure 9).

    An access conflicts when its slot was last accessed by a different
    PC, as :class:`DirectMappedTable` counts with ``track_conflicts``; no
    value enters the count.  An unlimited table (``entries=None``) never
    conflicts, and no PCs read 0.0.
    """
    if entries is None:
        return 0.0
    if entries <= 0 or entries & (entries - 1):
        raise ValueError(f"entries must be a power of two, got {entries}")
    mask = entries - 1
    owner: Dict[int, int] = {}
    get = owner.get
    accesses = conflicts = 0
    for pc in pcs:
        idx = (pc >> pc_shift) & mask
        if get(idx, pc) != pc:
            conflicts += 1
        owner[idx] = pc
        accesses += 1
    return conflicts / accesses if accesses else 0.0


class DirectMappedTable:
    """A PC-indexed, tagless prediction table.

    Args:
        entries: number of entries (must be a power of two), or ``None``
            for an unlimited table keyed directly by PC.
        pc_shift: how many low PC bits to drop before indexing (2 for
            4-byte-aligned instructions).
        track_conflicts: when True, record the owner PC of each entry and
            count accesses that alias with a different instruction.
        tagged: when True the entry carries its owner's full PC as a tag:
            an aliasing instruction misses (and, on allocate, evicts and
            restarts the entry) instead of silently inheriting a
            stranger's state.  The paper's tables are tagless; the tagged
            variant is provided for the design-study bench.
    """

    def __init__(
        self,
        entries: Optional[int] = None,
        pc_shift: int = 2,
        track_conflicts: bool = False,
        tagged: bool = False,
    ):
        if entries is not None:
            if entries <= 0 or entries & (entries - 1):
                raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self.pc_shift = pc_shift
        self.track_conflicts = track_conflicts
        self.tagged = tagged
        self._data: Dict[int, Any] = {}
        self._owner: Dict[int, int] = {}
        self.accesses = 0
        self.conflicts = 0
        self.evictions = 0

    @property
    def unlimited(self) -> bool:
        return self.entries is None

    def index(self, pc: int) -> int:
        """Map a PC to a table index."""
        if self.entries is None:
            return pc
        return (pc >> self.pc_shift) & (self.entries - 1)

    def lookup(self, pc: int) -> Optional[Any]:
        """Return the entry for *pc*, or ``None`` if never written.

        In tagged mode a slot owned by a different PC reads as a miss.
        """
        idx = self.index(pc)
        if self.tagged and self._owner.get(idx, pc) != pc:
            return None
        return self._data.get(idx)

    def lookup_or_create(self, pc: int, factory: Callable[[], Any]) -> Any:
        """Return the entry for *pc*, creating it with *factory* if absent.

        Conflict accounting happens here: if the slot exists but was last
        owned by a different PC it counts as a conflict.  A tagless table
        (the paper's) lets the aliasing instruction inherit (and corrupt)
        the previous occupant's state; a tagged one evicts and restarts.
        """
        idx = self.index(pc)
        self.accesses += 1
        entry = self._data.get(idx)
        owner = self._owner.get(idx)
        aliased = owner is not None and owner != pc
        if entry is None or (self.tagged and aliased):
            if entry is not None:
                self.evictions += 1
            entry = factory()
            self._data[idx] = entry
        if self.track_conflicts and aliased:
            self.conflicts += 1
        if self.track_conflicts or self.tagged:
            self._owner[idx] = pc
        return entry

    @property
    def conflict_rate(self) -> float:
        """Fraction of accesses that aliased with a different PC."""
        if not self.accesses:
            return 0.0
        return self.conflicts / self.accesses

    def occupied(self) -> int:
        """Number of distinct slots ever written."""
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._owner.clear()
        self.accesses = 0
        self.conflicts = 0
        self.evictions = 0


class SetAssociativeTable:
    """A tagged, set-associative table with LRU replacement.

    Used by the first-order Markov address predictor (Section 6), where the
    paper notes that "confidence gating is achieved with tag matching": a
    lookup only returns a payload when the stored tag matches the key.

    A set is created by the first insert that maps to it; a lookup in a
    set never inserted into is a miss.  The paper's 256K-entry, 4-way
    table has 65,536 sets, and a Section 6 run inserts at most one key per
    load, so at the harness's trace lengths most sets are never built.
    """

    def __init__(self, entries: int, ways: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if ways <= 0 or entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        # Set index -> ordered list of (tag, payload); index 0 is MRU.
        self._sets: Dict[int, List[Tuple[int, Any]]] = {}
        self.accesses = 0
        self.hits = 0

    def _set_index(self, key: int) -> int:
        return key % self.sets

    def lookup(self, key: int) -> Optional[Any]:
        """Return the payload stored under *key*, or ``None`` on tag miss."""
        self.accesses += 1
        bucket = self._sets.get(self._set_index(key), ())
        for pos, (tag, payload) in enumerate(bucket):
            if tag == key:
                self.hits += 1
                if pos:
                    bucket.insert(0, bucket.pop(pos))
                return payload
        return None

    def insert(self, key: int, payload: Any) -> None:
        """Insert or update *key* -> *payload*, evicting LRU on overflow."""
        bucket = self._sets.setdefault(self._set_index(key), [])
        for pos, (tag, _) in enumerate(bucket):
            if tag == key:
                bucket.pop(pos)
                break
        bucket.insert(0, (key, payload))
        if len(bucket) > self.ways:
            bucket.pop()

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def clear(self) -> None:
        self._sets.clear()
        self.accesses = 0
        self.hits = 0
