"""The gDiff predictor (Section 3).

gDiff exploits *global stride locality*: the value an instruction produces
is predicted as ``GVQ[k] + diff_k`` — the sum of a value produced by some
recent (possibly different) instruction and a learned stride.  The distance
*k* and stride ``diff_k`` are discovered dynamically by diffing every
completed result against the global value queue and locking onto a distance
whose difference repeats (see :mod:`repro.core.table`).

This class covers two of the paper's three deployments directly:

* **Profile / retire-order** (Figures 8-10): drive ``predict``/``update``
  over the committed value stream in program order.  The optional
  ``delay`` constructor argument reproduces the value-delay study of
  Section 3.1 (the ``T`` most recent values are invisible).
* **SGVQ** (Figure 13): the pipeline calls ``predict`` at dispatch and
  ``update`` at write-back, so the queue fills in (speculative) completion
  order, exposing the predictor to execution variation.

The HGVQ deployment needs a slotted queue and lives in
:class:`repro.core.hybrid.HybridGDiffPredictor`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from ..predictors.base import ValuePredictor
from ..wordops import WORD_MASK
from .gvq import GlobalValueQueue
from .table import FlatGDiffTable


class GDiffPredictor(ValuePredictor):
    """Order-*n* gDiff predictor over a shared global value queue.

    Args:
        order: queue size *n* (paper: 8 for profile studies, 32 for the
            pipeline studies).
        entries: prediction-table entries (power of two) or ``None`` for
            the unlimited profile table.
        delay: value delay ``T`` (Section 3.1); 0 for the ideal case.
        policy: distance tie-break policy (see
            :data:`repro.core.table.DISTANCE_POLICIES`).
        tagged: tagged (alias-evicting) prediction table instead of the
            paper's tagless one — the table design-study option.
    """

    name = "gdiff"

    #: Distance selected by the most recent :meth:`update` (None when the
    #: update matched nothing).  Read by the event-trace recorder.
    last_distance: Optional[int] = None

    def __init__(
        self,
        order: int = 8,
        entries: Optional[int] = None,
        delay: int = 0,
        policy: str = "sticky-nearest",
        refresh_on_match: bool = True,
        tagged: bool = False,
    ):
        self.order = order
        self.queue = GlobalValueQueue(size=order, delay=delay)
        self.table = FlatGDiffTable(
            order=order,
            entries=entries,
            policy=policy,
            refresh_on_match=refresh_on_match,
            tagged=tagged,
        )
        self._scratch = array("Q", bytes(8 * order))
        self._ctor = (order, entries, delay, policy, refresh_on_match,
                      tagged)

    def predict(self, pc: int) -> Optional[int]:
        """Predict ``GVQ[distance] + diff_distance`` for *pc*, if locked."""
        table = self.table
        row = table.row_of(pc)
        if row < 0:
            return None
        distance = table._dist[row]
        # distance == 0: never locked.  distance > _valid: the stored diff
        # at that distance was wiped by a shallower mismatch refresh (the
        # object path reads None there).
        if distance == 0 or distance > table._valid[row]:
            return None
        queue = self.queue
        if not (queue._vmask >> (distance - 1)) & 1:
            return None
        base = queue._buf[(queue._count - queue.delay - distance)
                          % queue._capacity]
        return (base + table._diffs[row * table.order + distance - 1]) \
            & WORD_MASK

    def update(self, pc: int, actual: int) -> None:
        """Diff *actual* against the queue, train the table, shift it in."""
        queue = self.queue
        vc = queue._vmask.bit_length()  # visible window is always a prefix
        scratch = self._scratch
        buf = queue._buf
        cap = queue._capacity
        newest = queue._count - queue.delay  # slot index of distance 1 + 1
        actual &= WORD_MASK
        for d in range(1, vc + 1):
            scratch[d - 1] = (actual - buf[(newest - d) % cap]) & WORD_MASK
        selected = self.table.train_prefix(pc, scratch, vc)
        self.last_distance = selected if selected else None
        queue.push(actual)

    def attach_metrics(self, registry, prefix: str = "gdiff") -> None:
        """Publish this predictor's internals into *registry*.

        Emits the ``<prefix>.distance_match`` histogram (the Fig. 7
        distance distribution), train match/mismatch counters, and table
        aliasing/occupancy state; a collector adds the queue depth at
        export time.
        """
        self.table.attach_metrics(registry, prefix)
        queue = self.queue

        def _collect(reg):
            reg.counter(f"{prefix}.queue_pushes").value = queue.total_pushed

        registry.add_collector(_collect)

    def observe(self, value: int) -> None:
        """Shift a value into the queue without training any table entry.

        Used when the stream feeding the GVQ is wider than the set of
        instructions being predicted (e.g. only load addresses pass into
        the queue but other bookkeeping is needed), and by tests.
        """
        self.queue.push(value)

    def reset(self) -> None:
        order, entries, delay, policy, refresh, tagged = self._ctor
        self.queue = GlobalValueQueue(size=order, delay=delay)
        self.table = FlatGDiffTable(
            order=order, entries=entries, policy=policy,
            refresh_on_match=refresh, tagged=tagged,
        )

    def locked_distances(self) -> Dict[int, int]:
        """Return {pc_index: selected distance} for all locked entries.

        Analysis helper: the distribution of selected distances is the
        correlation-distance profile discussed in Section 3 / [2].
        """
        return self.table.locked_distances()
