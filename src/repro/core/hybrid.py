"""The gDiff predictor with hybrid global value queue (HGVQ, Section 5).

The key problem with the speculative GVQ is that the queue fills in
*completion* order, which varies run to run with cache misses and branch
mispredictions, obscuring the stride locality.  The hybrid scheme fixes the
ordering by constructing the value sequence at *dispatch* time:

* At dispatch, a *filler* predictor (a local stride predictor by default)
  produces a speculative value for the instruction, which is pushed into
  the queue immediately — so the queue is always in dispatch order and a
  correlated instruction's slot exists even while it is still in flight.
* At write-back, the real result overwrites the instruction's own slot in
  place, and the gDiff table is trained by diffing the result against the
  (mixed real/filler) window preceding the slot.

This both eliminates execution variation and lets gDiff piggyback on local
stride locality: if the correlated instruction is itself locally
predictable, its filler value is usually correct, so gDiff can predict a
dependent instruction *before* the correlated value is computed — values
that the plain GVQ could never supply in time (Figure 17's example).

The class exposes the dispatch/write-back protocol the pipeline drives
(:meth:`dispatch`, :meth:`writeback`) plus the plain
:class:`~repro.predictors.base.ValuePredictor` interface so it can also be
run trace-driven (each trace step performing dispatch immediately followed
by write-back, which makes every filler exact — the zero-variation limit).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from ..predictors.base import ValuePredictor
from ..predictors.stride import StridePredictor
from ..wordops import WORD_MASK, wsub
from .gvq import SlottedValueQueue
from .table import FlatGDiffTable


class HybridGDiffPredictor(ValuePredictor):
    """gDiff over a dispatch-ordered, filler-seeded value queue (HGVQ)."""

    name = "gdiff-hgvq"

    #: Distance selected by the most recent :meth:`writeback` (None when
    #: the update matched nothing).  Read by the event-trace recorder.
    last_distance: Optional[int] = None

    def __init__(
        self,
        order: int = 32,
        entries: Optional[int] = 8192,
        filler: Optional[ValuePredictor] = None,
        policy: str = "sticky-nearest",
        capacity: int = 512,
    ):
        self.order = order
        self.queue = SlottedValueQueue(size=order, capacity=capacity)
        self.table = FlatGDiffTable(order=order, entries=entries, policy=policy)
        self._scratch = array("Q", bytes(8 * order))
        #: The filler predictor seeding dispatch-time slots.  It is trained
        #: here (at write-back) and may be shared with the pipeline's local
        #: value-speculation machinery.
        self.filler = filler if filler is not None else StridePredictor(entries=entries)
        self._ctor = (order, entries, policy, capacity)

    # ------------------------------------------------------------------
    # Pipeline-facing protocol
    # ------------------------------------------------------------------
    def dispatch(self, pc: int) -> Tuple[Optional[int], int]:
        """Handle one value-producing instruction at dispatch.

        Makes the gDiff prediction against the current queue window, then
        allocates the instruction's own slot seeded with the filler
        predictor's value (0 when the filler has nothing — the slot will be
        corrected at write-back).

        Returns:
            (gdiff prediction or None, allocated slot sequence number).
        """
        seq = self.queue.total_allocated
        prediction = self._predict_at(pc, seq)
        filler_value = self.filler.predict(pc)
        self.queue.allocate(filler_value if filler_value is not None else 0)
        return prediction, seq

    def writeback(self, pc: int, seq: int, actual: int) -> None:
        """Handle the same instruction's completion.

        Overwrites the slot with the real result, trains the gDiff table by
        diffing against the window preceding the slot (whatever mix of real
        and filler values it currently holds), and trains the filler.
        """
        queue = self.queue
        queue.deposit(seq, actual)
        vc = queue.valid_depth(seq)  # window validity is always a prefix
        scratch = self._scratch
        buf = queue._buf
        cap = queue._capacity
        actual &= WORD_MASK
        for d in range(1, vc + 1):
            scratch[d - 1] = (actual - buf[(seq - d) % cap]) & WORD_MASK
        selected = self.table.train_prefix(pc, scratch, vc)
        self.last_distance = selected if selected else None
        self.filler.update(pc, actual)

    def attach_metrics(self, registry, prefix: str = "gdiff.hgvq") -> None:
        """Publish the gDiff table meters plus HGVQ queue health.

        ``<prefix>.queue_late_deposits`` counts write-backs that found
        their slot already recycled (should stay 0 with a properly sized
        capacity margin over the ROB).
        """
        self.table.attach_metrics(registry, prefix)
        queue = self.queue

        def _collect(reg):
            reg.counter(f"{prefix}.queue_allocations").value = \
                queue.total_allocated
            reg.counter(f"{prefix}.queue_late_deposits").value = \
                queue.late_deposits

        registry.add_collector(_collect)

    # ------------------------------------------------------------------
    # Trace-driven ValuePredictor interface
    # ------------------------------------------------------------------
    def predict(self, pc: int) -> Optional[int]:
        """Trace-driven prediction (dispatch immediately precedes update)."""
        prediction, seq = self.dispatch(pc)
        self._trace_seq = seq
        return prediction

    def update(self, pc: int, actual: int) -> None:
        seq = getattr(self, "_trace_seq", None)
        if seq is None:
            # update() without a preceding predict(): allocate a slot so
            # the queue ordering stays consistent.
            seq = self.queue.allocate(0)
        self.writeback(pc, seq, actual)
        self._trace_seq = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _predict_at(self, pc: int, seq: int) -> Optional[int]:
        table = self.table
        row = table.row_of(pc)
        if row < 0:
            return None
        distance = table._dist[row]
        if distance == 0 or distance > table._valid[row]:
            return None
        queue = self.queue
        if distance > queue.valid_depth(seq):
            return None
        base = queue._buf[(seq - distance) % queue._capacity]
        return (base + table._diffs[row * table.order + distance - 1]) \
            & WORD_MASK

    def _calc_diffs(self, seq: int, actual: int) -> List[Optional[int]]:
        diffs: List[Optional[int]] = []
        get = self.queue.get
        for distance in range(1, self.order + 1):
            base = get(seq, distance)
            diffs.append(None if base is None else wsub(actual, base))
        return diffs

    def reset(self) -> None:
        order, entries, policy, capacity = self._ctor
        self.queue = SlottedValueQueue(size=order, capacity=capacity)
        self.table = FlatGDiffTable(order=order, entries=entries, policy=policy)
        self.filler.reset()
        self._trace_seq = None
