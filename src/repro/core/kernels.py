"""Fused predict+train kernels over packed trace columns, run row by row.

The profile methodology calls every predictor twice per dynamic
instruction (``predict`` then ``update``); even with flat predictor state
that is half a dozen Python calls per pair.  The kernels here fuse one
predictor's whole profile run into loops over the packed ``(pc, value)``
(or ``(pc, addr)``) columns — no ``Instruction`` materialisation, no
method dispatch, and no per-pair allocation outside gDiff's distance
search (below).

**Row order.**  In a profile run a PC-indexed table row trains only on
its own instruction's values and on the retire-order value stream, which
is a fixed column, so every row evolves independently of the others.  The
kernels therefore run *row-major*: the pair indices are grouped by PC
(:func:`repro.trace.packed.pc_groups`; a trace view caches its grouping,
and :func:`run_pairs` groups plain columns itself), a table's rows are
read off those groups, each row's pairs run together in trace order with
the row's state in local variables, and the state is written back once
per row.  A row's
locals are gDiff's locked distance and lazy difference vector, stride's
``last``/``stride``/``candidate``, the last value, and DFCM's ``last``,
stride history and rolling hash.  Rows are visited in the order of their
first pair, so every table and dict grows in the order the object path
inserts into it.  A bounded table's row merges the PCs that alias in it,
split into runs of one PC each (:func:`_table_runs`); the row's state is
reloaded for each run, which also counts its conflicts and re-salts
DFCM's hash.  The result is exact because the only dependences between
pairs that do not share a row run through three pieces of shared state,
each kept in trace order:

* **the value column** — read-only in a profile run;
* **the confidence gate** — every gate the runtime builds is unlimited
  and keyed by PC, so a counter lives inside its PC's row; it is held in
  a local while the PC's pairs run, and slots the gate does not hold yet
  are inserted in the order of their first scored pair (gates keyed any
  other way make :func:`run_pairs` decline);
* **DFCM's level-2 table** — shared by all rows, so the row pass only
  records each pair's level-2 key and the stride it writes, and one
  trace-order pass over those two columns reads, writes and scores
  ``_l2`` (and gates).  A prediction is right exactly when the stride
  read equals the stride written, so that pass needs neither the value
  nor ``last``.

Two structural tricks carry the gDiff kernels:

* **One window column.**  In a profile run every value-producing
  instruction pushes into the global value queue, so the queue window seen
  by pair *i* is a slice of one column: the queue's pre-run ring words
  (at most ``order + delay`` of them, the furthest any read reaches back)
  followed by the values column, copied once into a list so that reads
  and slices share its int objects instead of boxing each word —
  ``GVQ[d]`` is ``win[i + pre - delay - d]``, with no branch, whichever
  row pair *i* belongs to.  The kernel performs no ring writes or modulo
  arithmetic; the ring and validity mask are written back once at the
  end, so the predictor's externally observable state is *identical* to
  what the object path leaves behind (and ``warm_then_measure`` can chain
  kernel runs).  The same argument covers the trace-driven HGVQ: each
  pair's write-back deposits its real value before any younger pair reads
  the slot, so the window is again this column and the filler's
  *prediction* is dead — only its training matters, which is the stride
  or last-value kernel run on its own table.

* **Lazy difference vectors.**  The object path materialises the order-n
  difference vector on every update (to compare against the stored one
  and to store it back).  But a stored vector is fully determined by
  ``(actual, i)`` of the pair that stored it: its difference at distance
  *d* is ``actual - window_i[d]``, and ``window_i`` is just another slice
  of the window column.  So the row keeps the two words in locals and
  never builds the vector; it also keeps the stored difference at the
  locked distance, so a prediction is one window read, an add and a
  compare.  Under the sticky policy the prediction has already compared
  the locked distance; when it was right, that distance is chosen at no
  further cost (and the differences stored afresh hold the same
  difference there).  Otherwise the update rule's search runs
  in C builtins: ``xs = list(map(sub, window_then, window_now))`` over two
  slices of the column, then ``in`` and ``list.index`` for the first
  distance holding ``actual_then - actual_now`` (mod 2^64, so one of two
  unreduced values); a row stored by an earlier call is searched as
  ``map(add, stored, window_now)`` against ``actual`` instead.  A miss
  still costs O(order) work, but in C builtins rather than a Python loop
  per distance, and misses are common: in the sweep's gDiff cells 27–34%
  of the pairs fail the locked-distance check and scan every distance
  without a match.  Each row is materialised into the flat diff arrays
  once, when its pairs are done, leaving the table bit-identical to the
  object path's.

Every kernel reproduces the object path exactly — the same
:class:`~repro.predictors.base.PredictionStats` counters and the same
table/queue/confidence state, dict insertion order included (asserted by
``tests/test_kernel_equivalence.py``).  Shapes the kernels do not model
(tagged tables, attached telemetry meters, Markov predictors, custom
fillers, bounded or tagged gates) make :func:`run_pairs` decline before
mutating anything, and the caller falls back to the object loop.

``REPRO_KERNELS=0`` disables the kernels entirely (the escape hatch;
checked on every call so tests can toggle it).
"""

from __future__ import annotations

import os
from array import array
from itertools import groupby
from operator import add, itemgetter, sub
from typing import Dict, Optional, Sequence

from ..predictors.base import ConstantPredictor, PredictionStats
from ..predictors.confidence import ConfidenceTable
from ..predictors.dfcm import DFCMPredictor, _DFCMEntry
from ..predictors.fcm import _HASH_MULT
from ..predictors.last_value import LastValuePredictor
from ..predictors.stride import StridePredictor, _StrideEntry
from ..trace.packed import pc_groups
from ..wordops import WORD_MASK
from .gdiff import GDiffPredictor
from .hybrid import HybridGDiffPredictor


def kernels_enabled() -> bool:
    """True unless the ``REPRO_KERNELS=0`` escape hatch is set."""
    return os.environ.get("REPRO_KERNELS", "1") != "0"


def _local_table_fits(table) -> bool:
    return not (table.tagged or table.track_conflicts)


def _gdiff_table_fits(table) -> bool:
    return not (table.tagged or table._meters is not None)


def run_pairs(predictor, pcs, values, stats: PredictionStats,
              conf: Optional[ConfidenceTable] = None,
              groups: Optional[Dict[int, Sequence[int]]] = None) -> bool:
    """Run *predictor* over packed columns with a fused kernel, if one fits.

    Args:
        predictor: the predictor to drive (predict-then-update per pair).
        pcs, values: packed ``array('Q')`` columns, or lists of machine
            words (addresses count as values — the Section 6 address runs
            use the same kernels).
        stats: accumulated into exactly as the object path would.
        conf: optional confidence gate; when given, the run is gated with
            the same record/train interleaving as the generic loop.
        groups: the columns' :func:`~repro.trace.packed.pc_groups`, when
            the caller holds them (a trace view caches its own); built
            here otherwise.

    Returns:
        True when a kernel ran; False when no kernel models this
        predictor's configuration (caller must fall back to the object
        path — nothing has been mutated).
    """
    if not kernels_enabled():
        return False
    if conf is not None:
        ctab = conf._table
        if (type(conf) is not ConfidenceTable or ctab.tagged
                or ctab.entries is not None):
            return False  # only a PC-keyed gate lives inside a row
    kind = type(predictor)
    if kind is GDiffPredictor:
        fits = _gdiff_table_fits(predictor.table)
        kernel = _gdiff_pairs
    elif kind is StridePredictor or kind is LastValuePredictor:
        fits = _local_table_fits(predictor._table)
        kernel = (_stride_pairs if kind is StridePredictor
                  else _last_value_pairs)
    elif kind is DFCMPredictor:
        fits = _local_table_fits(predictor._l1)
        kernel = _dfcm_pairs
    elif kind is HybridGDiffPredictor:
        filler = type(predictor.filler)
        # A dangling dispatch (_trace_seq set): only the object path
        # pairs it with its write-back.
        fits = (_gdiff_table_fits(predictor.table)
                and getattr(predictor, "_trace_seq", None) is None
                and (filler is ConstantPredictor
                     or (filler in (StridePredictor, LastValuePredictor)
                         and _local_table_fits(predictor.filler._table))))
        kernel = _hybrid_pairs
    else:
        return False
    if not fits:
        return False
    if groups is None:
        groups = pc_groups(pcs)
    kernel(predictor, pcs, values, groups, stats, conf)
    return True


def _table_runs(groups, entries: Optional[int], shift: int):
    """A PC-indexed table's rows as runs: ``(key, pc, indices)`` triples.

    *key* is the row's table key — the PC (unlimited table) or the slot
    (bounded table) — and *indices* a maximal run of *pc*'s pairs within
    the row, in trace order.  Rows come in the order of their first pair
    and a row's runs are consecutive.  A row is one PC's whole group
    unless PCs alias in a bounded slot; that slot's row merges their
    groups and splits the merged pairs wherever the PC changes, so a
    kernel reloads the row's state for each of its runs.
    """
    if entries is None:
        return zip(groups, groups, groups.values())
    emask = entries - 1
    slots = [(pc >> shift) & emask for pc in groups]
    if len(set(slots)) == len(slots):
        return zip(slots, groups, groups.values())
    members: Dict[int, list] = {}
    for slot, pc, idxs in zip(slots, groups, groups.values()):
        members.setdefault(slot, []).append((pc, idxs))
    runs = []
    for slot, group in members.items():
        if len(group) == 1:
            runs.append((slot, *group[0]))
            continue
        pairs = sorted((i, pc) for pc, idxs in group for i in idxs)
        for pc, run in groupby(pairs, itemgetter(1)):
            runs.append((slot, pc, list(map(itemgetter(0), run))))
    return runs


class _Gate:
    """A PC-keyed confidence gate, driven one run of a PC's pairs at a time.

    While a run executes its PC's counter is a kernel local: :meth:`open`
    fetches it and :meth:`close` stores it.  A slot the gate does not hold
    yet is kept aside with the index of its first scored pair and inserted
    by :meth:`finish` in that order — where the object path's first
    ``train`` call inserts it.
    """

    __slots__ = ("data", "threshold", "up", "down", "max_value", "_new")

    def __init__(self, conf: ConfidenceTable):
        self.data = conf._table._data
        self.threshold = conf.threshold
        self.up = conf.up
        self.down = conf.down
        self.max_value = conf.max_value
        self._new: Dict[int, tuple] = {}

    def open(self, pc: int):
        """``(counter, first scored index)``; the index is -1 for a slot
        not scored yet and 0 for one the gate already holds."""
        cur = self.data.get(pc)
        if cur is not None:
            return cur, 0
        return self._new.get(pc, (0, -1))

    def close(self, pc: int, cur: int, first: int) -> None:
        if pc in self.data:
            self.data[pc] = cur
        elif first >= 0:
            self._new[pc] = (cur, first)

    def finish(self) -> None:
        data = self.data
        for pc, (cur, _first) in sorted(self._new.items(),
                                        key=lambda item: item[1][1]):
            data[pc] = cur


def _add_stats(stats: PredictionStats, n: int, predictions: int,
               correct: int, confident: int, confident_correct: int) -> None:
    stats.attempts += n
    stats.predictions += predictions
    stats.correct += correct
    stats.confident += confident
    stats.confident_correct += confident_correct


# ---------------------------------------------------------------------------
# gDiff (shared by the GVQ and trace-driven HGVQ deployments)
# ---------------------------------------------------------------------------
def _ring_read(ring, cap: int, start: int, stop: int) -> list:
    """The queue ring's words for global positions ``[start, stop)``
    (at most *cap* of them), oldest first."""
    a = start % cap
    b = a + stop - start
    if b <= cap:
        return ring[a:b].tolist()
    return ring[a:].tolist() + ring[:b - cap].tolist()


def _ring_write(ring, cap: int, start: int, values) -> None:
    """Store *values* at global positions ``start, start + 1, ...`` as
    per-value pushes would, leaving the last *cap* of them."""
    n = len(values)
    if n > cap:
        start += n - cap
        values = values[n - cap:]
        n = cap
    words = array("Q", values)
    a = start % cap
    b = a + n
    if b <= cap:
        ring[a:b] = words
    else:
        ring[a:] = words[:cap - a]
        ring[:b - cap] = words[cap - a:]


def _gdiff_core(table, values, groups, stats, conf, ring, cap, count0,
                delay, order):
    """The fused gDiff kernel over one packed column pair, row by row.

    *count0* is the queue's global position at entry (values pushed, or
    HGVQ slots allocated); *delay* is the value delay T (0 for HGVQ).
    Handles every policy, bounded/unlimited tables, and the aliasing
    accounting of ``DirectMappedTable.lookup_or_create`` (tagless only).
    Returns the distance the call's last pair selected (0 = it
    mismatched, None = no pairs) for ``last_distance``; the caller syncs
    queue state.
    """
    # The window column: the pre-run ring words a read can still reach
    # (none reaches further back than order + delay words before pair 0),
    # then the call's values.  GVQ[d] for pair i is win[i + off - d].  A
    # list, even when the prefix is empty: its reads and slices share the
    # int objects, where an array's would box every word again.
    pre = min(count0, order + delay)
    win = _ring_read(ring, cap, count0 - pre, count0)
    win += values
    off = pre - delay
    eff0 = count0 - delay
    full = order - eff0  # pairs from here on see the whole window
    mask = WORD_MASK
    wrap = mask + 1
    n = len(values)
    nlast = n - 1

    unlimited = table.entries is None
    rows_map = table._rows
    rows_get = rows_map.get
    diffs = table._diffs
    dist = table._dist
    valid = table._valid
    present = table._present
    owner = table._owner
    owner_set = table._owner_set
    sticky = table.policy == "sticky-nearest"
    farthest = table.policy == "farthest"
    refresh = table.refresh_on_match
    keep = sticky and refresh
    track = table.track_conflicts and not unlimited
    occupied = table._occupied
    nrows = table._nrows
    conflicts = 0

    gated = conf is not None
    if gated:
        gate = _Gate(conf)
        cthr, cup, cdown, cmax = (gate.threshold, gate.up, gate.down,
                                  gate.max_value)
    cur = cfirst = la = 0
    sel = sel_i = -1  # the last scan's selection, and its pair
    misses = correct = confident = confident_correct = 0
    last_sel = None

    for key, pc, idxs in _table_runs(groups, table.entries, table.pc_shift):
        # -- resolve/create the row with lookup_or_create's accounting
        if unlimited:
            row = rows_get(key, -1)
            fresh = row < 0
            if fresh:
                if nrows * order == len(diffs):
                    table._nrows = nrows
                    table._grow()
                    diffs = table._diffs
                    dist = table._dist
                    valid = table._valid
                    present = table._present
                row = nrows
                nrows += 1
                rows_map[key] = row
        else:
            row = key
            fresh = not present[row]
        if fresh:
            present[row] = 1
            occupied += 1
            dist[row] = 0
            valid[row] = 0
        if track:
            if not fresh and owner_set[row] and owner[row] != pc:
                conflicts += 1
            owner[row] = pc
            owner_set[row] = 1
        if gated:
            cur, cfirst = gate.open(pc)
        # -- the row's state, in locals for the run.  d is the locked
        # distance.  The stored differences are the flat row (ssv of them
        # valid) until a pair of the run stores its own, kept lazily as
        # (la, li) = (that pair's value and index; li = -1 while there is
        # none).  Pair i's differences number eff0 + i (negative while the
        # delay still hid the whole queue).  pd is the distance a
        # prediction reads (d while the stored differences reach it, else
        # 0), D the stored difference there, and win[i + offd] the window
        # word it adds D to.
        d = dist[row]
        rbase = row * order
        ssv = valid[row]
        li = -1
        if d and d <= ssv:
            pd = d
            D = diffs[rbase + d - 1]
        else:
            pd = D = 0
        offd = off - pd
        for i in idxs:
            actual = win[i + pre]
            # -- predict at the locked distance, if the visible window
            # (always a prefix of eff0 + i distances) reaches it; then
            # score (and gate)
            if pd and (i >= full or pd <= eff0 + i):
                if (win[i + offd] + D) & mask == actual:
                    correct += 1
                    if gated:
                        if cfirst < 0:
                            cfirst = i
                        if cur >= cthr:
                            confident += 1
                            confident_correct += 1
                        cur += cup
                        if cur > cmax:
                            cur = cmax
                    # Sticky: the prediction compared the stored and the
                    # current difference at the locked distance, so keep
                    # it.  Stored afresh, the differences still reach d
                    # and hold D there.
                    if keep:
                        la = actual
                        li = i
                        continue
                    if sticky:
                        continue
                else:
                    misses += 1
                    if gated:
                        if cfirst < 0:
                            cfirst = i
                        if cur >= cthr:
                            confident += 1
                        cur -= cdown
                        if cur < 0:
                            cur = 0
            # -- match & select (paper's update rule), diffs compared
            # lazily: distances the row stores, capped by vc.
            vc = order if i >= full else max(eff0 + i, 0)
            top = i + off  # win[top - k] is GVQ[k]
            sel = 0
            sel_i = i
            sv = eff0 + li if li >= 0 else ssv
            limit = sv if sv < vc else vc
            if limit > 0:
                # xs[k] is a sum or difference of distance limit - k's
                # words that equals t or t2 exactly when it matches.
                # Invariant: top - limit >= 0 (and top0 - limit >= 0).
                # top - limit = i + pre - delay - limit, and limit <= vc
                # <= count0 - delay + i covers pre == count0, limit <=
                # order covers pre == order + delay (limit <= sv does the
                # same for top0).  A negative slice start would silently
                # read from the column's end.
                if li >= 0:
                    top0 = li + off
                    # then - now == a_then - actual (mod 2^64)
                    xs = list(map(sub, win[top0 - limit:top0],
                                  win[top - limit:top]))
                    t = (la - actual) & mask
                    t2 = t - wrap
                else:
                    # stored + now == actual (mod 2^64), sum < 2^65
                    xs = list(map(add, reversed(diffs[rbase:rbase + limit]),
                                  win[top - limit:top]))
                    t = actual
                    t2 = actual + wrap
                if not farthest:
                    xs.reverse()  # now xs[k] is distance k + 1
                p = xs.index(t) if t in xs else limit
                if t2 in xs:
                    k = xs.index(t2)
                    if k < p:
                        p = k
                if p < limit:
                    sel = pd = d = limit - p if farthest else p + 1
                    if not refresh:  # the stored differences stay
                        offd = off - d
                        D = ((la - win[li + offd]) & mask if li >= 0
                             else diffs[rbase + d - 1])
                        continue
            la = actual
            li = i
            if d and d <= eff0 + i:
                pd = d
                D = (actual - win[i + off - d]) & mask
            else:
                pd = 0
            offd = off - pd
        if gated:
            gate.close(pc, cur, cfirst)
        # -- write the row back: distance, and the lazy differences
        # materialised into the flat arrays
        dist[row] = d
        if li >= 0:
            sv = eff0 + li
            if sv > order:
                sv = order
            elif sv < 0:
                sv = 0  # stored while the delay still hid the whole queue
            top0 = li + off
            for dd in range(sv):
                diffs[rbase + dd] = (la - win[top0 - 1 - dd]) & mask
            valid[row] = sv
        if i == nlast:  # the call's last pair: a scan's pick, or a hit on d
            last_sel = sel if sel_i == i else d

    if gated:
        gate.finish()
    table.accesses += n
    table.conflicts += conflicts
    table._occupied = occupied
    table._nrows = nrows
    _add_stats(stats, n, correct + misses, correct, confident,
               confident_correct)
    return last_sel


def _gdiff_pairs(pred: GDiffPredictor, pcs, values, groups, stats,
                 conf) -> None:
    """Fused gDiff profile kernel (GVQ deployment, any delay/policy)."""
    queue = pred.queue
    count0 = queue._count
    last_sel = _gdiff_core(pred.table, values, groups, stats, conf,
                           queue._buf, queue._capacity, count0, queue.delay,
                           pred.order)
    # Write the queue state the object path's per-pair pushes would leave.
    new_count = count0 + len(values)
    queue._count = new_count
    kv = new_count - queue.delay
    if kv < 0:
        kv = 0
    elif kv > queue.size:
        kv = queue.size
    queue._vmask = (1 << kv) - 1
    _ring_write(queue._buf, queue._capacity, count0, values)
    if last_sel is not None:
        pred.last_distance = last_sel if last_sel else None


def _hybrid_pairs(pred: HybridGDiffPredictor, pcs, values, groups, stats,
                  conf) -> None:
    """Fused trace-driven HGVQ kernel.

    Trace-driven dispatch/write-back pairs mean every slot holds its real
    value before any younger pair reads it, so the gDiff training is the
    plain delay-0 core over the values column, and the filler reduces to
    its own training: its kernel run on its own table, with the scoring
    thrown away (its predictions are dead; its state feeds nothing the
    gDiff side reads).
    """
    queue = pred.queue
    seq0 = queue._next_seq
    last_sel = _gdiff_core(pred.table, values, groups, stats, conf,
                           queue._buf, queue._capacity, seq0, 0, pred.order)
    filler = pred.filler
    ftype = type(filler)
    if ftype is StridePredictor:
        _stride_pairs(filler, pcs, values, groups, PredictionStats(), None)
    elif ftype is LastValuePredictor:
        _last_value_pairs(filler, pcs, values, groups, PredictionStats(),
                          None)
    # ConstantPredictor.update is a no-op.
    n = len(values)
    queue._next_seq = seq0 + n
    _ring_write(queue._buf, queue._capacity, seq0, values)
    if last_sel is not None:
        pred.last_distance = last_sel if last_sel else None
    if n:
        pred._trace_seq = None


# ---------------------------------------------------------------------------
# Local predictors
# ---------------------------------------------------------------------------
# The local kernels read a row's values by index from a list copy of the
# column (an array would box every word on each read).  Values are machine
# words, so a prediction ``(last + step) & mask`` equals ``actual`` exactly
# when ``step`` equals ``(actual - last) & mask``: the stride and DFCM
# kernels compare strides and never form the prediction.

def _stride_pairs(pred: StridePredictor, pcs, values, groups, stats,
                  conf) -> None:
    """Fused two-delta local-stride kernel, row by row (also the HGVQ
    filler's training pass)."""
    table = pred._table
    data = table._data
    dget = data.get
    two_delta = pred.two_delta
    mask = WORD_MASK
    vals = list(values)
    n = len(vals)

    gated = conf is not None
    if gated:
        gate = _Gate(conf)
        cthr, cup, cdown, cmax = (gate.threshold, gate.up, gate.down,
                                  gate.max_value)
    unscored = correct = confident = confident_correct = 0
    for key, pc, idxs in _table_runs(groups, table.entries, table.pc_shift):
        e = dget(key)
        if e is None:
            e = data[key] = _StrideEntry()
        if e.seen:
            e.seen += len(idxs)
            last = e.last
        else:  # the row's first value: not scored
            e.seen = len(idxs)
            last = vals[idxs[0]]
            idxs = idxs[1:]
            unscored += 1
        stride = e.stride
        cand = e.candidate
        # predicted - last: stride * (1 + spec_ahead), spec_ahead being 0
        # outside the pipeline
        mult = 1 + e.spec_ahead
        step = stride if mult == 1 else (stride * mult) & mask
        if gated:
            cur, cfirst = gate.open(pc)
            if cfirst < 0 and idxs:
                cfirst = idxs[0]
        for i in idxs:
            actual = vals[i]
            delta = (actual - last) & mask
            if delta == step:
                correct += 1
                if gated:
                    if cur >= cthr:
                        confident += 1
                        confident_correct += 1
                    cur += cup
                    if cur > cmax:
                        cur = cmax
            elif gated:
                if cur >= cthr:
                    confident += 1
                cur -= cdown
                if cur < 0:
                    cur = 0
            if delta == cand or not two_delta:
                stride = delta
                step = delta if mult == 1 else (delta * mult) & mask
            cand = delta
            last = actual
        if gated:
            gate.close(pc, cur, cfirst)
        e.last = last
        e.stride = stride
        if two_delta:
            e.candidate = cand
    if gated:
        gate.finish()
    table.accesses += n
    _add_stats(stats, n, n - unscored, correct, confident, confident_correct)


def _last_value_pairs(pred: LastValuePredictor, pcs, values, groups, stats,
                      conf) -> None:
    """Fused last-value kernel, row by row (also the HGVQ filler's
    training pass)."""
    table = pred._table
    data = table._data
    dget = data.get
    vals = list(values)
    n = len(vals)

    gated = conf is not None
    if gated:
        gate = _Gate(conf)
        cthr, cup, cdown, cmax = (gate.threshold, gate.up, gate.down,
                                  gate.max_value)
    unscored = correct = confident = confident_correct = 0
    for key, pc, idxs in _table_runs(groups, table.entries, table.pc_shift):
        prev = dget(key)
        if prev is None:  # the row's first value: not scored
            prev = vals[idxs[0]]
            idxs = idxs[1:]
            unscored += 1
        if gated:
            cur, cfirst = gate.open(pc)
            if cfirst < 0 and idxs:
                cfirst = idxs[0]
        for i in idxs:
            actual = vals[i]
            if actual == prev:
                correct += 1
                if gated:
                    if cur >= cthr:
                        confident += 1
                        confident_correct += 1
                    cur += cup
                    if cur > cmax:
                        cur = cmax
            elif gated:
                if cur >= cthr:
                    confident += 1
                cur -= cdown
                if cur < 0:
                    cur = 0
            prev = actual
        if gated:
            gate.close(pc, cur, cfirst)
        data[key] = prev
    if gated:
        gate.finish()
    table.accesses += n
    _add_stats(stats, n, n - unscored, correct, confident, confident_correct)


def _dfcm_pairs(pred: DFCMPredictor, pcs, values, groups, stats,
                conf) -> None:
    """Fused DFCM kernel: a row pass, then one trace-order level-2 pass.

    The row pass runs each first-level row's pairs with ``last``, the
    stride history and the context hash in locals, and records per pair
    the level-2 key its context hashes to (-1 while the context is
    shorter than *order*) and the stride it trains.  The hash is a
    *rolling* fold: with ``H = fold(salt, [v1..vk])`` the next context's
    hash is

        ``H' = H*M + v_new - v1*M^k + salt*(M^k - M^{k+1})  (mod 2^64)``

    — two multiplies instead of *order*, exact (the second-level keys stay
    bit-identical to the object path's).  Each run starts with a full
    fold, salted with its PC.  The trace-order pass then reads, writes and
    scores ``_l2`` (and gates) in the order the object path does.
    """
    l1 = pred._l1
    data = l1._data
    dget = data.get
    l2 = pred._l2
    l2get = l2.get
    l2e = pred.l2_entries
    order = pred.order
    hmul = _HASH_MULT
    mask = WORD_MASK
    vals = list(values)
    n = len(vals)
    hmul_k = pow(hmul, order, 1 << 64)
    # salt coefficient of the roll: salt * (M^k - M^(k+1)) mod 2^64
    cmul = (hmul_k - hmul_k * hmul) & mask
    keys = [-1] * n
    strides = [0] * n

    # -- row pass.  An entry never seen has no strides (only an update
    # appends, and it marks the entry seen first).
    for key, pc, idxs in _table_runs(groups, l1.entries, l1.pc_shift):
        e = dget(key)
        if e is None:
            e = data[key] = _DFCMEntry()
        it = iter(idxs)
        if e.seen:
            e.seen += len(idxs)
            last = e.last
        else:  # the row's first value
            e.seen = len(idxs)
            last = vals[next(it)]
        hist = list(e.strides)  # the row's strides; the last `order` are
        p = len(hist)           # the context, p of them so far
        if p < order:  # warm-up: no context to predict from yet
            for i in it:
                actual = vals[i]
                hist.append((actual - last) & mask)
                last = actual
                p += 1
                if p == order:
                    break
        if p == order:
            h = pc & mask
            for v in hist[p - order:]:
                h = (h * hmul + v) & mask
            csalt = (pc * cmul) & mask
            j = p - order  # the context's oldest stride
            for i in it:
                actual = vals[i]
                w = (actual - last) & mask
                keys[i] = h % l2e
                strides[i] = w
                h = (h * hmul + w - hist[j] * hmul_k + csalt) & mask
                hist.append(w)
                j += 1
                last = actual
        e.last = last
        e.strides[:] = hist[-order:]

    # -- level-2 pass, in trace order: a prediction is last + L2[key], so
    # it is right exactly when the stored stride equals the one trained.
    predictions = correct = confident = confident_correct = 0
    if conf is None:
        for key, w in zip(keys, strides):
            if key >= 0:
                s = l2get(key)
                if s is not None:
                    predictions += 1
                    if s == w:
                        correct += 1
                l2[key] = w
    else:
        cdata = conf._table._data
        cget = cdata.get
        cthr = conf.threshold
        cup = conf.up
        cdown = conf.down
        cmax = conf.max_value
        for pc, key, w in zip(pcs, keys, strides):
            if key >= 0:
                s = l2get(key)
                if s is not None:
                    predictions += 1
                    cur = cget(pc, 0)
                    if s == w:
                        correct += 1
                        if cur >= cthr:
                            confident += 1
                            confident_correct += 1
                        cur += cup
                        if cur > cmax:
                            cur = cmax
                    else:
                        if cur >= cthr:
                            confident += 1
                        cur -= cdown
                        if cur < 0:
                            cur = 0
                    cdata[pc] = cur
                l2[key] = w
    l1.accesses += n
    _add_stats(stats, n, predictions, correct, confident, confident_correct)
