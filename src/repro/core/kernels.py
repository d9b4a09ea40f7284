"""Fused predict+train kernels over packed trace columns.

The profile methodology calls every predictor twice per dynamic
instruction (``predict`` then ``update``); even with flat predictor state
that is half a dozen Python calls per pair.  The kernels here fuse one
predictor's whole profile run into a single loop that walks the packed
``(pc, value)`` (or ``(pc, addr)``) columns directly, with every piece of
hot state bound to a local variable — no ``Instruction`` materialisation,
no method dispatch, and no per-pair allocation outside gDiff's distance
search (below).

Two structural tricks carry the gDiff kernels:

* **One window column.**  In a profile run every value-producing
  instruction pushes into the global value queue, so the queue window seen
  by pair *i* is a slice of one column: the queue's pre-run ring words
  (at most ``order + delay`` of them, the furthest any read reaches back)
  followed by the values column, copied once into a list so that reads
  and slices share its int objects instead of boxing each word —
  ``GVQ[d]`` is ``win[i + pre - delay - d]``, with no branch.  The loop
  performs no ring writes or modulo arithmetic; the ring and validity
  mask are written back once at the end, so the predictor's externally
  observable state is *identical* to what the object path leaves behind
  (and ``warm_then_measure`` can chain kernel runs).  The same argument
  covers the trace-driven HGVQ: each pair's write-back deposits its real
  value before any younger pair reads the slot, so the window is again
  this column and the filler's *prediction* is dead — only its
  training matters, which runs as its own fused pass.

* **Lazy difference vectors.**  The object path materialises the order-n
  difference vector on every update (to compare against the stored one
  and to store it back).  But a stored vector is fully determined by
  ``(actual, i)`` of the pair that stored it: its difference at distance
  *d* is ``actual - window_i[d]``, and ``window_i`` is just another slice
  of the window column.  So the kernel stores the two words and never
  builds the vector.  Under the sticky policy the prediction has already
  compared the locked distance; when it was right, that distance is
  chosen at no further cost.  Otherwise the update rule's search runs in
  C builtins: ``xs = list(map(sub, window_then, window_now))`` over two
  slices of the column, then ``in`` and ``list.index`` for the first
  distance holding ``actual_then - actual_now`` (mod 2^64, so one of
  two unreduced values); a row already in the flat arrays is searched as
  ``map(add, stored, window_now)`` against ``actual`` instead.  A miss
  still costs O(order) work, but in C builtins rather than a Python loop
  per distance, and misses are common: in the sweep's gDiff cells 27–34%
  of the pairs fail the locked-distance check and scan every distance
  without a match.  The lazily-represented rows are materialised into the
  flat diff arrays once when the kernel finishes, leaving the table
  bit-identical to the object path's.

Every kernel reproduces the object path exactly — the same
:class:`~repro.predictors.base.PredictionStats` counters and the same
table/queue/confidence state (asserted by
``tests/test_kernel_equivalence.py``).  Shapes the kernels do not model
(tagged tables, attached telemetry meters, Markov predictors, custom
fillers) make :func:`run_pairs` decline before mutating anything, and the
caller falls back to the object loop.

``REPRO_KERNELS=0`` disables the kernels entirely (the escape hatch;
checked on every call so tests can toggle it).
"""

from __future__ import annotations

import os
from operator import add, sub
from typing import Optional

from ..predictors.base import ConstantPredictor, PredictionStats
from ..predictors.confidence import ConfidenceTable
from ..predictors.dfcm import DFCMPredictor, _DFCMEntry
from ..predictors.fcm import _HASH_MULT
from ..predictors.last_value import LastValuePredictor
from ..predictors.stride import StridePredictor, _StrideEntry
from ..wordops import WORD_MASK
from .gdiff import GDiffPredictor
from .hybrid import HybridGDiffPredictor


def kernels_enabled() -> bool:
    """True unless the ``REPRO_KERNELS=0`` escape hatch is set."""
    return os.environ.get("REPRO_KERNELS", "1") != "0"


def run_pairs(predictor, pcs, values, stats: PredictionStats,
              conf: Optional[ConfidenceTable] = None) -> bool:
    """Run *predictor* over packed columns with a fused kernel, if one fits.

    Args:
        predictor: the predictor to drive (predict-then-update per pair).
        pcs, values: packed ``array('Q')`` columns (addresses count as
            values — the Section 6 address runs use the same kernels).
        stats: accumulated into exactly as the object path would.
        conf: optional confidence gate; when given, the run is gated with
            the same record/train interleaving as the generic loop.

    Returns:
        True when a kernel ran; False when no kernel models this
        predictor's configuration (caller must fall back to the object
        path — nothing has been mutated).
    """
    if not kernels_enabled():
        return False
    if conf is not None and (type(conf) is not ConfidenceTable
                             or conf._table.tagged):
        return False
    kind = type(predictor)
    if kind is GDiffPredictor:
        table = predictor.table
        if table.tagged or table._meters is not None:
            return False
        _gdiff_pairs(predictor, pcs, values, stats, conf)
        return True
    if kind is StridePredictor:
        table = predictor._table
        if table.tagged or table.track_conflicts:
            return False
        _stride_pairs(predictor, pcs, values, stats, conf)
        return True
    if kind is LastValuePredictor:
        table = predictor._table
        if table.tagged or table.track_conflicts:
            return False
        _last_value_pairs(predictor, pcs, values, stats, conf)
        return True
    if kind is DFCMPredictor:
        table = predictor._l1
        if table.tagged or table.track_conflicts:
            return False
        _dfcm_pairs(predictor, pcs, values, stats, conf)
        return True
    if kind is HybridGDiffPredictor:
        table = predictor.table
        if table.tagged or table._meters is not None:
            return False
        if getattr(predictor, "_trace_seq", None) is not None:
            return False  # a dangling dispatch: only the object path pairs it
        filler = predictor.filler
        fkind = type(filler)
        if fkind is ConstantPredictor:
            pass
        elif fkind in (StridePredictor, LastValuePredictor):
            if filler._table.tagged or filler._table.track_conflicts:
                return False
        else:
            return False
        _hybrid_pairs(predictor, pcs, values, stats, conf)
        return True
    return False


def _conf_locals(conf: Optional[ConfidenceTable]):
    """Unpack a confidence gate into loop locals.

    Returns (gated, counters dict, unlimited?, mask, shift, threshold, up,
    down, max).  The counter dict is the gate's own backing store, mutated
    in place, so the table ends in exactly the state the object path's
    ``is_confident``/``train`` calls would leave.
    """
    if conf is None:
        return False, None, True, 0, 0, 0, 0, 0, 0
    ctab = conf._table
    cunlim = ctab.entries is None
    cmask = 0 if cunlim else ctab.entries - 1
    return (True, ctab._data, cunlim, cmask, ctab.pc_shift, conf.threshold,
            conf.up, conf.down, conf.max_value)


# ---------------------------------------------------------------------------
# gDiff (shared by the GVQ and trace-driven HGVQ deployments)
# ---------------------------------------------------------------------------
def _gdiff_core(table, pcs, values, stats, conf, ring, cap, count0, delay,
                order):
    """The fused gDiff loop over one packed column pair.

    *count0* is the queue's global position at entry (values pushed, or
    HGVQ slots allocated); *delay* is the value delay T (0 for HGVQ).
    Handles every policy, bounded/unlimited tables, and the aliasing
    accounting of ``DirectMappedTable.lookup_or_create`` (tagless only).
    Returns the last selected distance (0 = last update mismatched, None =
    no pairs) for ``last_distance``; the caller syncs queue state.
    """
    # The window column: the pre-run ring words a read can still reach
    # (none reaches further back than order + delay words before pair 0),
    # then the call's values.  GVQ[d] for pair i is win[i + off - d].  A
    # list, even when the prefix is empty: its reads and slices share the
    # int objects, where an array's would box every word again.
    pre = min(count0, order + delay)
    win = [ring[k % cap] for k in range(count0 - pre, count0)]
    win += values
    off = pre - delay
    eff0 = count0 - delay
    mask = WORD_MASK
    wrap = mask + 1
    n = len(pcs)

    unlimited = table.entries is None
    rows_get = table._rows.get
    diffs = table._diffs
    dist = table._dist
    valid = table._valid
    present = table._present
    owner = table._owner
    owner_set = table._owner_set
    sticky = table.policy == "sticky-nearest"
    farthest = table.policy == "farthest"
    refresh = table.refresh_on_match
    track = table.track_conflicts
    emask = 0 if unlimited else table.entries - 1
    shift = table.pc_shift
    occupied = table._occupied
    nrows = table._nrows
    conflicts = 0
    # Rows stored during this run, kept lazily as (actual, pair index);
    # materialised into the flat arrays at the end.
    lazy = {}
    lazy_get = lazy.get

    gated, cdata, cunlim, cmask, cshift, cthr, cup, cdown, cmax = \
        _conf_locals(conf)
    cget = cdata.get if gated else None

    predictions = correct = confident = confident_correct = 0
    last_sel = None

    i = 0
    for pc, actual in zip(pcs, values):
        vc = eff0 + i  # visible window depth: always a prefix 1..vc
        if vc > order:
            vc = order
        elif vc < 0:
            vc = 0
        top = i + off  # win[top - d] is GVQ[d]
        if unlimited:
            row = rows_get(pc, -1)
            idx = 0
        else:
            idx = (pc >> shift) & emask
            row = idx if present[idx] else -1
        # -- predict: one (lazy: two) window read at the locked distance
        predicted = None
        lz = None
        if row >= 0:
            lz = lazy_get(row)
            d = dist[row]
            if d and d <= vc:
                if lz is None:
                    if d <= valid[row]:
                        predicted = (win[top - d]
                                     + diffs[row * order + d - 1]) & mask
                elif d <= eff0 + lz[1]:  # d <= order always holds
                    predicted = (win[top - d] + lz[0]
                                 - win[lz[1] + off - d]) & mask
        # -- score (and gate)
        if predicted is not None:
            predictions += 1
            if gated:
                slot = pc if cunlim else (pc >> cshift) & cmask
                cur = cget(slot, 0)
                if predicted == actual:
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
                cdata[slot] = cur
            elif predicted == actual:
                correct += 1
        # -- resolve/create the row with lookup_or_create's accounting
        if row < 0:
            if unlimited:
                if nrows * order == len(diffs):
                    table._nrows = nrows
                    table._grow()
                    diffs = table._diffs
                    dist = table._dist
                    valid = table._valid
                    present = table._present
                row = nrows
                nrows += 1
                table._rows[pc] = row
            else:
                row = idx
                if track:
                    owner[row] = pc
                    owner_set[row] = 1
            present[row] = 1
            occupied += 1
            dist[row] = 0
            valid[row] = 0
        elif not unlimited and track:
            if owner_set[row] and owner[row] != pc:
                conflicts += 1
            owner[row] = pc
            owner_set[row] = 1
        # -- match & select (paper's update rule), diffs compared lazily
        chosen = 0
        if sticky and predicted == actual:
            # The prediction compared this row's stored and current
            # differences at the locked distance, within the same bound.
            chosen = d
        else:
            # Distances the row stores, capped by vc (which is <= order);
            # a lazy row's count is negative if the delay still hid the
            # whole queue from the pair that stored it.
            sv = valid[row] if lz is None else eff0 + lz[1]
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
                if lz is None:
                    rbase = row * order
                    # stored + now == actual (mod 2^64), sum < 2^65
                    xs = list(map(add, reversed(diffs[rbase:rbase + limit]),
                                  win[top - limit:top]))
                    t = actual
                    t2 = actual + wrap
                else:
                    top0 = lz[1] + off
                    # then - now == a_then - actual (mod 2^64), |diff| < 2^64
                    xs = list(map(sub, win[top0 - limit:top0],
                                  win[top - limit:top]))
                    t = (lz[0] - actual) & mask
                    t2 = t - wrap
                if not farthest:
                    xs.reverse()  # now xs[k] is distance k + 1
                p = xs.index(t) if t in xs else limit
                if t2 in xs:
                    k = xs.index(t2)
                    if k < p:
                        p = k
                if p < limit:
                    chosen = limit - p if farthest else p + 1
        if chosen:
            dist[row] = chosen
            if refresh:
                lazy[row] = (actual, i)
            last_sel = chosen
        else:
            lazy[row] = (actual, i)
            last_sel = 0
        i += 1

    # -- materialise lazily-stored rows into the flat diff arrays
    for row, (a0, i0) in lazy.items():
        sv = eff0 + i0
        if sv > order:
            sv = order
        elif sv < 0:
            sv = 0  # stored while the delay still hid the whole queue
        rbase = row * order
        top0 = i0 + off
        for dd in range(sv):
            diffs[rbase + dd] = (a0 - win[top0 - 1 - dd]) & mask
        valid[row] = sv

    table.accesses += n
    table.conflicts += conflicts
    table._occupied = occupied
    table._nrows = nrows
    stats.attempts += n
    stats.predictions += predictions
    stats.correct += correct
    stats.confident += confident
    stats.confident_correct += confident_correct
    return last_sel


def _gdiff_pairs(pred: GDiffPredictor, pcs, values, stats, conf) -> None:
    """Fused gDiff profile kernel (GVQ deployment, any delay/policy)."""
    queue = pred.queue
    cap = queue._capacity
    ring = queue._buf
    count0 = queue._count
    last_sel = _gdiff_core(pred.table, pcs, values, stats, conf, ring, cap,
                           count0, queue.delay, pred.order)
    # Write the queue state the object path's per-pair pushes would leave.
    n = len(pcs)
    new_count = count0 + n
    queue._count = new_count
    kv = new_count - queue.delay
    if kv < 0:
        kv = 0
    elif kv > queue.size:
        kv = queue.size
    queue._vmask = (1 << kv) - 1
    start = new_count - cap
    if start < count0:
        start = count0
    for s in range(start, new_count):
        ring[s % cap] = values[s - count0]
    if last_sel is not None:
        pred.last_distance = last_sel if last_sel else None


def _hybrid_pairs(pred: HybridGDiffPredictor, pcs, values, stats,
                  conf) -> None:
    """Fused trace-driven HGVQ kernel.

    Trace-driven dispatch/write-back pairs mean every slot holds its real
    value before any younger pair reads it, so the gDiff training is the
    plain delay-0 core over the values column, and the filler reduces to
    its own training pass (its predictions are dead; its state feeds
    nothing the gDiff side reads).
    """
    queue = pred.queue
    cap = queue._capacity
    ring = queue._buf
    seq0 = queue._next_seq
    last_sel = _gdiff_core(pred.table, pcs, values, stats, conf, ring, cap,
                           seq0, 0, pred.order)
    filler = pred.filler
    ftype = type(filler)
    if ftype is StridePredictor:
        _train_stride(filler, pcs, values)
    elif ftype is LastValuePredictor:
        _train_last_value(filler, pcs, values)
    # ConstantPredictor.update is a no-op.
    n = len(pcs)
    queue._next_seq = seq0 + n
    start = seq0 + n - cap
    if start < seq0:
        start = seq0
    for s in range(start, seq0 + n):
        ring[s % cap] = values[s - seq0]
    if last_sel is not None:
        pred.last_distance = last_sel if last_sel else None
    if n:
        pred._trace_seq = None


# ---------------------------------------------------------------------------
# Local predictors
# ---------------------------------------------------------------------------
def _stride_pairs(pred: StridePredictor, pcs, values, stats, conf) -> None:
    """Fused two-delta local-stride kernel (entry objects mutated in place)."""
    table = pred._table
    data = table._data
    dget = data.get
    unlim = table.entries is None
    emask = 0 if unlim else table.entries - 1
    shift = table.pc_shift
    two_delta = pred.two_delta
    mask = WORD_MASK
    n = len(pcs)

    gated, cdata, cunlim, cmask, cshift, cthr, cup, cdown, cmax = \
        _conf_locals(conf)
    cget = cdata.get if gated else None

    predictions = correct = confident = confident_correct = 0
    for pc, actual in zip(pcs, values):
        idx = pc if unlim else (pc >> shift) & emask
        e = dget(idx)
        if e is not None and e.seen:
            predicted = (e.last + e.stride * (1 + e.spec_ahead)) & mask
            predictions += 1
            if gated:
                slot = pc if cunlim else (pc >> cshift) & cmask
                cur = cget(slot, 0)
                if predicted == actual:
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
                cdata[slot] = cur
            elif predicted == actual:
                correct += 1
        if e is None:
            e = _StrideEntry()
            e.last = actual
            e.seen = 1
            data[idx] = e
        elif e.seen == 0:
            e.last = actual
            e.seen = 1
        else:
            delta = (actual - e.last) & mask
            if two_delta:
                if delta == e.candidate:
                    e.stride = delta
                e.candidate = delta
            else:
                e.stride = delta
            e.last = actual
            e.seen += 1
    table.accesses += n
    stats.attempts += n
    stats.predictions += predictions
    stats.correct += correct
    stats.confident += confident
    stats.confident_correct += confident_correct


def _train_stride(pred: StridePredictor, pcs, values) -> None:
    """Update-only stride pass (HGVQ filler training; no scoring)."""
    table = pred._table
    data = table._data
    dget = data.get
    unlim = table.entries is None
    emask = 0 if unlim else table.entries - 1
    shift = table.pc_shift
    two_delta = pred.two_delta
    mask = WORD_MASK
    for pc, actual in zip(pcs, values):
        idx = pc if unlim else (pc >> shift) & emask
        e = dget(idx)
        if e is None:
            e = _StrideEntry()
            e.last = actual
            e.seen = 1
            data[idx] = e
        elif e.seen == 0:
            e.last = actual
            e.seen = 1
        else:
            delta = (actual - e.last) & mask
            if two_delta:
                if delta == e.candidate:
                    e.stride = delta
                e.candidate = delta
            else:
                e.stride = delta
            e.last = actual
            e.seen += 1
    table.accesses += len(pcs)


def _last_value_pairs(pred: LastValuePredictor, pcs, values, stats,
                      conf) -> None:
    """Fused last-value kernel (the table dict is the whole state)."""
    table = pred._table
    data = table._data
    dget = data.get
    unlim = table.entries is None
    emask = 0 if unlim else table.entries - 1
    shift = table.pc_shift
    n = len(pcs)

    gated, cdata, cunlim, cmask, cshift, cthr, cup, cdown, cmax = \
        _conf_locals(conf)
    cget = cdata.get if gated else None

    predictions = correct = confident = confident_correct = 0
    for pc, actual in zip(pcs, values):
        idx = pc if unlim else (pc >> shift) & emask
        predicted = dget(idx)
        if predicted is not None:
            predictions += 1
            if gated:
                slot = pc if cunlim else (pc >> cshift) & cmask
                cur = cget(slot, 0)
                if predicted == actual:
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
                cdata[slot] = cur
            elif predicted == actual:
                correct += 1
        data[idx] = actual
    table.accesses += n
    stats.attempts += n
    stats.predictions += predictions
    stats.correct += correct
    stats.confident += confident
    stats.confident_correct += confident_correct


def _train_last_value(pred: LastValuePredictor, pcs, values) -> None:
    """Update-only last-value pass (HGVQ filler training)."""
    table = pred._table
    data = table._data
    unlim = table.entries is None
    emask = 0 if unlim else table.entries - 1
    shift = table.pc_shift
    for pc, actual in zip(pcs, values):
        data[pc if unlim else (pc >> shift) & emask] = actual
    table.accesses += len(pcs)


def _dfcm_pairs(pred: DFCMPredictor, pcs, values, stats, conf) -> None:
    """Fused DFCM kernel.

    Two structural savings over the object path: the second-level context
    hash is computed once per pair (``predict`` and ``update`` fold the
    same pre-append stride context, so the update reuses the predict's
    key), and the fold itself is maintained as a *rolling* hash.  With
    ``H = fold(salt, [v1..vk])`` the next context's hash is

        ``H' = H*M + v_new - v1*M^k + salt*(M^k - M^{k+1})  (mod 2^64)``

    — two multiplies instead of *order*, exact (no approximation, so the
    second-level keys stay bit-identical to the object path's).  The cache
    is keyed by table slot and validated against the accessing PC, so
    first-level aliasing falls back to a full fold.
    """
    l1 = pred._l1
    data = l1._data
    dget = data.get
    unlim = l1.entries is None
    emask = 0 if unlim else l1.entries - 1
    shift = l1.pc_shift
    l2 = pred._l2
    l2get = l2.get
    l2e = pred.l2_entries
    order = pred.order
    hmul = _HASH_MULT
    mask = WORD_MASK
    n = len(pcs)
    hmul_k = pow(hmul, order, 1 << 64)
    # salt coefficient of the roll: salt * (M^k - M^(k+1)) mod 2^64
    cmul = (hmul_k - hmul_k * hmul) & mask
    hcache = {}  # slot -> (pc, rolling hash, salt term); kernel-local
    hget = hcache.get

    gated, cdata, cunlim, cmask, cshift, cthr, cup, cdown, cmax = \
        _conf_locals(conf)
    cget = cdata.get if gated else None

    predictions = correct = confident = confident_correct = 0
    for pc, actual in zip(pcs, values):
        idx = pc if unlim else (pc >> shift) & emask
        e = dget(idx)
        predicted = None
        key = -1
        if e is not None:
            strides = e.strides
            if len(strides) >= order:
                cached = hget(idx)
                if cached is not None and cached[0] == pc:
                    h = cached[1]
                    csalt = cached[2]
                else:
                    h = pc & mask
                    for v in strides:
                        h = (h * hmul + v) & mask
                    csalt = (pc * cmul) & mask
                key = h % l2e
                stride = l2get(key)
                if stride is not None:
                    predicted = (e.last + stride) & mask
        if predicted is not None:
            predictions += 1
            if gated:
                slot = pc if cunlim else (pc >> cshift) & cmask
                cur = cget(slot, 0)
                if predicted == actual:
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
                cdata[slot] = cur
            elif predicted == actual:
                correct += 1
        if e is None:
            e = _DFCMEntry()
            e.last = actual
            e.seen = 1
            data[idx] = e
        elif e.seen == 0:
            e.last = actual
            e.seen = 1
        else:
            stride = (actual - e.last) & mask
            strides = e.strides
            if key >= 0:
                l2[key] = stride
                hcache[idx] = (pc,
                               (h * hmul + stride - strides[0] * hmul_k
                                + csalt) & mask,
                               csalt)
            strides.append(stride)
            if len(strides) > order:
                strides.pop(0)
            e.last = actual
            e.seen += 1
    l1.accesses += n
    stats.attempts += n
    stats.predictions += predictions
    stats.correct += correct
    stats.confident += confident
    stats.confident_correct += confident_correct
