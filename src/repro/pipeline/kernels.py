"""Event-driven SoA kernel for the out-of-order pipeline.

:func:`run_fast` re-implements :meth:`OutOfOrderCore.run` as one fused
loop over flat state, applying the same playbook the predictor kernels in
:mod:`repro.core.kernels` apply to the profile runs:

* **SoA reorder buffer.**  The ROB is a ring of preallocated parallel
  columns indexed by ``seq & ring_mask`` (the ring is the ROB size
  rounded up to a power of two) — state, issue ordinal,
  prediction/confidence/tag, speculation flags — instead of a deque of
  ``_Entry`` objects.  The trace index of an entry is not stored at all:
  dispatch consumes the fetch queue in order, so it is always
  ``trace_start + seq``.  Register dataflow is *static* — the producer
  of each source operand is the latest earlier writer of that register
  — so producer/consumer edges are precomputed once per trace; a
  producer seq older than the retire head is complete by construction
  (only ``_DONE`` entries retire, and a selective-reissue squash can
  never reach a retired entry because every transitive consumer of a
  completing producer is younger than it), which turns every
  dependency test into a couple of integer compares with no dict in
  sight.  Speculative value use additionally snapshots each entry's
  *live* producers at dispatch (``e_deps``), mirroring the object
  path's edge registration, so squash cascades walk exactly the edges
  the object core registered.

* **Packed-native fetch.**  The fetch queue is a pair of cursors into
  the :class:`~repro.trace.packed.PackedTrace` columns; no
  ``Instruction`` is ever materialised.  A per-trace memo, keyed on the
  trace's column dict identity, keeps only what every run reads: the
  static dataflow edges, the fetch-event bytes below and the timing
  memos, so the repeated runs of a fig13/fig19 sweep share them.  Line
  ids are one shift of the PC or address where they are read, and src
  registers are unpacked only while the edges are built.  I-cache,
  gshare and d-cache accesses are inlined over locally bound
  buckets/counter lists, with the access/miss/lookup counters
  accumulated as plain ints and flushed to the shared model objects
  once at the end.  Because fetch consumes the trace strictly in order,
  the entire front end is also precomputable: from pristine
  i-cache/branch-predictor state the line hit/miss and
  predict-correct/mispredict outcome of every instruction is a trace
  property, independent of back-end timing, so they are solved once per
  trace into a shared event-byte column and each run's fetch phase just
  reads it (final front-end state is restored from a snapshot, or by
  replaying the consumed prefix after a truncated ``max_cycles`` run).

* **Event-driven scheduling.**  Completion latencies are bounded, so
  in-flight instructions live in a timing wheel of ``max_latency + 1``
  cycle buckets; records are ``(issue_ordinal << bits) | slot`` ints,
  appended in issue order — which *is* the object path's ``in_flight``
  scan order — and validated against the slot's current issue ordinal,
  so records orphaned by a selective-reissue squash drop out for free.
  Issue is wakeup driven: dispatch pushes an entry onto a seq-ordered
  ready heap when its producers are all complete (or passable on a
  confident prediction), and a completing producer re-evaluates its
  waiting consumers and pushes the newly unblocked ones.  Pops
  re-validate readiness against live state, so duplicate and stale
  candidates drop out; draining oldest-first under the width/FU/port
  budgets makes the same selection the object path's in-order ROB scan
  makes, without ever visiting a blocked entry.  As in the object
  path's ``_ready``, an entry that passes an incomplete producer on a
  confident prediction is marked as having used speculation the moment
  it is *evaluated* ready — even if a d-cache port holds it back that
  cycle.  The outer loop then jumps straight to the next cycle at which
  any phase can act (retirable head, ready entry, next wheel bucket,
  dispatchable fetch queue, fetch reopening); a skipped cycle is
  provably a no-op for every counter and every architectural state, so
  cycle counts and all per-cycle interactions come out bit-identical.

* **Fused value-prediction hooks.**  The ``vp.py`` adapters are
  compiled into dispatch/complete closures over the flat predictor
  state (ring-buffer GVQ/HGVQ,
  :class:`~repro.core.table.FlatGDiffTable`, dict-backed local tables),
  with prediction-stats and confidence training inlined and stat
  counters flushed at the end.  Each local family (constant, last
  value, stride, DFCM) has one compiled form, the
  ``predict``/``train``/``finalize`` closures of :func:`_local_ops`: a
  local adapter's hooks call its ``predict`` and ``train`` around the
  inlined gate lookup and scoring, and the HGVQ hooks call the filler's
  at dispatch and write-back.  The gDiff paths keep lazy
  difference vectors: queue pushes go to an append-only log (HGVQ
  deposits carry a write-back ordinal so out-of-order deposits read
  back exactly the values a train-time snapshot saw), trained rows are
  kept as ``(actual, window position)`` pairs, and the common
  sticky-hit train costs one on-demand difference compare instead of an
  order-n vector build.  Rows and the queue ring are materialised into
  the shared flat arrays once at the end; as in the profile kernels,
  ``_diffs`` words past a row's ``_valid`` count and the predictor's
  ``_scratch`` buffer are unreachable garbage and may differ from the
  object path's residue.

* **Shared timing solutions.**  Without speculative value use the
  machine timing is provably independent of the attached predictor —
  the hooks only observe — so the first pristine passive run over a
  trace/config records the interleaved dispatch/complete order of
  value instructions plus the final cache/branch state, and every
  later pristine passive run over the same trace replays only the
  value-prediction side.  A fig13/fig16-style sweep therefore pays for
  one machinery pass per trace, not one per scheme (the in-process
  trace memo in :mod:`repro.trace.cache` extends the sharing across
  experiment calls).

Shapes the kernel does not model decline cleanly — :func:`run_fast`
returns ``None`` before mutating anything and the caller falls back to
the object loop: attached telemetry (the object path owns the per-cycle
occupancy/stall accounting, and a gDiff table counts its aliasing
conflicts only while a registry is attached, so the hooks count none),
subclassed cores or adapters, plain
``Instruction`` lists and other non-packed inputs, tagged tables,
attached event recorders, and predictor shapes outside the
LocalPredictorAdapter/SGVQ/HGVQ families.
``REPRO_KERNELS=0`` disables the kernel entirely (checked per call).

Equivalence — bit-identical :class:`SimResult` plus identical cache,
branch-predictor, predictor-table, queue, confidence and stats state —
is asserted by ``tests/test_pipeline_equivalence.py`` across predictor
schemes, seeds, gating and reissue policies.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from operator import add, sub
from typing import Optional

from ..core.gdiff import GDiffPredictor
from ..core.gvq import GlobalValueQueue, SlottedValueQueue
from ..core.hybrid import HybridGDiffPredictor
from ..core.kernels import _local_table_fits, kernels_enabled
from ..core.table import FlatGDiffTable
from ..predictors.base import ConstantPredictor, PredictionStats
from ..predictors.confidence import ConfidenceTable
from ..predictors.dfcm import DFCMPredictor, _DFCMEntry
from ..predictors.fcm import _HASH_MULT
from ..predictors.last_value import LastValuePredictor
from ..predictors.stride import StridePredictor, _StrideEntry
from ..tables import DirectMappedTable
from ..trace.packed import PackedTrace
from ..wordops import WORD_MASK
from .ooo import OutOfOrderCore, SimResult
from .vp import HGVQAdapter, LocalPredictorAdapter, SGVQAdapter


# ----------------------------------------------------------------------
# Per-trace memo
# ----------------------------------------------------------------------
class _SrcLut(dict):
    """Packed src word -> tuple of register numbers, built on demand."""

    def __missing__(self, word):
        regs = []
        n = word & 0xF
        w = word >> 4
        while n:
            regs.append(w & 0x3F)
            w >>= 6
            n -= 1
        t = self[word] = tuple(regs)
        return t


_SRC_LUT = _SrcLut()

#: flags byte -> 1 when the produces-value bit (0x40) is set.
_PRODUCES_TBL = bytes(1 if b & 0x40 else 0 for b in range(256))

#: id(trace._cols) -> (cols, aux dict).  The strong reference to the
#: column dict pins its id, so a recycled id can never alias a dead
#: trace; the cache is a small FIFO so long campaigns stay bounded.
_AUX_CACHE = {}
_AUX_CAP = 12


def _trace_aux(cols):
    key = id(cols)
    hit = _AUX_CACHE.get(key)
    if hit is not None and hit[0] is cols:
        return hit[1]
    if len(_AUX_CACHE) >= _AUX_CAP:
        _AUX_CACHE.pop(next(iter(_AUX_CACHE)))
    aux = {}
    _AUX_CACHE[key] = (cols, aux)
    return aux


# ----------------------------------------------------------------------
# Fused value-prediction hooks
# ----------------------------------------------------------------------
def _conf_bind(vp):
    """Bind the confidence table's gate/train state as flat locals.

    Returns ``(cdata, cunlim, cmask, cshift, cup, cdown, cmax, cthr)``;
    the scoring sequence itself (stats record, then confidence train —
    exactly ``PipelinePredictor._score``) is inlined at each use site so
    no per-instruction call survives.
    """
    conf = vp.confidence
    ctab = conf._table
    cunlim = ctab.entries is None
    return (ctab._data, cunlim, 0 if cunlim else ctab.entries - 1,
            ctab.pc_shift, conf.up, conf.down, conf.max_value,
            conf.threshold)


def _local_ops(inner, spec_update):
    """Compile a local predictor into flat closures, or None to decline.

    The one compiled form of the constant, last-value, stride and DFCM
    families, shared by the local adapter's hooks and the HGVQ filler.
    Returns ``(predict, train, finalize)``: ``predict(pc)`` gives the
    value or None (with *spec_update*, a stride prediction also advances
    the entry's ``spec_ahead``); ``train(pc, tag, actual)`` counts the
    access, retires one speculation when *tag* is set (stride only) and
    trains; ``finalize()`` adds the access count to the table.  The
    constant predictor has no ``train`` or ``finalize`` (None).  Declines
    other predictor types and tables that are not a plain untagged
    :class:`~repro.tables.DirectMappedTable` without conflict tracking.

    DFCM keeps its second-level context hash *rolling* (two multiplies
    instead of *order*, bit-exact) in a slot-keyed, pc-validated cache
    shared by predict and train: the event-order hooks revisit a slot
    between its trains, where the row-major profile kernel keeps the
    hash in row locals.
    """
    kind = type(inner)
    if kind is ConstantPredictor:
        value = inner.value
        return (lambda pc: value), None, None
    if kind is StridePredictor or kind is LastValuePredictor:
        table = inner._table
    elif kind is DFCMPredictor:
        table = inner._l1
    else:
        return None
    if type(table) is not DirectMappedTable or not _local_table_fits(table):
        return None
    data = table._data
    dget = data.get
    unlim = table.entries is None
    mask = 0 if unlim else table.entries - 1
    shift = table.pc_shift
    M = WORD_MASK
    accesses = 0

    def finalize():
        table.accesses += accesses

    if kind is LastValuePredictor:
        def predict(pc):
            return dget(pc if unlim else (pc >> shift) & mask)

        def train(pc, tag, actual):
            nonlocal accesses
            accesses += 1
            data[pc if unlim else (pc >> shift) & mask] = actual

        return predict, train, finalize

    if kind is StridePredictor:
        two_delta = inner.two_delta

        def predict(pc):
            e = dget(pc if unlim else (pc >> shift) & mask)
            if e is None or e.seen == 0:
                return None
            predicted = (e.last + e.stride * (1 + e.spec_ahead)) & M
            if spec_update:
                e.spec_ahead += 1
            return predicted

        def train(pc, tag, actual):
            nonlocal accesses
            accesses += 1
            idx = pc if unlim else (pc >> shift) & mask
            e = dget(idx)
            if e is None:
                e = _StrideEntry()
                e.last = actual
                e.seen = 1
                data[idx] = e
                return
            if tag and e.spec_ahead > 0:
                e.spec_ahead -= 1
            if e.seen == 0:
                e.last = actual
                e.seen = 1
                return
            delta = (actual - e.last) & M
            if two_delta:
                if delta == e.candidate:
                    e.stride = delta
                e.candidate = delta
            else:
                e.stride = delta
            e.last = actual
            e.seen += 1

        return predict, train, finalize

    l2 = inner._l2
    l2get = l2.get
    order = inner.order
    l2e = inner.l2_entries
    hmul = _HASH_MULT
    hmul_k = pow(hmul, order, 1 << 64)
    cmul = (hmul_k - hmul_k * hmul) & M
    # slot -> (pc, rolling level-2 hash, salt term); a cache entry exists
    # only while it matches the slot's latest stride context (every train
    # of a full-context slot rewrites it, and contexts never shrink, so a
    # short-context slot can hold no entry).
    hcache = {}
    hget = hcache.get

    def predict(pc):
        idx = pc if unlim else (pc >> shift) & mask
        e = dget(idx)
        if e is None:
            return None
        strides = e.strides
        if len(strides) < order:
            return None
        cached = hget(idx)
        if cached is not None and cached[0] == pc:
            h = cached[1]
        else:
            h = pc & M
            for v in strides:
                h = (h * hmul + v) & M
            hcache[idx] = (pc, h, (pc * cmul) & M)
        s2 = l2get(h % l2e)
        if s2 is None:
            return None
        return (e.last + s2) & M

    def train(pc, tag, actual):
        nonlocal accesses
        accesses += 1
        idx = pc if unlim else (pc >> shift) & mask
        e = dget(idx)
        if e is None:
            e = _DFCMEntry()
            e.last = actual
            e.seen = 1
            data[idx] = e
            return
        if e.seen == 0:
            e.last = actual
            e.seen = 1
            return
        stride = (actual - e.last) & M
        strides = e.strides
        if len(strides) >= order:
            cached = hget(idx)
            if cached is not None and cached[0] == pc:
                h = cached[1]
                csalt = cached[2]
            else:
                h = pc & M
                for v in strides:
                    h = (h * hmul + v) & M
                csalt = (pc * cmul) & M
            l2[h % l2e] = stride
            hcache[idx] = (pc,
                           (h * hmul + stride - strides[0] * hmul_k
                            + csalt) & M,
                           csalt)
        strides.append(stride)
        if len(strides) > order:
            strides.pop(0)
        e.last = actual
        e.seen += 1

    return predict, train, finalize


def _flat_state(table):
    """Bind a FlatGDiffTable's full train-side state, or None to decline.

    The bound array locals survive ``_grow`` because the arena extends
    its arrays/bytearrays in place.
    """
    if type(table) is not FlatGDiffTable or table.tagged \
            or table._meters is not None:
        return None
    return (
        table.entries is None,            # unlim
        table._rows.get,                  # rows_get
        table._present,
        table._dist,
        table._valid,
        table._diffs,
        0 if table.entries is None else table.entries - 1,  # mask
        table.pc_shift,
        table.order,
        table.policy == "sticky-nearest",  # sticky
        table.policy == "farthest",        # farthest
        table.refresh_on_match,
    )


def _local_vp(vp):
    """Fused LocalPredictorAdapter hooks over :func:`_local_ops`.

    Dispatch calls the family's ``predict`` and inlines the
    confidence-gate lookup; complete inlines the stats / confidence
    scoring and calls ``train``.  The tag is ``spec_update`` exactly when
    the dispatch predicted, so write-back retires only the speculations
    that dispatch made.
    """
    ops = _local_ops(vp.inner, vp.spec_update)
    if ops is None:
        return None
    predict, train, inner_finalize = ops
    stats = vp.stats
    cdata, cunlim, cmask, cshift, cup, cdown, cmax, cthr = _conf_bind(vp)
    cget = cdata.get
    spec_mode = vp.spec_update
    attempts = predictions = correct = confident_n = confident_correct = 0

    def dispatch(pc):
        predicted = predict(pc)
        if predicted is None:
            return None, False, False
        return predicted, cget(pc if cunlim else (pc >> cshift) & cmask,
                               0) >= cthr, spec_mode

    def complete(pc, predicted, confident, tag, actual):
        nonlocal attempts, predictions, correct, confident_n, \
            confident_correct
        attempts += 1
        if predicted is not None:
            predictions += 1
            cidx = pc if cunlim else (pc >> cshift) & cmask
            cur = cget(cidx, 0)
            if predicted == actual:
                correct += 1
                if confident:
                    confident_n += 1
                    confident_correct += 1
                cur += cup
                if cur > cmax:
                    cur = cmax
            else:
                if confident:
                    confident_n += 1
                cur -= cdown
                if cur < 0:
                    cur = 0
            cdata[cidx] = cur
        if train is not None:
            train(pc, tag, actual)

    def finalize():
        if inner_finalize is not None:
            inner_finalize()
        stats.attempts += attempts
        stats.predictions += predictions
        stats.correct += correct
        stats.confident += confident_n
        stats.confident_correct += confident_correct

    return dispatch, complete, finalize


def _sgvq_vp(vp):
    """Fused SGVQ hooks: dispatch-time predict, completion-order train.

    Queue pushes go to an append-only log seeded from the live ring
    window (absolute queue position ``k`` reads as ``log[k - logbase]``)
    and trained rows are kept lazily as ``(actual, window top)``; the
    ring, the flat table rows and all counters are materialised in
    ``finalize``.

    Training checks the locked distance first (sticky policy).  Failing
    that, it finds the matching distance with C builtins over slices of
    ``log``, nearest first (``farthest``: from the other end): for a
    lazily stored row, ``xs = list(map(sub, then, now))`` over the two
    window slices, searched with ``in``/``list.index`` for
    ``t = (la - actual) mod 2^64`` or ``t - 2^64``; for a row already in
    the flat arrays, ``map(add, stored diffs, now)`` searched for
    ``actual`` or ``actual + 2^64``.  A miss still costs O(order) work,
    but in C builtins rather than a Python loop per distance.
    """
    gd = vp.gdiff
    if type(gd) is not GDiffPredictor:
        return None
    queue = gd.queue
    if type(queue) is not GlobalValueQueue:
        return None
    table = gd.table
    ts = _flat_state(table)
    if ts is None:
        return None
    (unlim, rows_get, tpresent, tdist, tvalid, tdiffs, tmask, tshift,
     torder, sticky, farthest, refresh) = ts
    stats = vp.stats
    cdata, cunlim, cmask, cshift, cup, cdown, cmax, cthr = _conf_bind(vp)
    cget = cdata.get
    attempts = predictions = correct = confident_n = confident_correct = 0
    M = WORD_MASK
    wrap = M + 1
    trows = table._rows
    qbuf = queue._buf
    qcap = queue._capacity
    qdelay = queue.delay
    fullmask = queue._full_mask
    qcount0 = queue._count
    qcount = qcount0
    vmask = queue._vmask
    if vmask & (vmask + 1):
        return None     # non-contiguous valid mask: not a queue state
    vc = vmask.bit_length()
    fullbits = fullmask.bit_length()
    logbase = qcount0 - qcap
    if logbase < 0:
        logbase = 0
    log = [qbuf[k % qcap] for k in range(logbase, qcount0)]
    log_append = log.append
    lazy = {}       # row -> (actual, absolute window-top position)
    lazy_get = lazy.get
    accesses = 0
    occupied = 0
    nrows = table._nrows
    last_sel = -1

    def dispatch(pc):
        if unlim:
            row = rows_get(pc, -1)
        else:
            row = (pc >> tshift) & tmask
            if not tpresent[row]:
                row = -1
        predicted = None
        if row >= 0:
            d = tdist[row]
            if d and d <= tvalid[row] and (vmask >> (d - 1)) & 1:
                base = log[qcount - qdelay - d - logbase]
                lz = lazy_get(row)
                if lz is None:
                    predicted = (base + tdiffs[row * torder + d - 1]) & M
                else:
                    predicted = (base + lz[0]
                                 - log[lz[1] - d - logbase]) & M
        if predicted is None:
            return None, False, None
        return predicted, cget(pc if cunlim else (pc >> cshift) & cmask,
                               0) >= cthr, None

    def complete(pc, predicted, confident, tag, actual):
        nonlocal qcount, vmask, vc, last_sel, accesses, occupied, nrows, \
            attempts, predictions, correct, confident_n, confident_correct
        attempts += 1
        if predicted is not None:
            predictions += 1
            cidx = pc if cunlim else (pc >> cshift) & cmask
            cur = cget(cidx, 0)
            if predicted == actual:
                correct += 1
                if confident:
                    confident_n += 1
                    confident_correct += 1
                cur += cup
                if cur > cmax:
                    cur = cmax
            else:
                if confident:
                    confident_n += 1
                cur -= cdown
                if cur < 0:
                    cur = 0
            cdata[cidx] = cur
        accesses += 1
        topb = qcount - qdelay - logbase   # log index of the window top
        # -- resolve/create the row (lookup_or_create accounting)
        if unlim:
            row = rows_get(pc, -1)
            if row < 0:
                if nrows * torder == len(tdiffs):
                    table._grow()
                row = nrows
                nrows += 1
                trows[pc] = row
                tpresent[row] = 1
                occupied += 1
                tdist[row] = 0
                tvalid[row] = 0
        else:
            row = (pc >> tshift) & tmask
            if not tpresent[row]:
                tpresent[row] = 1
                occupied += 1
                tdist[row] = 0
                tvalid[row] = 0
        # -- match & select (paper's update rule), diffs compared lazily
        sv = tvalid[row]
        limit = sv if sv < vc else vc
        chosen = 0
        if limit:
            lz = lazy_get(row)
            # xs[k] belongs to distance limit - k; log[topb - limit] is
            # never before the log's start (limit <= vc).
            if lz is None:
                rbase = row * torder
                d = tdist[row]
                if sticky and 0 < d <= limit and tdiffs[rbase + d - 1] == \
                        (actual - log[topb - d]) & M:
                    chosen = d
                else:
                    # stored + now == actual (mod 2^64), sum < 2^65
                    xs = list(map(add, reversed(tdiffs[rbase:rbase + limit]),
                                  log[topb - limit:topb]))
                    t = actual
                    t2 = actual + wrap
            else:
                # (la - log[lwb-d]) == (actual - log[topb-d])  (mod 2^64)
                # rearranges to log[lwb-d] - log[topb-d] == t (mod 2^64),
                # whose unreduced difference is t or t - 2^64.
                t = (lz[0] - actual) & M
                lwb = lz[1] - logbase
                d = tdist[row]
                if sticky and 0 < d <= limit and \
                        (log[lwb - d] - log[topb - d]) & M == t:
                    chosen = d
                else:
                    xs = list(map(sub, log[lwb - limit:lwb],
                                  log[topb - limit:topb]))
                    t2 = t - wrap
            if not chosen:
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
            tdist[row] = chosen
            if refresh:
                lazy[row] = (actual, topb + logbase)
                tvalid[row] = vc
            last_sel = chosen
        else:
            lazy[row] = (actual, topb + logbase)
            tvalid[row] = vc
            last_sel = 0
        # -- push into the (logged) queue
        log_append(actual)
        qcount += 1
        if qcount > qdelay:
            vmask = ((vmask << 1) | 1) & fullmask
            if vc < fullbits:
                vc += 1

    def finalize():
        queue._count = qcount
        queue._vmask = vmask
        start = qcount - qcap
        if start < qcount0:
            start = qcount0
        for k in range(start, qcount):
            qbuf[k % qcap] = log[k - logbase]
        for row, (la, lw) in lazy.items():
            rbase = row * torder
            lwb = lw - logbase
            for dd in range(tvalid[row]):
                tdiffs[rbase + dd] = (la - log[lwb - 1 - dd]) & M
        table.accesses += accesses
        table._occupied += occupied
        table._nrows = nrows
        if last_sel >= 0:
            gd.last_distance = last_sel if last_sel else None
        stats.attempts += attempts
        stats.predictions += predictions
        stats.correct += correct
        stats.confident += confident_n
        stats.confident_correct += confident_correct

    return dispatch, complete, finalize


def _hgvq_vp(vp):
    """Fused HGVQ hooks over deposit-versioned absolute queue slots.

    The slotted ring becomes three absolute-indexed lists — filler
    content, deposited value, deposit ordinal — so a lazily stored row
    ``(actual, seq, ordinal)`` can re-read exactly the window snapshot
    its train step saw even after later out-of-order deposits mutate
    those positions.  Every in-window read stays within the lists
    because deposits and window reads are both bounded by the ring
    capacity.  The filler is its family's :func:`_local_ops` form:
    ``predict`` seeds each slot at dispatch (None seeds 0) and ``train``
    runs at write-back.
    """
    hy = vp.hybrid
    if type(hy) is not HybridGDiffPredictor:
        return None
    queue = hy.queue
    if type(queue) is not SlottedValueQueue:
        return None
    table = hy.table
    ts = _flat_state(table)
    if ts is None:
        return None
    fops = _local_ops(hy.filler, False)
    if fops is None:
        return None
    fpredict, ftrain, ffinal = fops
    (unlim, rows_get, tpresent, tdist, tvalid, tdiffs, tmask, tshift,
     torder, sticky, farthest, refresh) = ts
    stats = vp.stats
    cdata, cunlim, cmask, cshift, cup, cdown, cmax, cthr = _conf_bind(vp)
    cget = cdata.get
    attempts = predictions = correct = confident_n = confident_correct = 0
    M = WORD_MASK
    trows = table._rows
    qbuf = queue._buf
    qcap = queue._capacity
    qsize = queue.size
    next_seq0 = queue._next_seq
    next_seq = next_seq0
    sbase = next_seq0 - qcap
    if sbase < 0:
        sbase = 0
    BIG = 1 << 62
    # Pre-run ring content counts as deposited before any train this run.
    fillv = [qbuf[k % qcap] for k in range(sbase, next_seq0)]
    dval = [0] * (next_seq0 - sbase)
    dord = [BIG] * (next_seq0 - sbase)
    curw = fillv[:]  # latest visible value per slot (deposit else fill)
    fillv_append = fillv.append
    dval_append = dval.append
    dord_append = dord.append
    curw_append = curw.append
    wb_ord = 0
    lazy = {}       # row -> (actual, train seq, train ordinal)
    lazy_get = lazy.get
    late = 0
    accesses = 0
    occupied = 0
    nrows = table._nrows
    last_sel = -1

    def dispatch(pc):
        nonlocal next_seq
        seq = next_seq
        if unlim:
            row = rows_get(pc, -1)
        else:
            row = (pc >> tshift) & tmask
            if not tpresent[row]:
                row = -1
        predicted = None
        if row >= 0:
            d = tdist[row]
            if d and d <= tvalid[row]:
                depth = seq - sbase
                if depth > qcap:
                    depth = qcap
                if depth > qsize:
                    depth = qsize
                if d <= depth:
                    p = seq - d - sbase
                    base = curw[p]
                    lz = lazy_get(row)
                    if lz is None:
                        predicted = (base
                                     + tdiffs[row * torder + d - 1]) & M
                    else:
                        p0 = lz[1] - d - sbase
                        b0 = dval[p0] if dord[p0] < lz[2] else fillv[p0]
                        predicted = (base + lz[0] - b0) & M
        fv = fpredict(pc)
        fv = (fv if fv is not None else 0) & M
        fillv_append(fv)
        curw_append(fv)
        dval_append(0)
        dord_append(BIG)
        next_seq = seq + 1
        if predicted is None:
            return None, False, seq
        return predicted, cget(pc if cunlim else (pc >> cshift) & cmask,
                               0) >= cthr, seq

    def complete(pc, predicted, confident, seq, actual):
        nonlocal late, last_sel, wb_ord, accesses, occupied, nrows, \
            attempts, predictions, correct, confident_n, \
            confident_correct
        attempts += 1
        if predicted is not None:
            predictions += 1
            cidx = pc if cunlim else (pc >> cshift) & cmask
            cur = cget(cidx, 0)
            if predicted == actual:
                correct += 1
                if confident:
                    confident_n += 1
                    confident_correct += 1
                cur += cup
                if cur > cmax:
                    cur = cmax
            else:
                if confident:
                    confident_n += 1
                cur -= cdown
                if cur < 0:
                    cur = 0
            cdata[cidx] = cur
        my_ord = wb_ord
        wb_ord = my_ord + 1
        if seq < next_seq - qcap or seq >= next_seq:
            late += 1
        else:
            rel = seq - sbase
            dval[rel] = actual
            dord[rel] = my_ord
            curw[rel] = actual
        oldest = next_seq - qcap
        if oldest < 0:
            oldest = 0
        vc = seq - oldest
        if vc < 0:
            vc = 0
        elif vc > qsize:
            vc = qsize
        accesses += 1
        # -- resolve/create the row (lookup_or_create accounting)
        if unlim:
            row = rows_get(pc, -1)
            if row < 0:
                if nrows * torder == len(tdiffs):
                    table._grow()
                row = nrows
                nrows += 1
                trows[pc] = row
                tpresent[row] = 1
                occupied += 1
                tdist[row] = 0
                tvalid[row] = 0
        else:
            row = (pc >> tshift) & tmask
            if not tpresent[row]:
                tpresent[row] = 1
                occupied += 1
                tdist[row] = 0
                tvalid[row] = 0
        # -- match & select, window values versioned at this ordinal
        sv = tvalid[row]
        limit = sv if sv < vc else vc
        chosen = 0
        seqb = seq - sbase
        lz = lazy_get(row)
        if lz is None:
            rbase = row * torder
            if sticky:
                d = tdist[row]
                if 0 < d <= limit:
                    if tdiffs[rbase + d - 1] == \
                            (actual - curw[seqb - d]) & M:
                        chosen = d
            if not chosen and limit:
                if farthest:
                    scan = range(limit, 0, -1)
                else:
                    scan = range(1, limit + 1)
                for d in scan:
                    if tdiffs[rbase + d - 1] == \
                            (actual - curw[seqb - d]) & M:
                        chosen = d
                        break
        else:
            # (la - b0(d)) == (actual - base(d))  (mod 2^64), with the
            # per-scan constant hoisted; base is the live window (cur),
            # b0 the snapshot the lazy train saw (deposit-versioned).
            t = (lz[0] - actual) & M
            lt = lz[2]
            dd0 = lz[1] - sbase - seqb
            if sticky:
                d = tdist[row]
                if 0 < d <= limit:
                    p = seqb - d
                    p0 = p + dd0
                    b0 = dval[p0] if dord[p0] < lt else fillv[p0]
                    if (b0 - curw[p]) & M == t:
                        chosen = d
            if not chosen and limit:
                if farthest:
                    p = seqb - limit
                    while p < seqb:
                        p0 = p + dd0
                        b0 = dval[p0] if dord[p0] < lt else fillv[p0]
                        if (b0 - curw[p]) & M == t:
                            chosen = seqb - p
                            break
                        p += 1
                else:
                    p = seqb - 1
                    stop = seqb - limit
                    while p >= stop:
                        p0 = p + dd0
                        b0 = dval[p0] if dord[p0] < lt else fillv[p0]
                        if (b0 - curw[p]) & M == t:
                            chosen = seqb - p
                            break
                        p -= 1
        if chosen:
            tdist[row] = chosen
            if refresh:
                lazy[row] = (actual, seq, my_ord)
                tvalid[row] = vc
            last_sel = chosen
        else:
            lazy[row] = (actual, seq, my_ord)
            tvalid[row] = vc
            last_sel = 0
        if ftrain is not None:
            ftrain(pc, False, actual)

    def finalize():
        queue._next_seq = next_seq
        queue.late_deposits += late
        start = next_seq - qcap
        if start < next_seq0:
            start = next_seq0
        for k in range(start, next_seq):
            qbuf[k % qcap] = curw[k - sbase]
        for row, (la, lw, lt) in lazy.items():
            rbase = row * torder
            lwb = lw - sbase
            for dd in range(tvalid[row]):
                p = lwb - 1 - dd
                base = dval[p] if dord[p] < lt else fillv[p]
                tdiffs[rbase + dd] = (la - base) & M
        table.accesses += accesses
        table._occupied += occupied
        table._nrows = nrows
        if last_sel >= 0:
            hy.last_distance = last_sel if last_sel else None
        stats.attempts += attempts
        stats.predictions += predictions
        stats.correct += correct
        stats.confident += confident_n
        stats.confident_correct += confident_correct
        if ffinal is not None:
            ffinal()

    return dispatch, complete, finalize


def _build_vp(vp):
    """Compile adapter *vp* into (dispatch, complete, finalize) closures.

    Returns None (declining the whole run) for adapter shapes the kernel
    does not model: subclasses, attached event recorders, non-standard
    confidence tables, or inner predictors without a fused form.
    """
    if vp._events is not None:
        return None
    conf = vp.confidence
    if type(conf) is not ConfidenceTable \
            or type(conf._table) is not DirectMappedTable \
            or conf._table.tagged:
        return None
    if type(vp.stats) is not PredictionStats:
        return None
    kind = type(vp)
    if kind is LocalPredictorAdapter:
        return _local_vp(vp)
    if kind is SGVQAdapter:
        return _sgvq_vp(vp)
    if kind is HGVQAdapter:
        return _hgvq_vp(vp)
    return None


# ----------------------------------------------------------------------
# The pipeline kernel
# ----------------------------------------------------------------------
def run_fast(core, trace, max_cycles=None, on_progress=None,
             total=None, progress_every=8192) -> Optional[SimResult]:
    """Run *core* over a packed *trace* with the fused kernel, if it fits.

    Returns the :class:`SimResult` (bit-identical to what the object loop
    would produce, with identical end state in the caches, branch
    predictor, and value-prediction adapter), or ``None`` — with nothing
    mutated — when the configuration is not modelled and the caller must
    fall back to the object path.

    Scheduling is event driven on a timing wheel plus a wakeup network:

    * Register dataflow is static — the producer of each source operand
      is the latest earlier writer of that register — so the dependency
      and consumer edges are precomputed once per trace into auxiliary
      columns and shared by every run over it.  A static producer is
      live exactly when its seq is at or above the retire head (the
      run-local writers map of the object path never holds a retired or
      overwritten entry), which makes the dispatch-time dependency scan
      a couple of integer compares with no dict in sight.
    * In-flight instructions live in a wheel of ``max_latency + 1``
      cycle buckets holding ``(issue_ordinal << bits) | slot`` ints.
      Bucket append order is issue order — exactly the object path's
      ``in_flight`` scan order — and every live record's ready cycle is
      provably the cycle its bucket is visited, so completions pop in
      the object order with no sorting at all.  Records orphaned by a
      selective-reissue squash are dropped by their stale ordinal.
    * Issue selection is a seq-ordered heap of *candidate* entries:
      an entry is pushed when dispatch finds it ready, and whenever one
      of its static producers completes while it is ready.  Pops
      re-validate readiness against live state, so duplicates and
      entries re-blocked by a squash drop out; draining oldest-first
      under the width/FU/port budgets makes the same selection as the
      object path's in-order ROB scan without visiting blocked entries.
      As in the object path's ``_ready``, an entry that passes an
      incomplete producer on a confident prediction is marked as having
      used speculation the moment it is *evaluated* ready — even if a
      d-cache port holds it back that cycle.

    The loop then jumps straight to the next cycle at which any phase
    can act (retirable head, ready-heap entry, next wheel bucket,
    dispatchable fetch queue, or fetch reopening); skipped cycles are
    provably no-ops on every architectural and statistical quantity.
    """
    if not kernels_enabled():
        return None
    if type(core) is not OutOfOrderCore:
        return None
    if core.metrics is not None:
        return None  # per-cycle occupancy/stall telemetry: object path
    if type(trace) is not PackedTrace:
        return None
    if on_progress is not None and progress_every <= 0:
        return None
    cfg = core.config
    if cfg.width < 1 or cfg.function_units < 1 or cfg.rob_entries < 1:
        return None
    vp = core.vp
    if vp is not None:
        hooks = _build_vp(vp)
        if hooks is None:
            return None
        vp_dispatch, vp_complete, vp_finalize = hooks
        has_vp = True
    else:
        vp_dispatch = vp_complete = vp_finalize = None
        has_vp = False

    heappush = _heappush
    heappop = _heappop

    result = SimResult()
    if total is None:
        total = len(trace)
    speculate = core.speculate
    spec_vp = speculate and has_vp
    track_delay = core.track_value_delay
    track_vc = has_vp or track_delay
    hist = result.value_delay_histogram

    # -- trace columns (absolute indices over the view window) ----------
    cols = trace._cols
    pcs = cols["pcs"]
    ops = cols["ops"]
    flags = cols["flags"]
    values = cols["values"]
    addrs = cols["addrs"]
    tb = trace._start
    t_stop = trace._stop

    # -- machine parameters ---------------------------------------------
    width = cfg.width
    R = cfg.rob_entries
    function_units = cfg.function_units
    dcache_ports = cfg.dcache_ports
    fq_cap = 2 * width * 4
    redirect_penalty = cfg.redirect_penalty
    # The object path counts down ``remaining`` starting the cycle after
    # issue and completes at <= 0, i.e. after max(1, latency) cycles.
    po = cfg.pipe_overhead
    load_hit_total = max(1, cfg.agen_latency + cfg.dcache_hit_latency + po)
    load_miss_total = max(1, cfg.agen_latency + cfg.dcache_hit_latency
                          + cfg.dcache.miss_penalty + po)
    store_total = max(1, cfg.agen_latency + po)
    br_total = max(1, cfg.branch_latency + po)
    ialu_total = max(1, cfg.ialu_latency + po)
    LIM = max_cycles if max_cycles is not None else 1 << 62

    # -- caches / branch predictor (buckets shared, counters local) -----
    icache = core.icache
    i_lines = icache._lines
    i_sets = icache.sets
    i_ways = icache.ways
    line_shift = icache._line_shift  # == the fetch line shift in ooo.py
    ic_penalty = cfg.icache.miss_penalty
    i_acc = i_miss = 0
    dcache = core.dcache
    d_lines = dcache._lines
    d_sets = dcache.sets
    d_ways = dcache.ways
    d_shift = dcache._line_shift
    d_acc = d_miss = 0
    bp = core.branch_predictor
    gcounters = bp._counters
    gmask = bp._mask
    ghist = bp._history
    glook = gcorrect = 0

    # -- per-trace static dataflow (memoised across runs) --------------
    aux = _trace_aux(cols)
    flow = aux.get("dataflow")
    if flow is None:
        dests = cols["dests"]
        n = len(pcs)
        sdeps = [()] * n    # i -> static producer trace indices (per src)
        scons = [()] * n    # j -> sorted consumer trace indices
        writers = {}
        writers_get = writers.get
        for i, st in enumerate(map(_SRC_LUT.__getitem__, cols["srcs"])):
            if st:
                dep = None
                for reg in st:
                    j = writers_get(reg)
                    if j is not None:
                        if dep is None:
                            dep = [j]
                        else:
                            dep.append(j)
                        sc = scons[j]
                        if sc:
                            sc.append(i)
                        else:
                            scons[j] = [i]
                if dep is not None:
                    sdeps[i] = dep
            if flags[i] & 0x01:
                writers[dests[i]] = i
        flow = aux["dataflow"] = (sdeps, scons)
    sdeps, scons = flow

    # -- fetch-event precompute -----------------------------------------
    # Fetch consumes the trace strictly in order, so from pristine
    # front-end state the icache outcome and branch-prediction verdict
    # of every instruction are trace properties, independent of
    # back-end timing (stalls and redirects change *when* an
    # instruction is fetched, never *whether* its line probe hits or
    # its counter agrees).  They are precomputed once per trace and
    # shared by every run — speculative ones included.  Event byte:
    # low two bits icache (0 none / 1 line hit / 2 line miss), high
    # bits branch verdict (4 correct / 8 mispredicted).
    bp_pristine = bp.lookups == 0 and bp.correct == 0 and ghist == 0 \
        and gcounters.count(2) == len(gcounters)
    ic_pristine = icache.accesses == 0 and icache.misses == 0 \
        and not any(i_lines)
    fpre = None
    if bp_pristine and ic_pristine:
        fkey = ("fetch", tb, t_stop, i_sets, i_ways, line_shift, gmask)
        fent = aux.get(fkey)
        if fent is None:
            fpre = bytearray(t_stop)
            fl = [[] for _ in range(i_sets)]
            fgc = [2] * len(gcounters)
            fgh = 0
            ll = -1
            for fti in range(tb, t_stop):
                ev = 0
                line = pcs[fti] >> line_shift
                if line != ll:
                    ll = line
                    bucket = fl[line % i_sets]
                    try:
                        pos = bucket.index(line)
                    except ValueError:
                        ev = 2
                        bucket.insert(0, line)
                        if len(bucket) > i_ways:
                            bucket.pop()
                    else:
                        ev = 1
                        if pos:
                            bucket.insert(0, bucket.pop(pos))
                if ops[fti] == 3:
                    pc = pcs[fti]
                    gidx = ((pc >> 2) ^ fgh) & gmask
                    counter = fgc[gidx]
                    if flags[fti] & 0x10:
                        if counter < 3:
                            fgc[gidx] = counter + 1
                        fgh = ((fgh << 1) | 1) & gmask
                        ev += 4 if counter >= 2 else 8
                    else:
                        if counter > 0:
                            fgc[gidx] = counter - 1
                        fgh = (fgh << 1) & gmask
                        ev += 4 if counter < 2 else 8
                fpre[fti] = ev
            fent = aux[fkey] = (fpre, fgh, fgc, fl)
        fpre, fghist, fgcnt, filines = fent

    # -- passive timing memo --------------------------------------------
    # Without speculative value use the machine timing is provably
    # independent of the attached predictor: nothing ever passes an
    # incomplete producer, no reissue can fire, and the VP hooks only
    # observe.  Sweeps that run several passive schemes over one
    # trace/config (fig13, fig16) therefore share a single timing
    # solution: the first pristine run records the interleaved
    # dispatch/complete order of value instructions plus the final
    # cache/branch state, and later runs replay only the VP side.
    events = None
    timing_key = None
    if not spec_vp and bp_pristine and ic_pristine \
            and dcache.accesses == 0 and dcache.misses == 0 \
            and not any(d_lines):
        timing_key = ("timing", tb, t_stop, LIM, width, R,
                      function_units, dcache_ports, redirect_penalty,
                      load_hit_total, load_miss_total, store_total,
                      br_total, ialu_total, i_sets, i_ways, line_shift,
                      ic_penalty, d_sets, d_ways, d_shift, gmask)
        memo = aux.get(timing_key)
        if memo is not None and on_progress is None:
            mev, snap = memo
            (m_cycles, m_retired, m_vp, m_branches, m_mispred, m_icm,
             m_iacc, m_imiss, m_ilines, m_dacc, m_dmiss, m_dl,
             m_ghist, m_glook, m_gcorr, m_gcnt) = snap
            for b, sb in zip(i_lines, m_ilines):
                b[:] = sb
            for b, sb in zip(d_lines, m_dl):
                b[:] = sb
            gcounters[:] = m_gcnt
            bp._history = m_ghist
            bp.lookups += m_glook
            bp.correct += m_gcorr
            icache.accesses += m_iacc
            icache.misses += m_imiss
            dcache.accesses += m_dacc
            dcache.misses += m_dmiss
            result.cycles = m_cycles
            result.retired = m_retired
            result.retired_vp = m_vp
            result.branches = m_branches
            result.branch_mispredicts = m_mispred
            result.icache_misses = m_icm
            result.dcache_accesses = dcache.accesses
            result.dcache_misses = dcache.misses
            if track_vc:
                vpc = 0
                pend = {}
                pend_pop = pend.pop
                hist_get = hist.get
                for ev in mev:
                    if ev >= 0:
                        if has_vp:
                            pend[ev] = (vpc, vp_dispatch(pcs[ev]))
                        else:
                            pend[ev] = vpc
                    elif has_vp:
                        ti = ~ev
                        dvpc, (pred, conf_bit, tag) = pend_pop(ti)
                        if track_delay:
                            delay = vpc - dvpc
                            hist[delay] = hist_get(delay, 0) + 1
                        vpc += 1
                        vp_complete(pcs[ti], pred, conf_bit, tag,
                                    values[ti])
                    else:
                        delay = vpc - pend_pop(~ev)
                        hist[delay] = hist_get(delay, 0) + 1
                        vpc += 1
                if has_vp:
                    vp_finalize()
            return result
        if memo is None:
            events = []
    recording = events is not None
    if recording:
        ev_append = events.append
    rec_tvc = track_vc or recording

    # -- SoA reorder buffer ring (capacity: R rounded up to 2^k) --------
    cap = 1
    while cap < R:
        cap <<= 1
    RM = cap - 1
    SBITS = RM.bit_length()
    e_seq = [0] * cap     # seq of the slot's current occupant
    e_state = [0] * cap   # 0 waiting / 1 executing / 2 done
    e_iseq = [0] * cap    # issue ordinal of the current execute episode
    e_pred = [None] * cap
    e_conf = [False] * cap  # confidence bit as scored (value insns only)
    e_pass = [False] * cap  # True when consumers may pass on speculation
    e_tag = [None] * cap
    e_uspec = [False] * cap
    e_vpc = [0] * cap     # vp_counter at dispatch (value-delay clock)
    e_first = [False] * cap
    e_deps = [()] * cap   # live producer seqs at dispatch (speculate only)
    head_seq = 0
    tail_seq = 0
    rob_len = 0

    maxlat = load_miss_total
    for _v in (load_hit_total, store_total, br_total, ialu_total):
        if _v > maxlat:
            maxlat = _v
    W = maxlat + 1
    wheel = [[] for _ in range(W)]  # cycle % W -> issue-ordered records
    exec_count = 0        # live executing entries (wheel occupancy gate)
    ready = []            # candidate seqs; pops re-validate
    iseq_counter = 0

    fq_head = fq_tail = tb
    pending_mp = -1       # trace index of an undispatched mispredict
    stalled_seq = -1      # seq of the dispatched mispredicted branch
    fetch_free_at = 0
    last_line = -1
    exhausted = False
    vp_counter = 0
    branches = 0
    mispredicts = 0
    icache_misses = 0
    reissues = 0
    next_progress = progress_every
    cycle = 0

    while True:
        # ---- next event cycle (skipped cycles are provably no-ops) ----
        if (ready or (rob_len and e_state[head_seq & RM] == 2)
                or (fq_head != fq_tail and rob_len < R)):
            nxt = cycle + 1
        else:
            nxt = 0
            if exec_count:
                k = cycle + 1
                stop = cycle + W
                while k < stop:
                    if wheel[k % W]:
                        nxt = k
                        break
                    k += 1
            if nxt == 0:
                if not exhausted and stalled_seq < 0 and pending_mp < 0 \
                        and fq_tail - fq_head < fq_cap:
                    c = fetch_free_at
                    nxt = c if c > cycle else cycle + 1
                else:
                    nxt = cycle + 1  # wedged config: burn cycles
            elif nxt > cycle + 1 and not exhausted and stalled_seq < 0 \
                    and pending_mp < 0 and fq_tail - fq_head < fq_cap:
                c = fetch_free_at
                if c <= cycle:
                    c = cycle + 1
                if c < nxt:
                    nxt = c
        if nxt > LIM:
            if LIM > cycle:
                cycle = LIM
            break
        cycle = nxt

        # ---- Retire (in order; retired == head_seq throughout) --------
        if rob_len and e_state[head_seq & RM] == 2:
            lim_h = head_seq + width
            while rob_len and head_seq < lim_h \
                    and e_state[head_seq & RM] == 2:
                head_seq += 1
                rob_len -= 1
            if on_progress is not None and head_seq >= next_progress:
                next_progress = head_seq + progress_every
                on_progress(head_seq, total)

        # ---- Complete (write-back) ------------------------------------
        b = wheel[cycle % W]
        if b:
            comp = None
            for rec in b:
                slot = rec & RM
                if e_state[slot] == 1 and e_iseq[slot] == rec >> SBITS:
                    if comp is None:
                        comp = [slot]
                    else:
                        comp.append(slot)
            del b[:]
            if comp is not None:
                for slot in comp:
                    # Forced DONE even if squashed by an earlier
                    # completion this cycle — the object path's
                    # completing list does the same.
                    if e_state[slot] == 1:
                        exec_count -= 1
                    e_state[slot] = 2
                    s = e_seq[slot]
                    ti = tb + s
                    # Wake: re-evaluate waiting static consumers (the
                    # lists are ascending, so stop at the dispatch
                    # frontier).  A duplicate heap entry is harmless —
                    # pops re-validate.
                    for i2 in scons[ti]:
                        p2 = i2 - tb
                        if p2 >= tail_seq:
                            break
                        p2slot = p2 & RM
                        if e_state[p2slot] == 0:
                            blocked = False
                            if spec_vp:
                                for d in e_deps[p2slot]:
                                    if d >= head_seq:
                                        ds = d & RM
                                        if e_state[ds] != 2 \
                                                and not e_pass[ds]:
                                            blocked = True
                                            break
                            else:
                                for j2 in sdeps[i2]:
                                    d = j2 - tb
                                    if d >= head_seq \
                                            and e_state[d & RM] != 2:
                                        blocked = True
                                        break
                            if not blocked:
                                heappush(ready, p2)
                    if rec_tvc:
                        flag = flags[ti]
                        if flag & 0x40 and not e_first[slot]:
                            e_first[slot] = True
                            if recording:
                                ev_append(~ti)
                            vp_counter += 1
                            if track_delay:
                                delay = vp_counter - e_vpc[slot] - 1
                                hist[delay] = hist.get(delay, 0) + 1
                            if has_vp:
                                actual = values[ti]
                                pred = e_pred[slot]
                                vp_complete(pcs[ti], pred, e_conf[slot],
                                            e_tag[slot], actual)
                                if spec_vp and e_pass[slot] \
                                        and pred != actual:
                                    # Selective reissue of speculative
                                    # consumers.  At a first completion
                                    # every dispatched static consumer
                                    # holds a registered edge (the
                                    # producer was incomplete since
                                    # dispatch), so only the transitive
                                    # edges need validating against the
                                    # consumer's live-deps snapshot.
                                    stack = None
                                    for i2 in scons[ti]:
                                        p2 = i2 - tb
                                        if p2 >= tail_seq:
                                            break
                                        if e_uspec[p2 & RM]:
                                            if stack is None:
                                                stack = [p2]
                                            else:
                                                stack.append(p2)
                                    if stack is not None:
                                        seen = set()
                                        seen_add = seen.add
                                        while stack:
                                            cs = stack.pop()
                                            if cs in seen:
                                                continue
                                            seen_add(cs)
                                            cslot = cs & RM
                                            st = e_state[cslot]
                                            if st == 0:
                                                continue
                                            if st == 1:
                                                exec_count -= 1
                                            # Re-enter waiting; the
                                            # stale issue ordinal
                                            # orphans any wheel record.
                                            e_state[cslot] = 0
                                            blocked = False
                                            for d in e_deps[cslot]:
                                                if d >= head_seq:
                                                    ds = d & RM
                                                    if e_state[ds] != 2 \
                                                            and not \
                                                            e_pass[ds]:
                                                        blocked = True
                                                        break
                                            if not blocked:
                                                heappush(ready, cs)
                                            reissues += 1
                                            cti = tb + cs
                                            for i3 in scons[cti]:
                                                p3 = i3 - tb
                                                if p3 >= tail_seq:
                                                    break
                                                if cs in e_deps[p3 & RM]:
                                                    stack.append(p3)
                    if s == stalled_seq:
                        stalled_seq = -1
                        c = cycle + redirect_penalty
                        if c > fetch_free_at:
                            fetch_free_at = c

        # ---- Issue -----------------------------------------------------
        if ready:
            fu_free = function_units
            ports_free = dcache_ports
            issued = 0
            deferred = None
            while ready and issued < width and fu_free:
                s = heappop(ready)
                slot = s & RM
                # Drop stale candidates: retired seqs, already-issued
                # duplicates; then re-validate readiness live.
                if s < head_seq or e_state[slot] != 0:
                    continue
                ti = tb + s
                if spec_vp:
                    uspec = False
                    blocked = False
                    for d in e_deps[slot]:
                        if d >= head_seq:
                            ds = d & RM
                            if e_state[ds] != 2:
                                if e_pass[ds]:
                                    uspec = True
                                else:
                                    blocked = True
                                    break
                    if blocked:
                        continue
                    if uspec:
                        # Marked on evaluation, not on issue — a ready
                        # entry held back by the d-cache ports below
                        # still consumed the speculative value.
                        e_uspec[slot] = True
                else:
                    blocked = False
                    for j in sdeps[ti]:
                        d = j - tb
                        if d >= head_seq and e_state[d & RM] != 2:
                            blocked = True
                            break
                    if blocked:
                        continue
                op = ops[ti]
                if op == 1 or op == 2:  # LOAD / STORE
                    if ports_free == 0:
                        # Ready but port-blocked: younger ready entries
                        # may still issue (the object scan continues).
                        if deferred is None:
                            deferred = [s]
                        else:
                            deferred.append(s)
                        continue
                    d_acc += 1
                    line = addrs[ti] >> d_shift
                    bucket = d_lines[line % d_sets]
                    try:
                        pos = bucket.index(line)
                    except ValueError:
                        d_miss += 1
                        bucket.insert(0, line)
                        if len(bucket) > d_ways:
                            bucket.pop()
                        lat = load_miss_total if op == 1 else store_total
                    else:
                        if pos:
                            bucket.insert(0, bucket.pop(pos))
                        lat = load_hit_total if op == 1 else store_total
                    ports_free -= 1
                elif op == 3:  # BRANCH
                    lat = br_total
                else:
                    lat = ialu_total
                e_state[slot] = 1
                isq = iseq_counter = iseq_counter + 1
                e_iseq[slot] = isq
                exec_count += 1
                wheel[(cycle + lat) % W].append((isq << SBITS) | slot)
                fu_free -= 1
                issued += 1
            if deferred is not None:
                for s in deferred:
                    heappush(ready, s)

        # ---- Dispatch --------------------------------------------------
        if fq_head != fq_tail and rob_len < R:
            dispatched = 0
            while fq_head != fq_tail and dispatched < width \
                    and rob_len < R:
                ti = fq_head
                fq_head += 1
                s = tail_seq
                tail_seq += 1
                rob_len += 1
                slot = s & RM
                e_seq[slot] = s
                e_state[slot] = 0
                if spec_vp:
                    e_uspec[slot] = False
                    blocked = False
                    dlist = None
                    for j in sdeps[ti]:
                        p = j - tb
                        if p >= head_seq:
                            ps = p & RM
                            if e_state[ps] != 2:
                                if dlist is None:
                                    dlist = [p]
                                else:
                                    dlist.append(p)
                                if not e_pass[ps]:
                                    blocked = True
                    e_deps[slot] = dlist if dlist is not None else ()
                else:
                    blocked = False
                    for j in sdeps[ti]:
                        p = j - tb
                        if p >= head_seq and e_state[p & RM] != 2:
                            blocked = True
                            break
                if not blocked:
                    heappush(ready, s)
                if rec_tvc:
                    flag = flags[ti]
                    if flag & 0x40:
                        e_first[slot] = False
                        if recording:
                            ev_append(ti)
                        if track_delay:
                            e_vpc[slot] = vp_counter
                        if has_vp:
                            pred, conf_bit, tag = vp_dispatch(pcs[ti])
                            e_pred[slot] = pred
                            e_conf[slot] = conf_bit
                            e_tag[slot] = tag
                            if spec_vp:
                                e_pass[slot] = conf_bit
                    elif spec_vp:
                        e_pass[slot] = False
                if ti == pending_mp:
                    stalled_seq = s
                    pending_mp = -1
                dispatched += 1

        # ---- Fetch -----------------------------------------------------
        if not exhausted and stalled_seq < 0 and pending_mp < 0 \
                and cycle >= fetch_free_at \
                and fq_tail - fq_head < fq_cap:
            fetched = 0
            if fpre is not None:
                while fetched < width:
                    if fq_tail >= t_stop:
                        exhausted = True
                        break
                    ti = fq_tail
                    fq_tail += 1
                    fetched += 1
                    ev = fpre[ti]
                    if ev:
                        ic = ev & 3
                        if ic:
                            i_acc += 1
                            if ic == 2:
                                i_miss += 1
                                icache_misses += 1
                                fetch_free_at = cycle + ic_penalty
                        if ev >= 4:
                            branches += 1
                            glook += 1
                            if ev & 8:
                                mispredicts += 1
                                pending_mp = ti
                            else:
                                gcorrect += 1
                            break  # fetch redirects at branches
                        if ic == 2:
                            break
                if exhausted and rob_len == 0 and fq_head == fq_tail:
                    break
                continue
            while fetched < width:
                if fq_tail >= t_stop:
                    exhausted = True
                    break
                ti = fq_tail
                stop_fetch = False
                line = pcs[ti] >> line_shift
                if line != last_line:
                    last_line = line
                    i_acc += 1
                    bucket = i_lines[line % i_sets]
                    try:
                        pos = bucket.index(line)
                    except ValueError:
                        i_miss += 1
                        bucket.insert(0, line)
                        if len(bucket) > i_ways:
                            bucket.pop()
                        icache_misses += 1
                        fetch_free_at = cycle + ic_penalty
                        stop_fetch = True
                    else:
                        if pos:
                            bucket.insert(0, bucket.pop(pos))
                fq_tail += 1
                fetched += 1
                if ops[ti] == 3:  # BRANCH
                    pc = pcs[ti]
                    gidx = ((pc >> 2) ^ ghist) & gmask
                    counter = gcounters[gidx]
                    if flags[ti] & 0x10:  # taken
                        if counter < 3:
                            gcounters[gidx] = counter + 1
                        ghist = ((ghist << 1) | 1) & gmask
                        correct = counter >= 2
                    else:
                        if counter > 0:
                            gcounters[gidx] = counter - 1
                        ghist = (ghist << 1) & gmask
                        correct = counter < 2
                    glook += 1
                    if correct:
                        gcorrect += 1
                    else:
                        mispredicts += 1
                        pending_mp = ti
                    branches += 1
                    stop_fetch = True  # fetch redirects at branches
                if stop_fetch:
                    break

        # ---- Termination -----------------------------------------------
        if exhausted and rob_len == 0 and fq_head == fq_tail:
            break

    if fpre is not None:
        if fq_tail == t_stop:
            # Whole trace consumed: the precomputed final front-end
            # state applies verbatim.
            ghist = fghist
            gcounters[:] = fgcnt
            for b2, sb in zip(i_lines, filines):
                b2[:] = sb
        else:
            # Partial run (max_cycles): replay the consumed prefix of
            # the event stream to reconstruct the front-end state.
            for ti in range(tb, fq_tail):
                ev = fpre[ti]
                if ev:
                    ic = ev & 3
                    if ic:
                        line = pcs[ti] >> line_shift
                        bucket = i_lines[line % i_sets]
                        if ic == 2:
                            bucket.insert(0, line)
                            if len(bucket) > i_ways:
                                bucket.pop()
                        else:
                            pos = bucket.index(line)
                            if pos:
                                bucket.insert(0, bucket.pop(pos))
                    if ev >= 4:
                        pc = pcs[ti]
                        gidx = ((pc >> 2) ^ ghist) & gmask
                        counter = gcounters[gidx]
                        if flags[ti] & 0x10:
                            if counter < 3:
                                gcounters[gidx] = counter + 1
                            ghist = ((ghist << 1) | 1) & gmask
                        else:
                            if counter > 0:
                                gcounters[gidx] = counter - 1
                            ghist = (ghist << 1) & gmask

    # ---- flush local accounting into the shared model state -----------
    bp._history = ghist
    bp.lookups += glook
    bp.correct += gcorrect
    icache.accesses += i_acc
    icache.misses += i_miss
    dcache.accesses += d_acc
    dcache.misses += d_miss
    retired = head_seq
    # Value instructions retired, counted once per solved run; the timing
    # memo keeps the count, so a replay reads it without a pass.
    retired_vp = bytes(flags[tb:tb + retired]).translate(
        _PRODUCES_TBL).count(1)
    if recording:
        old = [k for k in aux if type(k) is tuple and k[0] == "timing"]
        if len(old) >= 4:
            aux.pop(old[0])
        aux[timing_key] = (events, (
            cycle, retired, retired_vp, branches, mispredicts, icache_misses,
            i_acc, i_miss, [list(b) for b in i_lines],
            d_acc, d_miss, [list(b) for b in d_lines],
            ghist, glook, gcorrect, list(gcounters)))
    result.cycles = cycle
    result.retired = retired
    result.retired_vp = retired_vp
    result.branches = branches
    result.branch_mispredicts = mispredicts
    result.icache_misses = icache_misses
    result.reissues = reissues
    # Cumulative totals, exactly as the object path reports them.
    result.dcache_accesses = dcache.accesses
    result.dcache_misses = dcache.misses
    if on_progress is not None:
        on_progress(retired, total)
    if has_vp:
        vp_finalize()
    return result
