"""The fused kernels must be bit-identical to the object path.

Property-style checks: random traces (several seeds and lengths, values
spanning the full 64-bit wrap range) driven through every kernelised
predictor twice — once with ``REPRO_KERNELS=1`` and once forced onto the
object path with ``REPRO_KERNELS=0`` — asserting equal
:class:`~repro.predictors.base.PredictionStats` and equal predictor end
state, gated and ungated.  The gDiff kernel is additionally pinned against
an independent reference implementation built on the retained
dict-of-dataclass :class:`~repro.core.table.GDiffTable`, and whole
registry experiments are replayed under both flags.
"""

import random

import pytest

from repro.core import GDiffPredictor, GDiffTable, HybridGDiffPredictor
from repro.core.gvq import GlobalValueQueue
from repro.core.kernels import kernels_enabled, run_pairs
from repro.harness import runner
from repro.harness.runner import (
    _gated_pairs,
    _profile_pairs,
    run_value_prediction,
)
from repro.predictors import (
    DFCMPredictor,
    LastValuePredictor,
    StridePredictor,
)
from repro.predictors.base import ConstantPredictor, PredictionStats
from repro.predictors.confidence import ConfidenceTable
from repro.predictors.dfcm import _DFCMEntry
from repro.predictors.stride import _StrideEntry
from repro.trace.isa import ialu
from repro.trace.packed import PackedTrace
from repro.wordops import WORD_MASK, wsub

SEEDS = [0, 1, 2]
LENGTHS = [300, 2000]


def random_pairs(seed, length):
    """A value stream exercising every interesting value regime.

    Mixes sub-word strides, strides that straddle the 2^63 / 2^64 wrap
    boundaries, correlated copies of earlier values (global stride
    locality for gDiff to find), short periodic patterns (DFCM food) and
    pure noise over the full 64-bit range.
    """
    rng = random.Random(seed)
    # Twelve PCs in distinct slots, then four that share a slot of every
    # bounded table under test (64 and 128 entries, pc_shift 2) with the
    # first twelve (slot 3 three ways), so tagless rows alias.
    pcs = [0x400000 + 4 * i for i in range(12)]
    pcs += [0x400000 + 4 * (256 * k + slot)
            for k, slot in ((1, 3), (2, 6), (3, 9), (4, 3))]
    state = {pc: rng.randrange(1 << 64) for pc in pcs}
    strides = {pc: rng.choice(
        [1, 8, 0, (1 << 63) - 1, (1 << 64) - 8, (1 << 62) + 3]
    ) for pc in pcs}
    out = []
    history = [rng.randrange(1 << 64) for _ in range(4)]
    for i in range(length):
        pc = pcs[rng.randrange(len(pcs))]
        kind = rng.random()
        if kind < 0.4:
            state[pc] = (state[pc] + strides[pc]) & WORD_MASK
            value = state[pc]
        elif kind < 0.6:
            value = (history[-rng.randrange(1, 4)] + strides[pc]) & WORD_MASK
        elif kind < 0.75:
            value = history[-4 + (i % 4)]
        else:
            value = rng.randrange(1 << 64)
        out.append((pc, value))
        history.append(value)
    return out


def packed_from_pairs(pairs):
    return PackedTrace.from_instructions(
        (ialu(pc=pc, dest=1, value=value) for pc, value in pairs),
        name="synthetic")


def stats_tuple(stats: PredictionStats):
    return (stats.attempts, stats.predictions, stats.correct,
            stats.confident, stats.confident_correct)


PREDICTOR_FACTORIES = {
    "gdiff8-unlimited": lambda: GDiffPredictor(order=8, entries=None),
    "gdiff4-bounded": lambda: GDiffPredictor(order=4, entries=64),
    "gdiff4-delay3": lambda: GDiffPredictor(order=4, entries=None, delay=3),
    "gdiff4-nearest": lambda: GDiffPredictor(order=4, entries=None,
                                             policy="nearest"),
    "gdiff4-farthest": lambda: GDiffPredictor(order=4, entries=None,
                                              policy="farthest"),
    "gdiff4-no-refresh": lambda: GDiffPredictor(order=4, entries=None,
                                                refresh_on_match=False),
    "gdiff4-conflicts": lambda: GDiffPredictor(order=4, entries=64,
                                               track_conflicts=True),
    # The orders the paper's studies and the benchmark sweep run.
    "gdiff32-unlimited": lambda: GDiffPredictor(order=32, entries=None),
    "gdiff32-bounded": lambda: GDiffPredictor(order=32, entries=64,
                                              track_conflicts=True),
    "gdiff32-farthest": lambda: GDiffPredictor(order=32, entries=None,
                                               policy="farthest"),
    "gdiff32-nearest-no-refresh": lambda: GDiffPredictor(
        order=32, entries=None, policy="nearest", refresh_on_match=False),
    "stride": lambda: StridePredictor(entries=None),
    "stride-bounded": lambda: StridePredictor(entries=64),
    "last-value": lambda: LastValuePredictor(entries=None),
    "dfcm": lambda: DFCMPredictor(order=4, l1_entries=None, l2_entries=512),
    "dfcm-bounded": lambda: DFCMPredictor(order=2, l1_entries=64,
                                          l2_entries=256),
    "hgvq-stride": lambda: HybridGDiffPredictor(order=8, entries=128),
    "hgvq-lastval": lambda: HybridGDiffPredictor(
        order=8, entries=None, filler=LastValuePredictor(entries=None)),
    "hgvq-const": lambda: HybridGDiffPredictor(
        order=4, entries=None, filler=ConstantPredictor(0)),
    "hgvq32": lambda: HybridGDiffPredictor(order=32, entries=None),
}


def _gdiff_rows(table):
    """Every written row of a flat gDiff table, in the table's own order:
    key, distance, the valid differences and the aliasing owner."""
    order = table.order
    if table.entries is None:
        keyed = list(table._rows.items())
    else:
        keyed = [(idx, idx) for idx in range(table.entries)
                 if table._present[idx]]
    rows = []
    for key, row in keyed:
        valid = table._valid[row]
        base = row * order
        owner = table._owner[row] if table._owner_set[row] else None
        rows.append((key, table._dist[row], valid,
                     list(table._diffs[base:base + valid]), owner))
    return rows


def _local_entries(table):
    """A local predictor's table contents, in dict insertion order."""
    out = []
    for idx, entry in table._data.items():
        if isinstance(entry, _StrideEntry):
            entry = (entry.last, entry.stride, entry.candidate, entry.seen,
                     entry.spec_ahead)
        elif isinstance(entry, _DFCMEntry):
            entry = (entry.last, list(entry.strides), entry.seen)
        out.append((idx, entry))
    return out


def end_state(predictor):
    """Observable predictor state the two paths must agree on, with every
    dict compared in insertion order."""
    state = {}
    table = getattr(predictor, "table", None)
    if table is not None:  # gdiff variants
        state["accesses"] = table.accesses
        state["conflicts"] = table.conflicts
        state["occupied"] = table.occupied()
        state["locked"] = list(table.locked_distances().items())
        state["rows"] = _gdiff_rows(table)
        state["last_distance"] = predictor.last_distance
    queue = getattr(predictor, "queue", None)
    if isinstance(queue, GlobalValueQueue):
        state["window"] = queue.visible()
        state["queue"] = (list(queue._buf), queue._count, queue._vmask)
    elif queue is not None:
        state["queue"] = (list(queue._buf), queue._next_seq)
    for attr in ("_table", "_l1"):
        inner = getattr(predictor, attr, None)
        if inner is not None:
            state[attr + ".accesses"] = inner.accesses
            state[attr] = _local_entries(inner)
    if isinstance(predictor, DFCMPredictor):
        state["l2"] = list(predictor._l2.items())
    filler = getattr(predictor, "filler", None)
    if filler is not None and hasattr(filler, "_table"):
        state["filler.accesses"] = filler._table.accesses
        state["filler"] = _local_entries(filler._table)
    return state


def _capture_gates(monkeypatch):
    """Make the harness's ``ConfidenceTable()`` calls observable: returns
    the list every gate it builds is appended to (still the exact type,
    so the kernels accept it)."""
    gates = []

    def make():
        gates.append(ConfidenceTable())
        return gates[-1]

    monkeypatch.setattr(runner, "ConfidenceTable", make)
    return gates


def gate_state(gates):
    return [list(gate._table._data.items()) for gate in gates]


def run_both(factory, pairs, monkeypatch, gated):
    trace = packed_from_pairs(pairs)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        gates = _capture_gates(monkeypatch)
        predictor = factory()
        stats = run_value_prediction(trace, {"p": predictor}, gated=gated)
        results[flag] = (stats_tuple(stats["p"]), end_state(predictor),
                         gate_state(gates))
    return results


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_kernel_matches_object_path(name, seed, gated, monkeypatch):
    for length in LENGTHS:
        pairs = random_pairs(seed, length)
        results = run_both(PREDICTOR_FACTORIES[name], pairs,
                           monkeypatch, gated)
        assert results["0"] == results["1"], (
            f"{name} diverged on seed={seed} length={length} gated={gated}")


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_gate_never_trains_the_predictor(name, seed, monkeypatch):
    """The confidence gate only decides which predictions count: a gated
    run makes the ungated run's predictions and leaves the predictor in
    the same state, on both paths.  A campaign runs a gated/ungated
    sibling pair once, gated, and gives the ungated cell its raw
    counters; that is exact only while this holds."""
    for length in LENGTHS:
        pairs = random_pairs(seed, length)
        ungated = run_both(PREDICTOR_FACTORIES[name], pairs, monkeypatch,
                           gated=False)
        gated = run_both(PREDICTOR_FACTORIES[name], pairs, monkeypatch,
                         gated=True)
        for flag in ("0", "1"):
            (raw, state, _gates), (gated_raw, gated_state, _) = (
                ungated[flag], gated[flag])
            assert raw[:3] == gated_raw[:3], (
                f"{name} REPRO_KERNELS={flag} seed={seed} length={length}")
            assert state == gated_state, (
                f"{name} REPRO_KERNELS={flag} seed={seed} length={length}")


@pytest.mark.parametrize("order", [4, 8, 32])
@pytest.mark.parametrize("entries", [None, 4096, 64],
                         ids=["unlimited", "bounded", "aliasing"])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_hgvq_scores_gdiff_at_delay_0(order, entries, gated, monkeypatch):
    """Over a trace every HGVQ slot holds its real value before a younger
    pair reads it, and the filler's predictions are never scored, so
    HGVQ scores exactly what gDiff scores at delay 0, on both paths.  A
    campaign's ``hgvq`` cell shares the ``gdiff`` cell's run on this.
    (4096 rows keep :func:`random_pairs`' PCs apart; 64 make them
    alias.)"""
    for seed in SEEDS:
        pairs = random_pairs(seed, LENGTHS[-1])
        hgvq = run_both(lambda: HybridGDiffPredictor(order=order,
                                                     entries=entries),
                        pairs, monkeypatch, gated)
        gdiff = run_both(lambda: GDiffPredictor(order=order, entries=entries,
                                                delay=0),
                         pairs, monkeypatch, gated)
        for flag in ("0", "1"):
            (stats, _state, gates), (gstats, _gstate, ggates) = (
                hgvq[flag], gdiff[flag])
            assert stats == gstats, f"REPRO_KERNELS={flag} seed={seed}"
            assert gates == ggates, f"REPRO_KERNELS={flag} seed={seed}"


class _ReferenceGDiff:
    """gDiff built on the retained GDiffTable + GVQ.get object path."""

    def __init__(self, order=8, entries=None, delay=0,
                 policy="sticky-nearest", refresh_on_match=True):
        self.order = order
        self.queue = GlobalValueQueue(size=order, delay=delay)
        self.table = GDiffTable(order=order, entries=entries, policy=policy,
                                refresh_on_match=refresh_on_match)

    def predict(self, pc):
        entry = self.table.lookup(pc)
        if entry is None or not entry.distance:
            return None
        diff = entry.diffs[entry.distance - 1]
        if diff is None:
            return None
        base = self.queue.get(entry.distance)
        if base is None:
            return None
        return (base + diff) & WORD_MASK

    def update(self, pc, actual):
        get = self.queue.get
        diffs = [None if base is None else wsub(actual, base)
                 for base in (get(d) for d in range(1, self.order + 1))]
        self.table.train(pc, diffs)
        self.queue.push(actual)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kwargs", [
    dict(order=8, entries=None),
    dict(order=4, entries=64, delay=2),
    dict(order=4, entries=None, policy="farthest", refresh_on_match=False),
    dict(order=32, entries=None),
], ids=["unlimited", "bounded-delay", "farthest-norefresh", "order32"])
def test_kernel_matches_reference_implementation(seed, kwargs, monkeypatch):
    """Kernel vs an independent reimplementation, not just vs the flat path."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    for length in LENGTHS:
        pairs = random_pairs(seed, length)
        trace = packed_from_pairs(pairs)
        ref_stats = run_value_prediction(
            trace, {"p": _ReferenceGDiff(**kwargs)})["p"]
        kern_stats = run_value_prediction(
            trace, {"p": GDiffPredictor(**kwargs)})["p"]
        assert stats_tuple(ref_stats) == stats_tuple(kern_stats)


def test_run_pairs_declines_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "0")
    assert not kernels_enabled()
    pairs = random_pairs(0, 50)
    trace = packed_from_pairs(pairs)
    pcs, values = trace.value_pairs()
    stats = PredictionStats()
    assert run_pairs(GDiffPredictor(order=4), pcs, values, stats) is False
    assert stats.attempts == 0


def test_run_pairs_declines_unmodelled_shapes(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    pairs = random_pairs(0, 50)
    trace = packed_from_pairs(pairs)
    pcs, values = trace.value_pairs()
    stats = PredictionStats()
    tagged = GDiffPredictor(order=4, entries=64, tagged=True)
    assert run_pairs(tagged, pcs, values, stats) is False
    assert run_pairs(object(), pcs, values, stats) is False
    # A gate shape the kernels don't model declines the whole run.
    class OddGate(ConfidenceTable):
        pass

    assert run_pairs(GDiffPredictor(order=4), pcs, values, stats,
                     OddGate(entries=64)) is False
    # A bounded gate shares counters between PCs of different rows.
    for predictor in (GDiffPredictor(order=4), StridePredictor(),
                      DFCMPredictor()):
        assert run_pairs(predictor, pcs, values, stats,
                         ConfidenceTable(entries=64)) is False
    assert stats.attempts == 0


def test_last_distance_is_the_last_pairs_selection(monkeypatch):
    """A hit on the locked distance after a row's mismatches: the call's
    last pair selects that distance again, whatever the row's scans
    selected before it."""
    rng = random.Random(7)
    pairs = []
    for k in range(12):
        b = rng.randrange(1 << 64)
        # A follows B at distance 1 (a glitch at k == 9 misses twice)
        a = rng.randrange(1 << 64) if k == 9 else (b + 5) & WORD_MASK
        pairs += [(0x400000, b), (0x400004, a)]
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        predictor = GDiffPredictor(order=4, entries=None)
        stats = run_value_prediction(packed_from_pairs(pairs),
                                     {"p": predictor})
        assert predictor.last_distance == 1, flag
        assert stats["p"].correct == 8, flag


@pytest.mark.parametrize("factory", [
    lambda: GDiffPredictor(order=8, entries=None),
    lambda: HybridGDiffPredictor(order=4, entries=None),
], ids=["gdiff8", "hgvq4"])
def test_unlimited_table_grows_mid_run(factory, monkeypatch):
    """More PCs than the unlimited table's initial 256 rows: the arena
    doubles while rows are being created, on both paths."""
    rng = random.Random(11)
    pcs = [0x400000 + 4 * i for i in range(600)]
    pairs = []
    value = 0
    for k in range(2400):
        pc = pcs[k % 600] if k % 2 else pcs[rng.randrange(600)]
        value = (value + 8) & WORD_MASK if rng.random() < 0.6 \
            else rng.randrange(1 << 64)
        pairs.append((pc, value))
    results = run_both(factory, pairs, monkeypatch, gated=True)
    assert results["0"] == results["1"]
    assert len(results["1"][1]["rows"]) > 256


def test_stride_kernel_scales_by_spec_ahead(monkeypatch):
    """Speculative updates a pipeline left outstanding (``spec_ahead``)
    scale the stride prediction on both paths."""
    pairs = random_pairs(6, 600)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        predictor = StridePredictor(entries=64)
        run_value_prediction(packed_from_pairs(pairs[:200]), {"p": predictor})
        for pc, _value in pairs[:60:3]:
            predictor.speculative_update(pc)
        stats = run_value_prediction(packed_from_pairs(pairs[200:]),
                                     {"p": predictor}, gated=True)
        results[flag] = (stats_tuple(stats["p"]), end_state(predictor))
    assert results["0"] == results["1"]
    assert any(entry[1][4] for entry in results["1"][1]["_table"])


def test_kernel_state_supports_chained_runs(monkeypatch):
    """Queue/table write-back must let kernel and object runs interleave."""
    pairs = random_pairs(3, 600)
    first, second = pairs[:300], pairs[300:]
    results = {}
    for order in ("kernel-first", "object-first"):
        predictor = GDiffPredictor(order=8, entries=None)
        flags = ("1", "0") if order == "kernel-first" else ("0", "1")
        for flag, chunk in zip(flags, (first, second)):
            import os
            os.environ["REPRO_KERNELS"] = flag
            stats = run_value_prediction(packed_from_pairs(chunk),
                                         {"p": predictor})
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        results[order] = (stats_tuple(stats["p"]), end_state(predictor))
    assert results["kernel-first"] == results["object-first"]


CHAINED_FACTORIES = {
    "gdiff8-delay3": lambda: GDiffPredictor(order=8, entries=None, delay=3),
    "gdiff32-delay2": lambda: GDiffPredictor(order=32, entries=64, delay=2,
                                             track_conflicts=True),
    "hgvq32": lambda: HybridGDiffPredictor(order=32, entries=None),
    # The local families serve runs frame by frame.
    "stride-bounded": lambda: StridePredictor(entries=64),
    "last-value": lambda: LastValuePredictor(entries=None),
    "dfcm-bounded": lambda: DFCMPredictor(order=2, l1_entries=64,
                                          l2_entries=256),
}

#: Chained chunk sizes: shorter and longer than every queue.
CHUNKS = (2, 12, 40, 530, 5, 31, 300, 33)


@pytest.mark.parametrize("name", sorted(CHAINED_FACTORIES))
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_kernel_chained_runs_read_the_ring_prefix(name, gated, monkeypatch):
    """Many chained kernel runs match the same chunks on the object path.

    The chunks are shorter and longer than the queue.  The first is
    shorter than the delay, so its rows are stored while the delay hides
    the whole queue (they hold no differences).  Every chunk
    after the third starts with the queue count past the ring's capacity
    (the HGVQ's 512 included), so each kernel run reads its window's
    oldest words from the ring prefix placed ahead of the chunk's values.
    """
    pairs = random_pairs(4, sum(CHUNKS))
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        gates = _capture_gates(monkeypatch)
        predictor = CHAINED_FACTORIES[name]()
        per_chunk = []
        start = 0
        for size in CHUNKS:
            trace = packed_from_pairs(pairs[start:start + size])
            stats = run_value_prediction(trace, {"p": predictor},
                                         gated=gated)
            per_chunk.append((stats_tuple(stats["p"]),
                              getattr(predictor, "last_distance", None)))
            start += size
        results[flag] = (per_chunk, end_state(predictor), gate_state(gates))
    assert results["0"] == results["1"]


@pytest.mark.parametrize("name", sorted(CHAINED_FACTORIES))
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_kernel_frames_match_the_object_loops(name, gated, monkeypatch):
    """Serve's shape: plain-list frames, one gate kept across them.

    ``run_pairs`` on each frame (it builds the frame's grouping itself)
    against the harness's object loops on the same frames, with the stats
    accumulated and the gate's counters carried from frame to frame.
    """
    monkeypatch.setenv("REPRO_KERNELS", "1")
    pairs = random_pairs(5, sum(CHUNKS))
    results = {}
    for side in ("object", "kernel"):
        predictor = CHAINED_FACTORIES[name]()
        conf = ConfidenceTable() if gated else None
        stats = PredictionStats()
        per_frame = []
        start = 0
        for size in CHUNKS:
            frame = pairs[start:start + size]
            pcs = [pc for pc, _ in frame]
            values = [value for _, value in frame]
            if side == "kernel":
                assert run_pairs(predictor, pcs, values, stats, conf)
            elif gated:
                _gated_pairs(predictor, conf, pcs, values, stats)
            else:
                _profile_pairs(predictor, pcs, values, stats)
            per_frame.append((stats_tuple(stats),
                              getattr(predictor, "last_distance", None)))
            start += size
        results[side] = (per_frame, end_state(predictor),
                         gate_state([conf] if gated else []))
    assert results["object"] == results["kernel"]


def _registry_kwargs(name):
    kwargs = {"length": 4000}
    if name != "fig12":  # fig12 takes a single bench, and defaults fine
        kwargs["benchmarks"] = ["gcc", "mcf"]
    return kwargs


def _registry_names():
    from repro.harness.experiments import EXPERIMENTS
    return sorted(EXPERIMENTS)


def _nan_safe(rows):
    # NaN placeholders (e.g. fig19's H_mean baseline column) must compare
    # equal to themselves across the two runs.
    return [["nan" if isinstance(cell, float) and cell != cell else cell
             for cell in row] for row in rows]


@pytest.mark.parametrize("name", _registry_names())
def test_registry_experiments_match(name, monkeypatch, tmp_path):
    """Every registry experiment is flag-invariant, row for row."""
    from repro.harness.experiments import EXPERIMENTS
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rows = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        rows[flag] = _nan_safe(EXPERIMENTS[name](**_registry_kwargs(name)).rows)
    assert rows["0"] == rows["1"]
