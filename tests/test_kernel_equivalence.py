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
from repro.harness.runner import run_value_prediction
from repro.predictors import (
    DFCMPredictor,
    LastValuePredictor,
    StridePredictor,
)
from repro.predictors.base import ConstantPredictor, PredictionStats
from repro.predictors.confidence import ConfidenceTable
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
    pcs = [0x400000 + 4 * i for i in range(12)]
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


def end_state(predictor):
    """Observable predictor state the two paths must agree on."""
    state = {}
    table = getattr(predictor, "table", None)
    if table is not None:  # gdiff variants
        state["accesses"] = table.accesses
        state["conflicts"] = table.conflicts
        state["occupied"] = table.occupied()
        state["locked"] = sorted(table.locked_distances().items())
        state["last_distance"] = predictor.last_distance
    queue = getattr(predictor, "queue", None)
    if isinstance(queue, GlobalValueQueue):
        state["window"] = queue.visible()
    for attr in ("_table", "_l1"):
        inner = getattr(predictor, attr, None)
        if inner is not None:
            state[attr + ".accesses"] = inner.accesses
    if isinstance(predictor, DFCMPredictor):
        state["l2"] = sorted(predictor._l2.items())
    return state


def run_both(factory, pairs, monkeypatch, gated):
    trace = packed_from_pairs(pairs)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        predictor = factory()
        stats = run_value_prediction(trace, {"p": predictor}, gated=gated)
        results[flag] = (stats_tuple(stats["p"]), end_state(predictor))
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
    assert stats.attempts == 0


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
}


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
    chunks = (2, 12, 40, 530, 5, 31, 300, 33)
    pairs = random_pairs(4, sum(chunks))
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        predictor = CHAINED_FACTORIES[name]()
        per_chunk = []
        start = 0
        for size in chunks:
            trace = packed_from_pairs(pairs[start:start + size])
            stats = run_value_prediction(trace, {"p": predictor},
                                         gated=gated)
            per_chunk.append(stats_tuple(stats["p"]))
            start += size
        results[flag] = (per_chunk, end_state(predictor))
    assert results["0"] == results["1"]


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
