"""Tests for the workload kernels: each must exhibit the locality class it
advertises, verified both by the offline classifier and by the predictors
that should (and should not) capture it."""

import random

import pytest

from repro.analysis import StreamClass, classify_stream
from repro.core import GDiffPredictor
from repro.predictors import DFCMPredictor, StridePredictor
from repro.trace import OpClass
from repro.trace.packed import instructions
from repro.trace.kernels import (
    ArrayWalkKernel,
    BranchyKernel,
    ChainKernel,
    ConstantKernel,
    CounterClusterKernel,
    CounterKernel,
    PadKernel,
    ParallelChainsKernel,
    PeriodicKernel,
    PointerChaseKernel,
    RandomKernel,
    RegAllocator,
    RetraverseKernel,
    SpillFillKernel,
)


def blocks(kernel, n, seed=0):
    """Bind a kernel and emit n blocks."""
    kernel.bind(pc_base=0x400000, addr_base=0x10000000, regs=RegAllocator())
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        out.append(list(instructions(kernel.block(rng))))
    return out

def values_of(kernel, n, pc=None, seed=0):
    """Values produced by (optionally one PC of) a kernel over n blocks."""
    result = []
    for block in blocks(kernel, n, seed):
        for insn in block:
            if insn.produces_value and (pc is None or insn.pc == pc):
                result.append(insn.value)
    return result


class TestRegAllocator:
    def test_distinct_until_wrap(self):
        regs = RegAllocator()
        allocated = [regs.alloc() for _ in range(30)]
        assert len(set(allocated)) == 30
        assert 0 not in allocated
        assert 31 not in allocated

    def test_wraps_after_thirty(self):
        regs = RegAllocator()
        for _ in range(30):
            regs.alloc()
        assert regs.alloc() == 1

    def test_last(self):
        regs = RegAllocator()
        assert regs.last() == 1
        r = regs.alloc()
        assert regs.last() == r


class TestCounterKernels:
    def test_counter_is_stride_class(self):
        values = values_of(CounterKernel(stride=3), 40)
        assert classify_stream(values) is StreamClass.STRIDE

    def test_cluster_emits_count_values(self):
        k = CounterClusterKernel(count=4, stride=8)
        assert len(blocks(k, 1)[0]) == 4

    def test_cluster_members_share_stride(self):
        k = CounterClusterKernel(count=3, stride=8)
        bs = blocks(k, 3)
        for i in range(3):
            series = [b[i].value for b in bs]
            assert series[1] - series[0] == 8
            assert series[2] - series[1] == 8

    def test_cluster_is_gdiff_predictable_at_distance_one(self):
        # Members after the first: constant diff from their neighbour.
        k = CounterClusterKernel(count=4, stride=8)
        g = GDiffPredictor(order=4)
        hits = total = 0
        for block in blocks(k, 30):
            for i, insn in enumerate(block):
                if i > 0:
                    total += 1
                    if g.predict(insn.pc) == insn.value:
                        hits += 1
                g.update(insn.pc, insn.value)
        assert hits / total > 0.9

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            CounterClusterKernel(count=0)


class TestConstantAndRandom:
    def test_constant_class(self):
        values = values_of(ConstantKernel(value=9), 20)
        assert classify_stream(values) is StreamClass.CONSTANT

    def test_random_class(self):
        values = values_of(RandomKernel(span=1 << 30), 64)
        assert classify_stream(values) is StreamClass.RANDOM

    def test_random_chain_values_also_random(self):
        values = values_of(RandomKernel(span=1 << 30, chain=2), 40)
        assert classify_stream(values) is StreamClass.RANDOM

    def test_random_defeats_all_predictors(self):
        values = values_of(RandomKernel(span=1 << 30), 100)
        s = StridePredictor()
        hits = 0
        for v in values:
            if s.predict(0x1) == v:
                hits += 1
            s.update(0x1, v)
        assert hits <= 1


class TestChainKernel:
    def test_define_is_random_uses_offset(self):
        k = ChainKernel(uses=3, offsets=(5, 10, 20))
        for block in blocks(k, 10):
            vp = [i for i in block if i.produces_value]
            define, uses = vp[0], vp[1:]
            assert uses[0].value == define.value + 5
            assert uses[1].value == uses[0].value + 10
            assert uses[2].value == uses[1].value + 20

    def test_uses_locally_unpredictable(self):
        k = ChainKernel(uses=2, offsets=(4, 8))
        use_pc = None
        for block in blocks(k, 3):
            vp = [i for i in block if i.produces_value]
            use_pc = vp[1].pc
        values = values_of(ChainKernel(uses=2, offsets=(4, 8)), 60, pc=use_pc)
        assert classify_stream(values) is StreamClass.RANDOM

    def test_uses_globally_predictable(self):
        k = ChainKernel(uses=3, offsets=(4, 8, 12))
        g = GDiffPredictor(order=4)
        hits = total = 0
        for n, block in enumerate(blocks(k, 30)):
            for insn in block:
                if not insn.produces_value:
                    continue
                if n >= 3 and insn.pc != block[0].pc:
                    total += 1
                    if g.predict(insn.pc) == insn.value:
                        hits += 1
                g.update(insn.pc, insn.value)
        assert hits == total

    def test_spread_inserts_non_value_padding(self):
        compact = blocks(ChainKernel(uses=2, spread=0), 1)[0]
        spread = blocks(ChainKernel(uses=2, spread=10), 1)[0]
        assert len(spread) > len(compact)
        vp_compact = sum(1 for i in compact if i.produces_value)
        vp_spread = sum(1 for i in spread if i.produces_value)
        assert vp_compact == vp_spread

    def test_define_is_load(self):
        block = blocks(ChainKernel(), 1)[0]
        assert block[0].op is OpClass.LOAD


class TestSpillFillKernel:
    def test_fill_equals_spilled_value(self):
        k = SpillFillKernel(gap=2, uses=0)
        for block in blocks(k, 10):
            loads = [i for i in block if i.op is OpClass.LOAD]
            assert loads[-1].value == loads[0].value

    def test_fill_address_matches_store(self):
        k = SpillFillKernel(gap=1, uses=0)
        for block in blocks(k, 5):
            stores = [i for i in block if i.op is OpClass.STORE]
            loads = [i for i in block if i.op is OpClass.LOAD]
            assert loads[-1].addr == stores[0].addr

    def test_fill_offset(self):
        k = SpillFillKernel(gap=1, fill_offset=4, uses=0)
        block = blocks(k, 1)[0]
        loads = [i for i in block if i.op is OpClass.LOAD]
        assert loads[-1].value == loads[0].value + 4

    def test_uses_consume_fill(self):
        k = SpillFillKernel(gap=1, uses=2)
        block = blocks(k, 1)[0]
        vp = [i for i in block if i.produces_value]
        fill = [i for i in block if i.op is OpClass.LOAD][-1]
        uses = vp[vp.index(fill) + 1:]
        assert len(uses) == 2
        assert uses[0].value == fill.value + 8

    def test_fill_locally_unpredictable_globally_exact(self):
        k = SpillFillKernel(gap=1, uses=0)
        g = GDiffPredictor(order=8)
        s = StridePredictor()
        g_hits = s_hits = total = 0
        for n, block in enumerate(blocks(k, 40)):
            loads = [i for i in block if i.op is OpClass.LOAD]
            fill = loads[-1]
            for insn in block:
                if not insn.produces_value:
                    continue
                if insn is fill and n >= 3:
                    total += 1
                    if g.predict(insn.pc) == insn.value:
                        g_hits += 1
                    if s.predict(insn.pc) == insn.value:
                        s_hits += 1
                g.update(insn.pc, insn.value)
                s.update(insn.pc, insn.value)
        assert g_hits == total
        assert s_hits <= 1


class TestPointerChaseKernel:
    def test_payload_tracks_next_pointer(self):
        k = PointerChaseKernel(fields=2, payload_delta=24, jump_prob=0.5)
        for block in blocks(k, 20):
            nxt = block[0]
            assert block[1].value == (nxt.value + 24) & ((1 << 64) - 1)
            assert block[2].value == (nxt.value + 48) & ((1 << 64) - 1)

    def test_field_addresses_offset_from_node(self):
        k = PointerChaseKernel(fields=2, field_offset=16)
        block = blocks(k, 1)[0]
        assert block[1].addr == block[0].addr + 16
        assert block[2].addr == block[0].addr + 32

    def test_sequential_walk_without_jumps(self):
        k = PointerChaseKernel(jump_prob=0.0, node_stride=64,
                               footprint=1 << 16)
        bs = blocks(k, 10)
        addrs = [b[0].addr for b in bs]
        deltas = {addrs[i + 1] - addrs[i] for i in range(len(addrs) - 1)}
        assert deltas == {64}

    def test_jumps_break_sequence(self):
        k = PointerChaseKernel(jump_prob=1.0, node_stride=64,
                               footprint=1 << 18)
        bs = blocks(k, 30)
        addrs = [b[0].addr for b in bs]
        deltas = {addrs[i + 1] - addrs[i] for i in range(len(addrs) - 1)}
        assert len(deltas) > 5

    def test_fields_validation(self):
        with pytest.raises(ValueError):
            PointerChaseKernel(fields=-1)


class TestPeriodicKernel:
    def test_periodic_class(self):
        values = values_of(PeriodicKernel(period=5), 40)
        assert classify_stream(values) is StreamClass.PERIODIC

    def test_dfcm_learns_but_stride_does_not(self):
        values = values_of(PeriodicKernel(period=7), 100)
        dfcm, stride = DFCMPredictor(order=4), StridePredictor()
        d_hits = s_hits = 0
        for v in values:
            if dfcm.predict(0x1) == v:
                d_hits += 1
            if stride.predict(0x1) == v:
                s_hits += 1
            dfcm.update(0x1, v)
            stride.update(0x1, v)
        assert d_hits > 70
        assert s_hits < 20

    def test_explicit_values(self):
        k = PeriodicKernel(values=[1, 2, 3])
        assert values_of(k, 6) == [1, 2, 3, 1, 2, 3]


class TestParallelChainsKernel:
    def test_geometry(self):
        k = ParallelChainsKernel(width=5, rounds=2)
        block = blocks(k, 1)[0]
        assert len(block) == 15

    def test_use_correlates_at_width_distance(self):
        k = ParallelChainsKernel(width=6, rounds=1)
        g_small = GDiffPredictor(order=4)   # cannot reach back 6
        g_large = GDiffPredictor(order=8)   # can
        small_hits = large_hits = total = 0
        for n, block in enumerate(blocks(k, 25)):
            for i, insn in enumerate(block):
                if n >= 3 and i >= 6:
                    total += 1
                    if g_small.predict(insn.pc) == insn.value:
                        small_hits += 1
                    if g_large.predict(insn.pc) == insn.value:
                        large_hits += 1
                g_small.update(insn.pc, insn.value)
                g_large.update(insn.pc, insn.value)
        assert large_hits == total
        assert small_hits <= total * 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelChainsKernel(width=0)


class TestArrayWalkKernel:
    def test_addresses_stride(self):
        k = ArrayWalkKernel(elem_stride=8, footprint=1 << 12)
        addrs = [b[0].addr for b in blocks(k, 10)]
        assert addrs[1] - addrs[0] == 8

    def test_wraps_at_footprint(self):
        k = ArrayWalkKernel(elem_stride=8, footprint=32)
        addrs = [b[0].addr for b in blocks(k, 6)]
        assert addrs[4] == addrs[0]

    def test_value_modes(self):
        stride_vals = values_of(
            ArrayWalkKernel(value_mode="stride", value_stride=5), 20)
        assert classify_stream(stride_vals) is StreamClass.STRIDE
        copy_k = ArrayWalkKernel(value_mode="copy", elem_stride=16)
        bs = blocks(copy_k, 3)
        assert all(b[0].value == b[0].addr for b in bs)
        rand_vals = values_of(ArrayWalkKernel(value_mode="random"), 60)
        assert classify_stream(rand_vals) is StreamClass.RANDOM

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ArrayWalkKernel(value_mode="bogus")


class TestRetraverseKernel:
    def test_addresses_recur(self):
        k = RetraverseKernel(sites=8, reorder_prob=0.0)
        addrs = [b[0].addr for b in blocks(k, 24)]
        assert set(addrs[8:16]) == set(addrs[:8])

    def test_site_count(self):
        k = RetraverseKernel(sites=8)
        addrs = {b[0].addr for b in blocks(k, 64)}
        assert len(addrs) == 8


class TestPadAndBranchy:
    def test_pad_produces_no_values(self):
        block = blocks(PadKernel(count=8), 1)[0]
        assert all(not i.produces_value for i in block)

    def test_pad_store_cadence(self):
        block = blocks(PadKernel(count=8, store_every=4), 1)[0]
        stores = [i for i in block if i.op is OpClass.STORE]
        assert len(stores) == 2

    def test_pad_no_stores_when_disabled(self):
        block = blocks(PadKernel(count=8, store_every=0), 1)[0]
        assert all(i.op is OpClass.NOP for i in block)

    def test_pad_validation(self):
        with pytest.raises(ValueError):
            PadKernel(count=0)

    def test_branchy_emits_branches(self):
        bs = blocks(BranchyKernel(taken_prob=0.5), 50)
        assert all(b[0].op is OpClass.BRANCH for b in bs)
        taken = sum(1 for b in bs if b[0].taken)
        assert 10 <= taken <= 40


class TestPCCopies:
    def test_copies_rotate_pcs(self):
        k = CounterKernel(stride=1)
        k.bind(pc_base=0x400000, addr_base=0x10000000, regs=RegAllocator())
        k.set_copies(4)
        rng = random.Random(0)
        pcs = []
        for _ in range(8):
            pcs.append(next(instructions(k.block(rng))).pc)
            k.advance_copy()
        assert len(set(pcs)) == 4
        assert pcs[:4] == pcs[4:]

    def test_copies_validation(self):
        k = CounterKernel()
        with pytest.raises(ValueError):
            k.set_copies(0)
