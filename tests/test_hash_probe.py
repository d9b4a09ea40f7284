"""Tests for the hash-probe kernel (the Section 6 address-stream shape)."""

import random

import pytest

from repro.core import GDiffPredictor
from repro.predictors import MarkovPredictor, StridePredictor
from repro.trace import OpClass
from repro.trace.kernels import HashProbeKernel, RegAllocator
from repro.trace.packed import instructions


def blocks(kernel, n, seed=0):
    kernel.bind(pc_base=0x400000, addr_base=0x10000000, regs=RegAllocator())
    rng = random.Random(seed)
    return [list(instructions(kernel.block(rng))) for _ in range(n)]


class TestStructure:
    def test_two_loads_per_block(self):
        for block in blocks(HashProbeKernel(buckets=8), 5):
            assert len(block) == 2
            assert all(i.op is OpClass.LOAD for i in block)

    def test_entry_at_constant_offset(self):
        k = HashProbeKernel(buckets=8, entry_offset=512)
        for block in blocks(k, 20):
            assert block[1].addr == block[0].addr + 512

    def test_entry_value_is_key_plus_delta(self):
        k = HashProbeKernel(buckets=8, entry_delta=48)
        for block in blocks(k, 20):
            assert block[1].value == (block[0].value + 48) & ((1 << 64) - 1)

    def test_buckets_lap(self):
        k = HashProbeKernel(buckets=8, reorder_prob=0.0)
        addrs = [b[0].addr for b in blocks(k, 24)]
        assert set(addrs[8:16]) == set(addrs[:8])

    def test_reorder_shuffles_between_laps(self):
        k = HashProbeKernel(buckets=16, reorder_prob=1.0)
        addrs = [b[0].addr for b in blocks(k, 48)]
        assert addrs[:16] != addrs[16:32]

    def test_validation(self):
        with pytest.raises(ValueError):
            HashProbeKernel(buckets=1)


class TestPredictorInteraction:
    def _address_streams(self, n=300, reorder=0.3):
        k = HashProbeKernel(buckets=16, reorder_prob=reorder)
        stream = []
        for block in blocks(k, n):
            for insn in block:
                stream.append((insn.pc, insn.addr))
        return stream

    def test_local_stride_fails_on_buckets(self):
        p = StridePredictor(entries=None)
        hits = {0: 0, 1: 0}
        totals = {0: 0, 1: 0}
        base = None
        for pc, addr in self._address_streams():
            if base is None:
                base = pc
            which = 0 if pc == base else 1
            totals[which] += 1
            if p.predict(pc) == addr:
                hits[which] += 1
            p.update(pc, addr)
        assert hits[0] / totals[0] < 0.2  # shuffled bucket addresses

    def test_gdiff_catches_entry_addresses(self):
        g = GDiffPredictor(order=8, entries=None)
        hits = total = 0
        base = None
        for pc, addr in self._address_streams():
            if base is None:
                base = pc
            if pc != base:
                total += 1
                if g.predict(pc) == addr:
                    hits += 1
            g.update(pc, addr)
        assert hits / total > 0.9  # entry = bucket + fixed offset

    def test_markov_tag_hits_on_laps(self):
        m = MarkovPredictor(entries=4096, ways=4)
        confident = total = 0
        for pc, addr in self._address_streams(n=400, reorder=0.1):
            _, conf = m.predict_confident(pc)
            total += 1
            if conf:
                confident += 1
            m.update(pc, addr)
        assert confident / total > 0.5  # transitions repeat across laps
