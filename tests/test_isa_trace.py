"""Tests for the instruction model and the packed trace container."""

import pytest

from repro.trace import (
    Instruction,
    OpClass,
    PackedTrace,
    branch,
    ialu,
    load,
    load_address_stream,
    store,
    value_stream,
)


class TestInstruction:
    def test_ialu_produces_value(self):
        insn = ialu(0x100, 3, 42)
        assert insn.produces_value
        assert insn.value == 42
        assert insn.dest == 3

    def test_load_produces_value(self):
        insn = load(0x100, 2, 7, 0x2000)
        assert insn.produces_value
        assert insn.is_load
        assert insn.is_mem
        assert insn.addr == 0x2000

    def test_store_not_value_producing(self):
        insn = store(0x100, 0x2000, srcs=(1,))
        assert not insn.produces_value
        assert insn.is_store
        assert insn.is_mem

    def test_branch_not_value_producing(self):
        insn = branch(0x100, True, 0x80)
        assert not insn.produces_value
        assert insn.is_branch
        assert insn.taken is True
        assert insn.target == 0x80

    def test_nop_not_value_producing(self):
        insn = Instruction(pc=0x100, op=OpClass.NOP)
        assert not insn.produces_value

    def test_ialu_without_dest_not_value_producing(self):
        insn = Instruction(pc=0x100, op=OpClass.IALU, value=5)
        assert not insn.produces_value

    def test_srcs_default_empty(self):
        assert ialu(0x100, 1, 0).srcs == ()


def _sample_instructions():
    return [
        ialu(0x100, 1, 10),
        load(0x104, 2, 20, 0x1000),
        store(0x108, 0x2000, srcs=(2,)),
        branch(0x10C, True, 0x100),
        ialu(0x100, 1, 11),
        load(0x104, 2, 21, 0x1008),
    ]


def _sample_trace():
    return PackedTrace.from_instructions(_sample_instructions())


class TestTrace:
    def test_len_and_iter(self):
        trace = _sample_trace()
        assert len(trace) == 6
        assert len(list(trace)) == 6

    def test_indexing(self):
        trace = _sample_trace()
        assert trace[0].pc == 0x100
        assert trace[-1].value == 21

    def test_stats(self):
        stats = _sample_trace().stats
        assert stats.total == 6
        assert stats.value_producing == 4
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.branches == 1
        assert stats.static_pcs == 4

    def test_stats_cached(self):
        trace = _sample_trace()
        assert trace.stats is trace.stats

    def test_value_producing_filter(self):
        trace = _sample_trace()
        values = [i.value for i in trace.value_producing()]
        assert values == [10, 20, 11, 21]

    def test_loads_filter(self):
        trace = _sample_trace()
        assert [i.addr for i in trace.loads()] == [0x1000, 0x1008]

    def test_per_pc_values(self):
        histories = _sample_trace().per_pc_values()
        assert histories[0x100] == [10, 11]
        assert histories[0x104] == [20, 21]

    def test_stats_str(self):
        text = str(_sample_trace().stats)
        assert "6 instructions" in text


class TestStreamExtraction:
    def test_value_stream(self):
        assert value_stream(_sample_instructions()) == [10, 20, 11, 21]

    def test_load_address_stream(self):
        stream = load_address_stream(_sample_instructions())
        assert stream == [(0x104, 0x1000), (0x104, 0x1008)]
