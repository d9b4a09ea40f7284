"""PackedTrace: SoA layout equivalence with the Instruction model.

The fast path is only admissible if it is *invisible*: every consumer —
iteration, slicing, stats, the profile runners, the OOO core — must see
bit-identical behaviour from a :class:`PackedTrace` and the plain list of
:class:`Instruction` records it was packed from.
"""

from itertools import islice

import pytest

from repro.core import GDiffPredictor
from repro.pipeline import Cache, OutOfOrderCore, ProcessorConfig
from repro.predictors import DFCMPredictor, MarkovPredictor, StridePredictor
from repro.harness.runner import run_address_prediction, run_value_prediction
from repro.trace import Instruction, OpClass, PackedTrace, branch, ialu, load, store
from repro.trace.packed import pack_srcs, unpack_srcs
from repro.trace.trace import TraceStats
from repro.trace.workloads import get
from repro.wordops import WORD_MASK


def generated(bench, length, **kwargs):
    """The object reference: *length* instructions straight off the
    workload generator, as a plain list (never packed)."""
    return list(islice(get(bench).generate(**kwargs), length))


def object_stats(instructions):
    """Summary statistics computed from ``Instruction`` objects."""
    stats = TraceStats(static_pcs=len({i.pc for i in instructions}))
    for insn in instructions:
        stats.total += 1
        stats.value_producing += insn.produces_value
        stats.loads += insn.op is OpClass.LOAD
        stats.stores += insn.op is OpClass.STORE
        stats.branches += insn.op is OpClass.BRANCH
    return stats


def sample_instructions():
    return [
        ialu(0x1000, 3, 42, srcs=(1, 2)),
        load(0x1004, 5, 0xDEADBEEF, 0x20_0000, srcs=(3,)),
        store(0x1008, 0x20_0008, srcs=(5,)),
        branch(0x100C, True, 0x1000, srcs=(5,)),
        branch(0x1010, False, 0x1400),
        Instruction(pc=0x1014, op=OpClass.NOP),
        ialu(0x1018, 1, WORD_MASK),
    ]


def fresh_predictors():
    return {
        "stride": StridePredictor(entries=None),
        "dfcm": DFCMPredictor(order=4, l1_entries=None),
        "gdiff8": GDiffPredictor(order=8, entries=None),
    }


class TestRoundTrip:
    def test_instructions_survive_packing(self):
        insns = sample_instructions()
        packed = PackedTrace.from_instructions(insns, name="demo")
        assert packed.name == "demo"
        assert len(packed) == len(insns)
        assert list(packed) == insns

    def test_workload_survives_packing(self):
        trace = generated("vortex", 3000)
        packed = PackedTrace.from_instructions(trace, name="vortex")
        assert list(packed) == list(trace)

    def test_instruction_at_matches_iteration(self):
        insns = sample_instructions()
        packed = PackedTrace.from_instructions(insns)
        for i, insn in enumerate(insns):
            assert packed.instruction_at(i) == insn

    def test_srcs_pack_unpack(self):
        for srcs in ((), (0,), (31,), (1, 2, 3), tuple(range(10))):
            assert unpack_srcs(pack_srcs(srcs)) == srcs

    def test_too_many_srcs_rejected(self):
        with pytest.raises(ValueError):
            pack_srcs(tuple(range(11)))


class TestPackChecks:
    """Every field the columns cannot hold is refused with a
    ``ValueError``, and the widest values that fit are accepted."""

    @pytest.mark.parametrize("insn", [
        Instruction(pc=-1, op=OpClass.NOP),
        Instruction(pc=1 << 64, op=OpClass.NOP),
        ialu(0x1000, 3, 1 << 64),
        load(0x1000, 3, 0, 1 << 64),
        branch(0x1000, True, 1 << 64),
        ialu(0x1000, 256, 1),
        Instruction(pc=0x1000, op=OpClass.NOP, latency_class=256),
        ialu(0x1000, 3, 1, srcs=tuple(range(11))),
        ialu(0x1000, 3, 1, srcs=(64,)),
    ], ids=["pc-neg", "pc-wide", "value", "addr", "target", "dest",
            "latency", "src-count", "src-reg"])
    def test_out_of_range_field_rejected(self, insn):
        with pytest.raises(ValueError):
            PackedTrace.from_instructions([ialu(0x0FFC, 1, 0), insn])

    def test_boundaries_accepted(self):
        insns = [
            Instruction(pc=WORD_MASK, op=OpClass.NOP, latency_class=255),
            load(0x1000, 255, WORD_MASK, WORD_MASK, srcs=tuple(range(10))),
            branch(0x1004, False, WORD_MASK, srcs=(63,)),
        ]
        assert list(PackedTrace.from_instructions(insns)) == insns


class TestSlicing:
    def test_slice_is_zero_copy_view(self):
        packed = get("gcc").trace(2000)
        view = packed[500:1500]
        assert len(view) == 1000
        assert view._cols is packed._cols  # shared columns, no copy
        assert list(view) == list(packed)[500:1500]

    def test_nested_slice(self):
        packed = get("mcf").trace(1000)
        assert list(packed[100:900][200:300]) == list(packed)[300:400]

    def test_negative_and_open_slices(self):
        packed = PackedTrace.from_instructions(sample_instructions())
        base = sample_instructions()
        assert list(packed[:3]) == base[:3]
        assert list(packed[-2:]) == base[-2:]
        assert packed[2] == base[2]
        assert packed[-1] == base[-1]

    def test_stats_match_trace_stats(self):
        trace = generated("parser", 4000)
        packed = PackedTrace.from_instructions(trace)
        assert packed.stats == object_stats(trace)


class TestRunnerEquivalence:
    @pytest.mark.parametrize("bench", ["gcc", "mcf"])
    @pytest.mark.parametrize("gated", [False, True])
    def test_value_prediction_stats_identical(self, bench, gated):
        trace = generated(bench, 6000)
        packed = PackedTrace.from_instructions(trace, name=bench)
        slow = run_value_prediction(trace, fresh_predictors(), gated=gated)
        fast = run_value_prediction(packed, fresh_predictors(), gated=gated)
        for name in slow:
            assert slow[name].as_dict() == fast[name].as_dict(), name

    def test_address_prediction_stats_identical(self):
        trace = generated("vortex", 6000)
        packed = PackedTrace.from_instructions(trace, name="vortex")
        predictors = lambda: {
            "ls": StridePredictor(entries=4096),
            "gs": GDiffPredictor(order=32, entries=4096),
            "markov": MarkovPredictor(entries=65536, ways=4),
        }
        slow = run_address_prediction(trace, predictors())
        fast = run_address_prediction(packed, predictors())
        for name in slow:
            assert slow[name].as_dict() == fast[name].as_dict(), name

    def test_filtered_address_prediction_stats_identical(self):
        """A miss filter sees the same loads in the same order on both
        trace types, and the loads it keeps score identically."""
        trace = generated("vortex", 6000)
        packed = PackedTrace.from_instructions(trace, name="vortex")
        predictors = lambda: {
            "ls": StridePredictor(entries=4096),
            "gs": GDiffPredictor(order=32, entries=4096),
            "markov": MarkovPredictor(entries=65536, ways=4),
        }

        def miss_filter(seen):
            dcache = Cache(ProcessorConfig().dcache)

            def keep(insn):
                seen.append(insn.addr)
                return not dcache.access(insn.addr)
            return keep

        slow_seen, fast_seen = [], []
        slow = run_address_prediction(trace, predictors(),
                                      miss_filter=miss_filter(slow_seen))
        fast = run_address_prediction(packed, predictors(),
                                      miss_filter=miss_filter(fast_seen))
        assert fast_seen == slow_seen == list(packed.load_pairs()[1])
        assert 0 < slow["ls"].attempts < len(slow_seen)
        for name in slow:
            assert slow[name].as_dict() == fast[name].as_dict(), name

    def test_ooo_core_results_identical(self):
        trace = generated("twolf", 3000, code_copies=4)
        packed = PackedTrace.from_instructions(trace, name="twolf")
        a = OutOfOrderCore().run(trace)
        b = OutOfOrderCore().run(packed)
        assert a.ipc == b.ipc
        assert a.cycles == b.cycles
        assert a.retired == b.retired
        assert a.dcache_miss_rate == b.dcache_miss_rate

    def test_value_pairs_cover_exactly_value_producers(self):
        trace = generated("bzip2", 2000)
        packed = PackedTrace.from_instructions(trace)
        pcs, values = packed.value_pairs()
        expected = [(i.pc, i.value) for i in trace if i.produces_value]
        assert list(zip(pcs, values)) == expected

    def test_load_pairs_cover_exactly_loads(self):
        trace = generated("bzip2", 2000)
        packed = PackedTrace.from_instructions(trace)
        pcs, addrs = packed.load_pairs()
        expected = [(i.pc, i.addr) for i in trace if i.op is OpClass.LOAD]
        assert list(zip(pcs, addrs)) == expected

    @pytest.mark.parametrize("pairs, groups", [
        ("value_pairs", "value_groups"),
        ("load_pairs", "load_groups"),
    ])
    def test_groups_index_each_pc_in_first_appearance_order(self, pairs,
                                                           groups):
        packed = PackedTrace.from_instructions(generated("gcc", 3000))
        for view in (packed, packed[700:2100]):
            pcs = getattr(view, pairs)()[0]
            grouped = getattr(view, groups)()
            assert list(grouped) == list(dict.fromkeys(pcs))
            expected = {}
            for i, pc in enumerate(pcs):
                expected.setdefault(pc, []).append(i)
            assert {pc: list(idxs) for pc, idxs in grouped.items()} \
                == expected
            assert getattr(view, groups)() is grouped  # cached per view
