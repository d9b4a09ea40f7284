"""Tests for the out-of-order core: retirement, timing, dependencies,
value speculation and selective reissue."""

import pytest

from repro.pipeline import (
    LocalPredictorAdapter,
    OutOfOrderCore,
    ProcessorConfig,
)
from repro.predictors import ConstantPredictor, LastValuePredictor
from repro.trace import branch, ialu, load, store
from repro.trace.isa import Instruction, OpClass


def alu_stream(n):
    """n independent single-cycle ALU instructions in one hot code line."""
    return [ialu(0x1000 + (i % 16) * 4, 1 + (i % 8), i) for i in range(n)]


def dependent_chain(n):
    """n serially dependent ALU instructions (each reads the previous)."""
    return [
        ialu(0x1000 + i * 4, 5, i, srcs=(5,)) for i in range(n)
    ]


class TestBasicExecution:
    def test_retires_everything(self):
        core = OutOfOrderCore()
        result = core.run(alu_stream(100))
        assert result.retired == 100

    def test_ipc_bounded_by_width(self):
        core = OutOfOrderCore()
        result = core.run(alu_stream(400))
        assert 0 < result.ipc <= core.config.width

    def test_independent_code_high_ipc(self):
        result = OutOfOrderCore().run(alu_stream(800))
        assert result.ipc > 2.0

    def test_dependent_chain_serialises(self):
        cfg = ProcessorConfig()
        result = OutOfOrderCore(config=cfg).run(dependent_chain(200))
        # Each instruction waits for its predecessor: IPC ~ 1/latency.
        per_insn = cfg.ialu_latency + cfg.pipe_overhead
        assert result.ipc < 1.2 / per_insn + 0.2

    def test_empty_trace(self):
        result = OutOfOrderCore().run([])
        assert result.retired == 0

    def test_max_cycles_cap(self):
        result = OutOfOrderCore().run(alu_stream(10_000), max_cycles=50)
        assert result.cycles <= 50
        assert result.retired < 10_000


class TestMemoryTiming:
    def test_load_misses_slow_execution(self):
        # Serially dependent loads, each to a fresh line: all miss.
        missing = [
            load(0x1000, 2, i, 0x100000 + i * 4096, srcs=(2,))
            for i in range(60)
        ]
        hitting = [
            load(0x1000, 2, i, 0x100000, srcs=(2,)) for i in range(60)
        ]
        miss_result = OutOfOrderCore().run(missing)
        hit_result = OutOfOrderCore().run(hitting)
        assert miss_result.cycles > 2 * hit_result.cycles
        assert miss_result.dcache_miss_rate > 0.9
        assert hit_result.dcache_miss_rate < 0.1

    def test_store_counts_dcache_access(self):
        stores = [store(0x1000, 0x2000 + i * 8) for i in range(10)]
        result = OutOfOrderCore().run(stores)
        assert result.dcache_accesses == 10

    def test_icache_misses_counted(self):
        # Instructions spread over many lines force I-cache misses.
        spread = [ialu(0x1000 + i * 4096, 1, i) for i in range(40)]
        result = OutOfOrderCore().run(spread)
        assert result.icache_misses > 0


class TestBranches:
    def test_mispredict_stalls_fetch(self):
        import random

        rng = random.Random(0)
        noisy = []
        for i in range(300):
            noisy.extend(alu_stream(4))
            noisy.append(branch(0x9000, rng.random() < 0.5, 0x1000))
        predictable = []
        for i in range(300):
            predictable.extend(alu_stream(4))
            predictable.append(branch(0x9000, True, 0x1000))
        noisy_result = OutOfOrderCore().run(noisy)
        smooth_result = OutOfOrderCore().run(predictable)
        assert noisy_result.branch_mispredict_rate > 0.2
        assert smooth_result.branch_mispredict_rate < 0.1
        assert noisy_result.cycles > smooth_result.cycles

    def test_branch_counters(self):
        stream = [branch(0x100, True, 0x0) for _ in range(50)]
        result = OutOfOrderCore().run(stream)
        assert result.branches == 50


class TestValueDelay:
    def test_histogram_collected(self):
        core = OutOfOrderCore(track_value_delay=True)
        result = core.run(alu_stream(500))
        assert sum(result.value_delay_histogram.values()) == 500
        assert result.mean_value_delay() >= 0

    def test_disabled_by_default(self):
        result = OutOfOrderCore().run(alu_stream(100))
        assert result.value_delay_histogram == {}

    def test_parallel_work_increases_delay(self):
        # Independent producers in flight raise the number of values that
        # complete between one instruction's dispatch and write-back.
        result = OutOfOrderCore(track_value_delay=True).run(alu_stream(800))
        assert result.mean_value_delay() > 1.0


class TestValueSpeculation:
    def _chain_behind_missing_load(self, n_blocks):
        """Each block: a missing load (always value 7) feeding a chain."""
        stream = []
        for i in range(n_blocks):
            addr = 0x200000 + i * 8192  # fresh line: always misses
            stream.append(load(0x1000, 3, 7, addr, srcs=(1,)))
            for j in range(6):
                stream.append(ialu(0x1010 + j * 4, 3, 7 + j, srcs=(3,)))
        return stream

    def test_correct_speculation_speeds_up(self):
        stream = self._chain_behind_missing_load(80)
        baseline = OutOfOrderCore().run(list(stream))
        vp = LocalPredictorAdapter(LastValuePredictor())
        spec = OutOfOrderCore(value_predictor=vp, speculate=True).run(
            list(stream))
        assert spec.retired == baseline.retired
        assert spec.cycles < baseline.cycles
        assert vp.stats.accuracy > 0.9

    def test_passive_predictor_does_not_change_timing(self):
        stream = self._chain_behind_missing_load(40)
        baseline = OutOfOrderCore().run(list(stream))
        vp = LocalPredictorAdapter(LastValuePredictor())
        passive = OutOfOrderCore(value_predictor=vp, speculate=False).run(
            list(stream))
        assert passive.cycles == baseline.cycles

    def test_wrong_speculation_triggers_reissue(self):
        # Loads produce changing values; a constant predictor becomes
        # confident on the dependent adds but the load value changes.
        stream = []
        for i in range(60):
            addr = 0x200000 + i * 8192
            stream.append(load(0x1000, 3, i * 16, addr, srcs=(1,)))
            stream.append(ialu(0x1010, 4, i * 16 + 1, srcs=(3,)))
            stream.append(ialu(0x1014, 5, i * 16 + 2, srcs=(4,)))
        vp = LocalPredictorAdapter(ConstantPredictor(0))
        # Force confidence quickly by using an always-confident gate.
        from repro.predictors.confidence import ConfidenceTable

        vp.confidence = ConfidenceTable(threshold=0)
        result = OutOfOrderCore(value_predictor=vp, speculate=True).run(
            list(stream))
        assert result.reissues > 0
        assert result.retired == 60 * 3

    def test_reissue_preserves_correctness_of_retire_count(self):
        stream = self._chain_behind_missing_load(30)
        vp = LocalPredictorAdapter(ConstantPredictor(12345))
        from repro.predictors.confidence import ConfidenceTable

        vp.confidence = ConfidenceTable(threshold=0)
        result = OutOfOrderCore(value_predictor=vp, speculate=True).run(
            list(stream))
        assert result.retired == len(stream)


class TestConfig:
    def test_narrow_machine_slower(self):
        stream = alu_stream(600)
        wide = OutOfOrderCore(config=ProcessorConfig(width=4)).run(
            list(stream))
        narrow = OutOfOrderCore(config=ProcessorConfig(width=1)).run(
            list(stream))
        assert narrow.cycles > 2 * wide.cycles

    def test_small_rob_limits_ilp(self):
        # Missing loads interleaved with independent work: a small window
        # cannot keep enough work in flight to hide the misses.
        stream = []
        for i in range(80):
            stream.append(load(0x1000, 2, i, 0x300000 + i * 8192, srcs=(2,)))
            stream.extend(alu_stream(12))
        big = OutOfOrderCore(config=ProcessorConfig(rob_entries=64)).run(
            list(stream))
        small = OutOfOrderCore(config=ProcessorConfig(rob_entries=8)).run(
            list(stream))
        assert small.cycles > big.cycles

    def test_load_latency_helper(self):
        cfg = ProcessorConfig()
        assert cfg.load_latency(True) == cfg.agen_latency + cfg.dcache_hit_latency
        assert cfg.load_latency(False) == (
            cfg.agen_latency + cfg.dcache_hit_latency
            + cfg.dcache.miss_penalty
        )
