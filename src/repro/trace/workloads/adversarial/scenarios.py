"""The adversarial scenario specs and their expectation bands.

Each scenario is a :class:`WorkloadSpec` (or a composing subclass), so
the whole stack — trace cache, fused kernels, pipeline, campaign
scheduler, serve plane — consumes it like any benchmark.

``EXPECTATIONS`` carries fidelity-style accuracy bands per scenario and
predictor, calibrated at :data:`EXPECT_LENGTH` instructions with each
scenario's default seed (generation is deterministic, so these are
exact-science bands, not vibes).  ``repro workloads --check`` and
``examples/campaigns/adversarial.toml`` gate on them.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from ...kernels import (ArrayWalkKernel, ChainKernel, ConstantKernel,
                        CounterClusterKernel, CounterKernel, PeriodicKernel,
                        PointerChaseKernel, RandomKernel, SpillFillKernel)
from ...packed import FLAG_TARGET, Row
from ...synthetic import KernelSlot, WorkloadSpec
from ..common import loop, small_loop
from .kernels import (DriftingCounterKernel, DriftingPeriodicKernel,
                      EntropyRampKernel)

#: Instruction count the expectation bands are calibrated at.
EXPECT_LENGTH = 24_000

#: Spacing between the code regions of a composed spec's parts, so
#: distinct phases look like distinct code (no PC aliasing) unless a
#: scenario wants the aliasing on purpose.
_PART_PC_SPACING = 0x0100_0000


def _shift_pc(row: Row, offset: int) -> Row:
    pc, op, flag, dest, srcs, value, addr, target = row
    if flag & FLAG_TARGET:
        target += offset
    return (pc + offset, op, flag, dest, srcs, value, addr, target)


class ComposedSpec(WorkloadSpec):
    """Base for scenarios that interleave independent sub-workloads.

    Each part generates with its own derived seed; ``shift_pcs``
    relocates part *i*'s static code by ``i * _PART_PC_SPACING`` so
    parts read as different program phases rather than aliased PCs.
    """

    def __init__(self, name: str, parts: List[WorkloadSpec], seed: int,
                 description: str = "", shift_pcs: bool = True):
        super().__init__(name=name, groups=[], seed=seed,
                         description=description)
        self.parts = parts
        self.shift_pcs = shift_pcs

    def _streams(self, seed: Optional[int],
                 code_copies: int) -> List[Iterator[Row]]:
        eff = self.seed if seed is None else seed
        streams = []
        for index, part in enumerate(self.parts):
            stream = part.rows(seed=eff * 1000003 + index,
                               code_copies=code_copies)
            if self.shift_pcs and index:
                offset = index * _PART_PC_SPACING
                stream = (_shift_pc(row, offset) for row in stream)
            streams.append(stream)
        return streams

    def rows(self, seed: Optional[int] = None,
             code_copies: int = 1) -> Iterator[Row]:
        raise NotImplementedError


class PhasedSpec(ComposedSpec):
    """Round-robin the parts in fixed-length phases (phase-shifting mix)."""

    def __init__(self, name: str, parts: List[WorkloadSpec], seed: int,
                 phase_len: int = 2500, description: str = ""):
        super().__init__(name, parts, seed, description=description)
        self.phase_len = phase_len

    def rows(self, seed: Optional[int] = None,
             code_copies: int = 1) -> Iterator[Row]:
        streams = self._streams(seed, code_copies)
        while True:
            for stream in streams:
                for _ in range(self.phase_len):
                    yield next(stream)


class BurstSpec(ComposedSpec):
    """Interleave the parts in random exponential bursts.

    Models context switches between programs sharing the predictor
    tables: ``shift_pcs=False`` keeps every part's static code in the
    same address range, so PC-indexed predictor state is *deliberately*
    thrashed by cross-part aliasing.
    """

    def __init__(self, name: str, parts: List[WorkloadSpec], seed: int,
                 mean_burst: int = 400, description: str = ""):
        super().__init__(name, parts, seed, description=description,
                         shift_pcs=False)
        self.mean_burst = mean_burst

    def rows(self, seed: Optional[int] = None,
             code_copies: int = 1) -> Iterator[Row]:
        eff = self.seed if seed is None else seed
        rng = random.Random(eff ^ 0xB0B5)
        streams = self._streams(seed, code_copies)
        while True:
            stream = streams[rng.randrange(len(streams))]
            burst = 1 + int(rng.expovariate(1.0 / self.mean_burst))
            for _ in range(burst):
                yield next(stream)


# -- the bank -----------------------------------------------------------------

def _stride_friendly(name: str, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, seed=seed,
        description="stride heaven: counters and array walks",
        groups=[
            small_loop([
                lambda: CounterKernel(stride=4),
                lambda: CounterClusterKernel(count=3, stride=8),
                lambda: ArrayWalkKernel(elem_stride=8, value_mode="stride"),
            ], iterations=40),
        ])


def _context_friendly(name: str, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, seed=seed,
        description="context heaven: short repeating value sets",
        groups=[
            small_loop([
                lambda: PeriodicKernel(period=5),
                lambda: PeriodicKernel(period=7),
                lambda: ConstantKernel(value=0x5CA1AB1E),
            ], iterations=40),
        ])


def _global_only(name: str, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, seed=seed,
        description="global-stride only: spill/fill and chains",
        groups=[
            small_loop([
                lambda: SpillFillKernel(gap=2),
                lambda: ChainKernel(uses=3, offsets=(3, 7, 11)),
            ], iterations=40),
        ])


def phase_shift() -> PhasedSpec:
    """Alternating predictor-friendly regimes, 2.5K instructions each.

    Any single-strategy predictor is periodically starved: stride
    tables idle through the context phases and vice versa, and every
    phase boundary forces retraining on code none of the tables have
    seen recently.
    """
    return PhasedSpec(
        name="adv-phase-shift",
        seed=0xF00D,
        phase_len=2500,
        description="phase-shifting kernel mixes (stride/context/global)",
        parts=[
            _stride_friendly("phase-stride", 0xA1),
            _context_friendly("phase-context", 0xA2),
            _global_only("phase-global", 0xA3),
        ])


def drift() -> WorkloadSpec:
    """Generational drift: structure that decays instead of converging."""
    return WorkloadSpec(
        name="adv-drift",
        seed=0xD41F7,
        description="generational drift of strides and value sets",
        groups=[
            small_loop([
                lambda: DriftingCounterKernel(generation=64),
                lambda: DriftingPeriodicKernel(period=6, generation=96),
                lambda: CounterKernel(stride=12),
                lambda: DriftingCounterKernel(generation=160, span=1 << 8),
            ], iterations=40),
        ])


def burst() -> BurstSpec:
    """Bursty interleaving of two programs over aliased PCs."""
    gzip_like = WorkloadSpec(
        name="burst-scan", seed=0xB1,
        description="dense scans",
        groups=[
            small_loop([
                lambda: CounterClusterKernel(count=3, stride=2),
                lambda: ArrayWalkKernel(elem_stride=4, value_mode="stride"),
                lambda: PeriodicKernel(period=12),
            ], iterations=40),
        ])
    mcf_like = WorkloadSpec(
        name="burst-chase", seed=0xB2,
        description="pointer chases and noise",
        groups=[
            loop([
                KernelSlot(lambda: PointerChaseKernel(jump_prob=0.2)),
                KernelSlot(lambda: RandomKernel(span=1 << 28)),
                KernelSlot(lambda: SpillFillKernel(gap=2)),
            ], iterations=30),
        ])
    return BurstSpec(
        name="adv-burst",
        seed=0xCAFE,
        mean_burst=400,
        description="bursty interleaving, shared PC ranges (context "
                    "switches thrash the tables)",
        parts=[gzip_like, mcf_like])


def entropy_ramp() -> WorkloadSpec:
    """Value entropy that ramps up and down instead of switching."""
    return WorkloadSpec(
        name="adv-entropy-ramp",
        seed=0xE247,
        description="value-entropy ramps over a stride baseline",
        groups=[
            small_loop([
                lambda: EntropyRampKernel(stride=24, peak_bits=24,
                                          cycle=512),
                lambda: EntropyRampKernel(stride=5, peak_bits=16,
                                          cycle=1536),
                lambda: CounterKernel(stride=3),
            ], iterations=40),
        ])


#: Calibrated ``raw_accuracy`` bands per scenario and predictor at
#: :data:`EXPECT_LENGTH` instructions, default seeds.  Generation is
#: deterministic, so the bands are tight on purpose: a drift here means
#: a generator or predictor semantic change, which must be deliberate.
EXPECTATIONS: Dict[str, Dict[str, Tuple[float, float]]] = {
    # Phase shifts reward history depth: gdiff32 rides out the phase
    # boundary that local predictors keep relearning.
    "adv-phase-shift": {
        "stride": (0.43, 0.53),
        "dfcm": (0.58, 0.68),
        "gdiff8": (0.64, 0.74),
        "gdiff32": (0.79, 0.89),
    },
    # Generational drift: context (dfcm) and deep global history recover
    # within a generation; plain stride pays a miss per mutation.
    "adv-drift": {
        "stride": (0.69, 0.79),
        "dfcm": (0.90, 1.00),
        "gdiff8": (0.69, 0.79),
        "gdiff32": (0.94, 1.00),
    },
    # Bursty interleaving breaks PC-local recency; the global difference
    # predictors hold a clear (if modest) lead.
    "adv-burst": {
        "stride": (0.35, 0.45),
        "dfcm": (0.33, 0.43),
        "gdiff8": (0.56, 0.66),
        "gdiff32": (0.55, 0.65),
    },
    # Entropy ramps cap everyone near the noise floor — the band is a
    # ceiling check: nobody should *beat* injected entropy.
    "adv-entropy-ramp": {
        "stride": (0.34, 0.45),
        "dfcm": (0.32, 0.42),
        "gdiff8": (0.33, 0.43),
        "gdiff32": (0.33, 0.44),
    },
}
