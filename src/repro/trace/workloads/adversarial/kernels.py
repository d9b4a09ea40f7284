"""Kernels built to *defeat* specific predictor assumptions.

The main kernel zoo (:mod:`repro.trace.kernels`) models structure the
paper's predictors exploit; these model the ways real programs break
that structure over time.  Each kernel documents which predictor
assumption it attacks.
"""

from __future__ import annotations

import random
from typing import List

from ....wordops import wadd, wrap
from ...kernels import Kernel
from ...packed import Row, ialu_row, pack_srcs


class DriftingCounterKernel(Kernel):
    """A counter whose stride re-randomises every *generation* emissions.

    Attacks the stride predictors' steady-state assumption: within a
    generation the value is perfectly stride predictable, then the
    stride silently changes and every stride table entry (local or
    global) mispredicts until it retrains.  Shorter generations mean
    more retraining cliffs per trace.
    """

    name = "drifting-counter"

    def __init__(self, generation: int = 64, span: int = 1 << 12,
                 start: int = 0):
        super().__init__()
        if generation <= 0:
            raise ValueError("generation must be positive")
        self.generation = generation
        self.span = span
        self.value = wrap(start)
        self.stride = 1
        self._emitted = 0

    def _allocate_regs(self, regs) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        if self._emitted % self.generation == 0:
            self.stride = rng.randrange(1, self.span)
        self._emitted += 1
        self.value = wadd(self.value, self.stride)
        return [ialu_row(self.pc(0), self.reg, self.value, self._srcs)]


class DriftingPeriodicKernel(Kernel):
    """A periodic value set whose members mutate every *generation*.

    Attacks context (FCM/DFCM) predictors: the period structure stays
    learnable, but one member of the repeating set is replaced each
    generation, so learned contexts decay instead of converging.
    """

    name = "drifting-periodic"

    def __init__(self, period: int = 6, generation: int = 96,
                 span: int = 1 << 20):
        super().__init__()
        if period <= 0 or generation <= 0:
            raise ValueError("period and generation must be positive")
        self.period = period
        self.generation = generation
        self.span = span
        self.values: List[int] = []
        self._emitted = 0

    def _allocate_regs(self, regs) -> None:
        self.reg = regs.alloc()

    def block(self, rng: random.Random) -> List[Row]:
        if not self.values:
            self.values = [rng.randrange(self.span)
                           for _ in range(self.period)]
        if self._emitted and self._emitted % self.generation == 0:
            self.values[rng.randrange(self.period)] = rng.randrange(self.span)
        value = self.values[self._emitted % self.period]
        self._emitted += 1
        return [ialu_row(self.pc(0), self.reg, value)]


class EntropyRampKernel(Kernel):
    """A stride base plus noise whose bit-width ramps up and down.

    Attacks everything gradually: the value is ``base + noise`` where
    ``base`` advances by a fixed stride and ``noise`` is
    ``rng.getrandbits(bits)`` with *bits* sweeping a triangle wave
    ``0 → peak_bits → 0`` over *cycle* emissions.  At the quiet end the
    stream is perfectly stride predictable; at the peak it is pure
    noise; in between, predictors face a continuously sliding
    signal-to-noise ratio rather than a clean phase boundary.
    """

    name = "entropy-ramp"

    def __init__(self, stride: int = 24, peak_bits: int = 24,
                 cycle: int = 512, start: int = 0):
        super().__init__()
        if not 0 < peak_bits <= 56:
            raise ValueError("peak_bits must be in (0, 56]")
        if cycle < 2:
            raise ValueError("cycle must be at least 2")
        self.stride = stride
        self.peak_bits = peak_bits
        self.cycle = cycle
        self.base = wrap(start)
        self._emitted = 0

    def _bits(self) -> int:
        half = self.cycle // 2
        pos = self._emitted % self.cycle
        ramp = pos if pos < half else self.cycle - pos
        return (ramp * self.peak_bits) // max(1, half)

    def _allocate_regs(self, regs) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        bits = self._bits()
        self._emitted += 1
        self.base = wadd(self.base, self.stride)
        noise = rng.getrandbits(bits) if bits else 0
        return [ialu_row(self.pc(0), self.reg, wadd(self.base, noise),
                         self._srcs)]
