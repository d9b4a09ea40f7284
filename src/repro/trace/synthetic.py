"""Workload composer: weaves kernels into full instruction traces.

A :class:`WorkloadSpec` describes a benchmark the way a profile describes a
real program: as a collection of *inner loops* (:class:`LoopGroup`), each
with a body built from kernel slots and a trip count, visited in turn by an
outer loop.  The structure matters because the experiments are sensitive to
it in exactly the ways the paper discusses:

* **Loop body size** determines how far apart dynamic instances of the
  same static instruction are.  In a *tiny* loop (body of a handful of
  values) an instruction's previous result sits only a few entries back in
  the global value queue — reachable by gDiff — but in a pipeline the
  previous instance is often still in flight at prediction time, so local
  predictors read stale state (the value-delay problem of Section 3.1).
  In a *large* loop the opposite holds: locals are comfortable, and only a
  deep global queue can reach the previous iteration.
* **Within-body structure** (dependent chains, spill/fill, neighbouring
  fields) provides the short-distance global stride locality that exists
  at any loop size.
* Each inner iteration ends with a loop-back branch (taken until the trip
  count expires), giving the branch predictor the mostly-regular control
  flow real hot loops have; hammocks (``skip_prob``) and
  :class:`~repro.trace.kernels.BranchyKernel` slots add the irregular part.

The composer weaves column rows (:data:`repro.trace.packed.Row`), never
``Instruction`` records: :meth:`WorkloadSpec.rows` is the stream,
:meth:`WorkloadSpec.trace` packs a prefix of it with
:meth:`PackedTrace.from_rows <repro.trace.packed.PackedTrace.from_rows>`,
and :meth:`WorkloadSpec.generate` is the ``Instruction`` view of the same
rows for code that wants objects.

The per-benchmark specs live in :mod:`repro.trace.workloads`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, List, Optional, Sequence

from .isa import Instruction
from .kernels import Kernel, RegAllocator
from .packed import PackedTrace, Row, branch_row, instructions

#: Where synthetic code regions start.  Kernels are packed contiguously
#: (each gets room for its PC copies, minimum 4 KiB) the way a compiler
#: lays out hot code; branch PCs live in a separate range so control
#: instructions never alias with value producers in PC-indexed tables.
CODE_BASE = 0x0040_0000
BRANCH_CODE_BASE = 0x0030_0000
MIN_KERNEL_REGION = 0x1000
COPY_REGION = 0x200

#: Where synthetic data regions start; each kernel gets a 64 MiB arena.
DATA_BASE = 0x1000_0000
DATA_STRIDE = 1 << 26


@dataclass
class KernelSlot:
    """One position in a loop body.

    Args:
        factory: zero-argument callable building a fresh kernel instance.
        skip_prob: probability the slot is bypassed in a given iteration
            (a data-dependent hammock; a guard branch is emitted).
        repeat: consecutive blocks the kernel emits per iteration.
    """

    factory: Callable[[], Kernel]
    skip_prob: float = 0.0
    repeat: int = 1


@dataclass
class LoopGroup:
    """One inner loop: a body of kernel slots and a trip count.

    Args:
        slots: the loop body, in order.
        iterations: trip count per visit from the outer loop.
        weight: relative number of visits per outer-loop round (an integer;
            the group is visited this many times per round).
    """

    slots: List[KernelSlot]
    iterations: int = 32
    weight: int = 1


@dataclass
class WorkloadSpec:
    """A complete synthetic benchmark description."""

    name: str
    groups: List[LoopGroup]
    seed: int = 12345
    #: Optional short description used in reports.
    description: str = ""

    def rows(self, seed: Optional[int] = None,
             code_copies: int = 1) -> Iterator[Row]:
        """Yield the benchmark's dynamic instruction stream as column
        rows (endless).

        Args:
            seed: RNG seed override.
            code_copies: rotate each kernel's static PCs across this many
                code copies (see :meth:`Kernel.set_copies`) — the value
                stream is identical, only the static-instruction count
                grows.  Used by the table-aliasing study (Figure 9).
        """
        rng = random.Random(self.seed if seed is None else seed)
        regs = RegAllocator()
        bound: List[List[Kernel]] = []
        region = max(MIN_KERNEL_REGION, code_copies * COPY_REGION)
        next_pc_base = CODE_BASE
        next_data = 0
        hammock_pcs: List[int] = []
        for group in self.groups:
            kernels = []
            for slot in group.slots:
                kernel = slot.factory()
                kernel.bind(
                    pc_base=next_pc_base,
                    addr_base=DATA_BASE + next_data * DATA_STRIDE,
                    regs=regs,
                )
                if code_copies > 1:
                    kernel.set_copies(code_copies)
                next_pc_base += region
                next_data += 1
                kernels.append(kernel)
                hammock_pcs.append(BRANCH_CODE_BASE + 8 * len(hammock_pcs))
            bound.append(kernels)
        # One loop-back branch PC per group, in the branch code range.
        loop_pcs = [BRANCH_CODE_BASE + 0x8000 + 8 * g
                    for g in range(len(self.groups))]
        visit_order: List[int] = []
        for index, group in enumerate(self.groups):
            visit_order.extend([index] * max(1, group.weight))
        hammock_index = {id(k): i for i, k in
                         enumerate(k for ks in bound for k in ks)}
        while True:
            for index in visit_order:
                group = self.groups[index]
                kernels = bound[index]
                loop_pc = loop_pcs[index]
                for iteration in range(group.iterations):
                    for slot, kernel in zip(group.slots, kernels):
                        if slot.skip_prob:
                            skipped = rng.random() < slot.skip_prob
                            guard_pc = hammock_pcs[hammock_index[id(kernel)]]
                            yield branch_row(guard_pc, skipped, guard_pc + 64)
                            if skipped:
                                continue
                        for _ in range(slot.repeat):
                            yield from kernel.block(rng)
                            kernel.advance_copy()
                    # Loop-back branch: taken until the trip count expires.
                    yield branch_row(
                        loop_pc, iteration < group.iterations - 1,
                        CODE_BASE,
                    )

    def generate(self, seed: Optional[int] = None,
                 code_copies: int = 1) -> Iterator[Instruction]:
        """The stream of :meth:`rows` as ``Instruction`` records (endless)."""
        return instructions(self.rows(seed=seed, code_copies=code_copies))

    def trace(self, length: int, seed: Optional[int] = None,
              code_copies: int = 1) -> PackedTrace:
        """Materialise *length* instructions of this benchmark, packed.

        The trace cache fills its entries through this method, so a
        workload's trace is packed in one place.
        """
        rows = self.rows(seed=seed, code_copies=code_copies)
        return PackedTrace.from_rows(islice(rows, length), name=self.name)


def interleave(specs: Sequence[WorkloadSpec], length: int,
               seed: int = 0) -> PackedTrace:
    """Round-robin several workloads into one trace (multiprogrammed mix).

    Not used by the paper's experiments but handy for stress testing
    predictors against context switches.
    """
    streams = [spec.rows(seed=seed + i) for i, spec in enumerate(specs)]

    def woven() -> Iterator[Row]:
        while True:
            for stream in streams:
                yield from islice(stream, 64)

    return PackedTrace.from_rows(islice(woven(), length),
                                 name="+".join(s.name for s in specs))
