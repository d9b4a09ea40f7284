"""Value-stream kernels: the building blocks of synthetic workloads.

The paper's experiments measure how predictors respond to the *structure*
of a program's value stream.  Section 2 names the structures that matter:

* stride locality embedded in code sequences — a hard-to-predict "define"
  followed by dependent uses at constant offsets (Figure 3);
* spill/fill — a value stored to free a register and reloaded later, so
  the reload's value equals an earlier instruction's value (Figure 2);
* stride locality embedded in data structures — linked nodes allocated in
  traversal order, giving near-constant strides between the addresses (and
  pointer values) of neighbouring field accesses (Figure 4);
* plain local localities — loop counters (stride), repeating sequences
  (context), constants — that the baselines capture;
* generational noise and long computation chains (the benchmark *gap*)
  that defeat short global value queues.

Each kernel below generates an endless sequence of instruction *blocks*
exhibiting one of these structures, with stable static PCs so the
PC-indexed predictors see coherent local histories.  A block is a list of
column rows (:data:`repro.trace.packed.Row`) built by the row emitters of
:mod:`repro.trace.packed`, so a trace is born packed: no ``Instruction``
record is built on the way.  Kernels pack their source-register tuples
once, when they claim their registers.  A workload
(:mod:`repro.trace.synthetic`) interleaves weighted kernels into a full
instruction trace.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from ..wordops import wadd, wrap
from .packed import (Row, branch_row, ialu_row, load_row, nop_row,
                     pack_srcs, store_row)


class RegAllocator:
    """Hands out architectural registers to kernels, reusing cyclically.

    Registers 1..30 are available (r0 is the hardwired zero, r31 the link
    register by MIPS convention).  Distinct kernels receive distinct
    registers while supplies last; overflow wraps, which merely adds
    benign cross-kernel dependencies.
    """

    def __init__(self) -> None:
        self._next = 1

    def alloc(self) -> int:
        reg = 1 + (self._next - 1) % 30
        self._next += 1
        return reg

    def last(self) -> int:
        """The most recently handed-out register (r1 if none yet).

        Pad/filler kernels read this register so that non-value work
        *consumes* neighbouring kernels' results the way real code does —
        giving value prediction dependents to unblock.
        """
        if self._next == 1:
            return 1
        return 1 + (self._next - 2) % 30


class Kernel(ABC):
    """A generator of instruction blocks with one value-stream structure."""

    #: Short name used in workload specs and reports.
    name: str = "kernel"

    def __init__(self) -> None:
        self.pc_base = 0
        self.addr_base = 0
        self._bound = False
        self._copies = 1
        self._copy = 0

    def bind(self, pc_base: int, addr_base: int, regs: RegAllocator) -> None:
        """Attach the kernel to a code region, data region and registers."""
        self.pc_base = pc_base
        self.addr_base = addr_base
        self._allocate_regs(regs)
        self._bound = True

    def set_copies(self, copies: int) -> None:
        """Rotate this kernel's static PCs across *copies* code regions.

        Models a large code body (inlining/unrolling replicates hot code):
        the dynamic value stream is untouched, but successive blocks carry
        PCs from successive copies, multiplying the static-instruction
        count.  Used by the Figure 9 aliasing study, where prediction-table
        pressure is the quantity under test.
        """
        if copies <= 0:
            raise ValueError("copies must be positive")
        self._copies = copies
        self._copy = 0

    def advance_copy(self) -> None:
        """Move to the next PC copy (called by the generator per block)."""
        if self._copies > 1:
            self._copy = (self._copy + 1) % self._copies

    def pc(self, slot: int) -> int:
        """Static PC of instruction *slot* within this kernel's code."""
        return self.pc_base + 0x200 * self._copy + 4 * slot

    @abstractmethod
    def _allocate_regs(self, regs: RegAllocator) -> None:
        """Claim the architectural registers the kernel needs."""

    @abstractmethod
    def block(self, rng: random.Random) -> List[Row]:
        """Emit the next dynamic iteration of this kernel, as rows."""


class CounterKernel(Kernel):
    """A loop induction variable: ``add r, r, #stride``.

    Locally stride predictable, context predictable, and globally stride
    predictable (against its own previous occurrence) — the easy case every
    predictor should get right.
    """

    name = "counter"

    def __init__(self, stride: int = 1, start: int = 0):
        super().__init__()
        self.stride = stride
        self.value = wrap(start)

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        self.value = wadd(self.value, self.stride)
        return [ialu_row(self.pc(0), self.reg, self.value, self._srcs)]


class CounterClusterKernel(Kernel):
    """Several same-stride induction variables updated back to back.

    Real loop bodies advance multiple pointers/indices by the same element
    size (``p += 8; q += 8; i += 1*8``).  Every member is locally stride
    predictable; members after the first are *also* globally stride
    predictable at distance 1, because the difference between neighbouring
    counters is loop invariant — the "implicit use" form of Figure 3.

    Args:
        count: number of counters in the cluster.
        stride: the shared stride.
        spread: initial spacing between the counters' values.
    """

    name = "counter-cluster"

    def __init__(self, count: int = 4, stride: int = 8, spread: int = 0x1000):
        super().__init__()
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count
        self.stride = stride
        self.values = [wrap(i * spread) for i in range(count)]

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.regs_ = [regs.alloc() for _ in range(self.count)]
        self._srcs = [pack_srcs((reg,)) for reg in self.regs_]

    def block(self, rng: random.Random) -> List[Row]:
        rows = []
        for i in range(self.count):
            self.values[i] = wadd(self.values[i], self.stride)
            rows.append(ialu_row(self.pc(i), self.regs_[i], self.values[i],
                                 self._srcs[i]))
        return rows


class ConstantKernel(Kernel):
    """Produces the same value every time (e.g. a loop-invariant base)."""

    name = "constant"

    def __init__(self, value: int = 0xDEADBEEF):
        super().__init__()
        self.value = wrap(value)

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()

    def block(self, rng: random.Random) -> List[Row]:
        return [ialu_row(self.pc(0), self.reg, self.value)]


class RandomKernel(Kernel):
    """Hard-to-predict generational values: uniform noise, fresh each time.

    Optionally emits a short chain of *noise* dependent operations whose
    values are also uncorrelated (modelling gap's hard computation chains).
    Nothing — local or global — predicts these.
    """

    name = "random"

    def __init__(self, span: int = 1 << 30, chain: int = 0):
        super().__init__()
        self.span = span
        self.chain = chain

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        rows = [ialu_row(self.pc(0), self.reg, rng.randrange(self.span))]
        for i in range(self.chain):
            rows.append(ialu_row(self.pc(1 + i), self.reg,
                                 rng.randrange(self.span), self._srcs))
        return rows


class ChainKernel(Kernel):
    """Figure 3's structure: a hard define followed by dependent uses.

    The *define* (a load of an unpredictable value) defeats every
    predictor; each *use* adds a constant to its predecessor, so every use
    is globally stride predictable at distance 1 from the value before it —
    while its own local history is noise plus a constant, i.e. noise.

    Args:
        uses: number of dependent use instructions per block.
        offsets: the constants added by successive uses (cycled).
        footprint: bytes of the region the define loads from (controls
            D-cache behaviour).
        spread: non-value-producing instructions between the define and
            its first use (with a couple more between subsequent uses).
            The global-value-queue distance is unaffected — only value
            producers enter the queue — but the *instruction* distance
            grows, so in a pipeline the define has completed by the time a
            use dispatches.  Real dependent chains (and especially
            spill/fill pairs) have exactly this shape; with ``spread=0``
            the correlated value is always still in flight and only the
            idealised profile study can exploit it.
    """

    name = "chain"

    def __init__(
        self,
        uses: int = 3,
        offsets: Sequence[int] = (4, 8, 16),
        footprint: int = 1 << 16,
        spread: int = 0,
    ):
        super().__init__()
        self.uses = uses
        self.offsets = list(offsets)
        self.footprint = footprint
        self.spread = spread
        self._cursor = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.def_reg = regs.alloc()
        self.use_reg = regs.alloc()
        self.addr_reg = regs.alloc()
        self._def_srcs = pack_srcs((self.addr_reg,))
        self._use_srcs = pack_srcs((self.def_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        addr = self.addr_base + (self._cursor % self.footprint)
        self._cursor += 8
        value = rng.getrandbits(32)
        rows = [load_row(self.pc(0), self.def_reg, value, addr,
                         self._def_srcs)]
        slot = 1
        for _ in range(self.spread):
            rows.append(nop_row(self.pc(slot)))
            slot += 1
        acc = value
        for i in range(self.uses):
            acc = wadd(acc, self.offsets[i % len(self.offsets)])
            rows.append(ialu_row(self.pc(slot), self.use_reg, acc,
                                 self._use_srcs))
            slot += 1
            if i + 1 < self.uses:
                for _ in range(max(2, self.spread // 8)):
                    rows.append(nop_row(self.pc(slot)))
                    slot += 1
        return rows


class SpillFillKernel(Kernel):
    """Figure 2's structure: register spill and fill through memory.

    A correlated load produces a hard value; the value is stored to the
    stack and reloaded a few (noise) instructions later.  The reload's
    local history is noise, but its value equals the correlated load's
    value exactly — global stride locality with stride 0.

    Args:
        gap: number of uncorrelated value producers between spill and fill.
        fill_offset: constant added between store and reload (0 for a pure
            fill; nonzero models reload-plus-adjust sequences).
        spread: non-value-producing instructions between spill and fill
            (see :class:`ChainKernel`; real fills reload tens of
            instructions after the spill).
        uses: dependent ALU operations consuming the filled value (a value
            is reloaded in order to be used; these dependents are what a
            correct fill prediction unblocks).
    """

    name = "spill-fill"

    def __init__(self, gap: int = 2, fill_offset: int = 0,
                 footprint: int = 1 << 14, spread: int = 0, uses: int = 2):
        super().__init__()
        self.gap = gap
        self.fill_offset = fill_offset
        self.footprint = footprint
        self.spread = spread
        self.uses = uses
        self._cursor = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.val_reg = regs.alloc()
        self.tmp_reg = regs.alloc()
        self.sp_reg = regs.alloc()
        self._sp_srcs = pack_srcs((self.sp_reg,))
        self._spill_srcs = pack_srcs((self.val_reg, self.sp_reg))
        self._use_srcs = pack_srcs((self.val_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        src_addr = self.addr_base + (self._cursor % self.footprint)
        self._cursor += 8
        stack_addr = self.addr_base + self.footprint + (self._cursor % 512)
        value = rng.getrandbits(32)
        rows = [
            # The correlated load: a hard-to-predict value.
            load_row(self.pc(0), self.val_reg, value, src_addr,
                     self._sp_srcs),
            # Spill it.
            store_row(self.pc(1), stack_addr, self._spill_srcs),
        ]
        # Unrelated work between spill and fill.
        slot = 2
        for _ in range(self.gap):
            rows.append(ialu_row(self.pc(slot), self.tmp_reg,
                                 rng.getrandbits(24)))
            slot += 1
        for _ in range(self.spread):
            rows.append(nop_row(self.pc(slot)))
            slot += 1
        # The fill: value identical (modulo fill_offset) to the correlated
        # load's — the instruction the paper's Figure 1 shows is hopeless
        # for local predictors.
        fill_value = wadd(value, self.fill_offset)
        rows.append(load_row(self.pc(slot), self.val_reg, fill_value,
                             stack_addr, self._sp_srcs))
        slot += 1
        acc = fill_value
        for u in range(self.uses):
            acc = wadd(acc, 8 * (u + 1))
            rows.append(ialu_row(self.pc(slot), self.tmp_reg, acc,
                                 self._use_srcs))
            slot += 1
        return rows


class PointerChaseKernel(Kernel):
    """Figure 4's structure: linked nodes allocated in traversal order.

    Each iteration visits one node and performs two loads:

    * ``lw r_next, 0(node)`` — the next-node pointer.  Its value is
      ``node + node_stride`` most of the time, but with probability
      ``jump_prob`` the chain jumps to a random node (free-list recycling),
      breaking the local stride.
    * ``lw r_payload, field_offset(node)`` — a payload pointer whose value
      is at a constant offset from the next pointer (the ``->string`` field
      allocated alongside the node).  Even across jumps, this load is
      globally stride predictable at distance 1 from the previous load.

    The *address* stream has the same structure, which is what makes gDiff
    effective for load-address prediction (Section 6): the payload address
    is always the node address plus ``field_offset``.

    Args:
        node_stride: allocation stride between consecutive nodes.
        field_offset: byte offset of the first payload field (subsequent
            fields follow at ``field_offset`` increments).
        payload_delta: constant difference between the first payload value
            and the next pointer (subsequent fields add further deltas).
        fields: number of payload loads per node (real records carry
            several pointer fields allocated together — mcf's arc records
            are the canonical example).
        jump_prob: probability of a non-sequential next pointer.
        footprint: bytes spanned by the node arena (drives D-cache misses).
    """

    name = "pointer-chase"

    def __init__(
        self,
        node_stride: int = 48,
        field_offset: int = 8,
        payload_delta: int = 24,
        fields: int = 1,
        jump_prob: float = 0.1,
        footprint: int = 1 << 22,
    ):
        super().__init__()
        if fields < 0:
            raise ValueError("fields cannot be negative")
        self.node_stride = node_stride
        self.field_offset = field_offset
        self.payload_delta = payload_delta
        self.fields = fields
        self.jump_prob = jump_prob
        self.footprint = footprint
        self._node = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.next_reg = regs.alloc()
        self.payload_reg = regs.alloc()
        self._srcs = pack_srcs((self.next_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        node_addr = self.addr_base + self._node
        if rng.random() < self.jump_prob:
            next_off = rng.randrange(self.footprint // self.node_stride)
            next_node = next_off * self.node_stride
        else:
            next_node = (self._node + self.node_stride) % self.footprint
        next_ptr = self.addr_base + next_node
        rows = [load_row(self.pc(0), self.next_reg, next_ptr, node_addr,
                         self._srcs)]
        for f in range(self.fields):
            payload = wadd(next_ptr, self.payload_delta * (f + 1))
            rows.append(load_row(self.pc(1 + f), self.payload_reg, payload,
                                 node_addr + self.field_offset * (f + 1),
                                 self._srcs))
        self._node = next_node
        return rows


class PeriodicKernel(Kernel):
    """A repeating value sequence (context locality, not stride locality).

    The local context predictors (FCM/DFCM) learn the period exactly; the
    stride predictors see a varying delta; gDiff can only lock on if one
    period of the workload's global stream fits inside its queue.  This is
    the dial that gives DFCM its wins over the stride baselines.
    """

    name = "periodic"

    def __init__(self, values: Optional[Sequence[int]] = None, period: int = 5):
        super().__init__()
        if values is None:
            seeded = random.Random(period * 2654435761 % (1 << 31))
            values = [seeded.getrandbits(20) for _ in range(period)]
        self.values = [wrap(v) for v in values]
        self._phase = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        value = self.values[self._phase]
        self._phase = (self._phase + 1) % len(self.values)
        return [ialu_row(self.pc(0), self.reg, value, self._srcs)]


class SparseChainKernel(Kernel):
    """A long computation chain with noise between its links (gap's shape).

    Each block starts a *fresh* chain from an unpredictable seed value, so
    no link is locally predictable.  Successive links add fixed per-link
    constants, but ``spacing`` unpredictable values separate them, so the
    nearest correlated value sits ``spacing + 1`` entries back in the
    global value queue.  With the paper's profile queue of 8 the chain is
    invisible; a queue of 32 captures it — reproducing gap's jump from
    ~40% to ~60% accuracy when the GVQ grows (Section 3).
    """

    name = "sparse-chain"

    def __init__(self, links: int = 2, spacing: int = 10, link_offset: int = 40):
        super().__init__()
        self.links = links
        self.spacing = spacing
        self.link_offset = link_offset

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.chain_reg = regs.alloc()
        self.noise_reg = regs.alloc()
        self._srcs = pack_srcs((self.chain_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        value = rng.getrandbits(28)
        rows = [ialu_row(self.pc(0), self.chain_reg, value)]
        slot = 1
        for link in range(self.links):
            for _ in range(self.spacing):
                rows.append(ialu_row(self.pc(slot), self.noise_reg,
                                     rng.getrandbits(28)))
                slot += 1
            value = wadd(value, self.link_offset * (link + 1))
            rows.append(ialu_row(self.pc(slot), self.chain_reg, value,
                                 self._srcs))
            slot += 1
        return rows


class ParallelChainsKernel(Kernel):
    """Many independent def/use chains interleaved breadth-first.

    Each block first produces ``width`` fresh unpredictable seed values
    (one per chain), then ``rounds`` waves of uses; the use of chain *c* in
    wave *r* adds a fixed constant to that chain's previous element.  A use
    is therefore globally stride correlated only with the value ``width``
    positions back — its own chain — while its immediate neighbours belong
    to other chains whose seeds are fresh noise.

    This is the long-computation-chain structure the paper attributes to
    *gap*: with ``width`` larger than the queue, an order-8 gDiff sees
    nothing, while an order-32 gDiff captures every use (reproducing gap's
    40% → 59.7% jump when the GVQ grows to 32).
    """

    name = "parallel-chains"

    def __init__(self, width: int = 10, rounds: int = 1, offset_seed: int = 7):
        super().__init__()
        if width <= 0 or rounds < 0:
            raise ValueError("width must be positive and rounds non-negative")
        self.width = width
        self.rounds = rounds
        seeded = random.Random(offset_seed)
        self.offsets = [
            [8 * (1 + seeded.randrange(64)) for _ in range(width)]
            for _ in range(rounds)
        ]

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.seed_reg = regs.alloc()
        self.use_reg = regs.alloc()
        self._srcs = pack_srcs((self.seed_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        rows = []
        values = []
        for c in range(self.width):
            value = rng.getrandbits(30)
            values.append(value)
            rows.append(ialu_row(self.pc(c), self.seed_reg, value))
        slot = self.width
        for r in range(self.rounds):
            for c in range(self.width):
                values[c] = wadd(values[c], self.offsets[r][c])
                rows.append(ialu_row(self.pc(slot), self.use_reg, values[c],
                                     self._srcs))
                slot += 1
        return rows


class ArrayWalkKernel(Kernel):
    """A sequential array scan: stride-predictable addresses, chosen values.

    Args:
        elem_stride: address stride between elements.
        value_mode: ``"stride"`` (values advance by a constant — fully
            predictable), ``"random"`` (address predictable, value not),
            or ``"copy"`` (value equals the address — both streams stride).
        footprint: array size in bytes; the walk wraps around.
    """

    name = "array-walk"

    VALUE_MODES = ("stride", "random", "copy")

    def __init__(
        self,
        elem_stride: int = 8,
        value_mode: str = "stride",
        value_stride: int = 3,
        footprint: int = 1 << 15,
    ):
        super().__init__()
        if value_mode not in self.VALUE_MODES:
            raise ValueError(f"unknown value_mode {value_mode!r}")
        self.elem_stride = elem_stride
        self.value_mode = value_mode
        self.value_stride = value_stride
        self.footprint = footprint
        self._offset = 0
        self._value = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()
        self.idx_reg = regs.alloc()
        self._srcs = pack_srcs((self.idx_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        addr = self.addr_base + self._offset
        self._offset = (self._offset + self.elem_stride) % self.footprint
        if self.value_mode == "stride":
            self._value = wadd(self._value, self.value_stride)
            value = self._value
        elif self.value_mode == "copy":
            value = wrap(addr)
        else:
            value = rng.getrandbits(32)
        return [load_row(self.pc(0), self.reg, value, addr, self._srcs)]


class RetraverseKernel(Kernel):
    """Repeated traversals of a fixed set of addresses in shuffled order.

    Models hash-table/bucket revisits: the *addresses* recur (so a Markov
    predictor tag-hits a lot) but the successor of a given address changes
    between traversals with probability ``reorder_prob`` (so many of those
    tag-hits predict the wrong successor — the paper's high-coverage,
    low-accuracy Markov behaviour).  Values are fresh noise every visit.
    """

    name = "retraverse"

    def __init__(
        self,
        sites: int = 64,
        reorder_prob: float = 0.5,
        site_stride: int = 4160,
    ):
        super().__init__()
        self.sites = sites
        self.reorder_prob = reorder_prob
        self.site_stride = site_stride
        self._order: Optional[List[int]] = None
        self._pos = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.reg = regs.alloc()
        self._srcs = pack_srcs((self.reg,))

    def block(self, rng: random.Random) -> List[Row]:
        if self._order is None:
            self._order = list(range(self.sites))
            rng.shuffle(self._order)
        if self._pos >= self.sites:
            self._pos = 0
            # Perturb the traversal order: swap a fraction of neighbours.
            for i in range(self.sites - 1):
                if rng.random() < self.reorder_prob:
                    j = rng.randrange(self.sites)
                    self._order[i], self._order[j] = self._order[j], self._order[i]
        site = self._order[self._pos]
        self._pos += 1
        addr = self.addr_base + site * self.site_stride
        return [load_row(self.pc(0), self.reg, rng.getrandbits(32), addr,
                         self._srcs)]


class HashProbeKernel(Kernel):
    """Hash-table probing: shuffled bucket revisits with a chained entry.

    Each block probes one bucket of a fixed table and then loads the entry
    it heads:

    * ``load r_b, bucket`` — the bucket head.  Buckets are visited in a
      lap order that reshuffles a little between laps, so the *address*
      sequence is hopeless for a local stride predictor but highly
      repetitive for a Markov predictor (same transitions most laps).
    * ``load r_e, bucket + entry_offset`` — the entry, at a constant
      offset: globally stride predictable (address *and* value) at
      distance 1 from the bucket load, whatever order buckets are probed
      in.

    Values: the bucket load produces a fresh (hard) key; the entry load
    produces ``key + entry_delta`` — the Figure 3 define/use pair again,
    this time reached through memory.

    This is the structure that gives the Section 6 load-address
    experiments their character: local stride misses the shuffled
    buckets, gDiff catches every entry load, and the Markov predictor
    tag-hits laps but mispredicts whenever the order changed.
    """

    name = "hash-probe"

    def __init__(
        self,
        buckets: int = 128,
        bucket_stride: int = 4160,
        entry_offset: int = 512,
        entry_delta: int = 48,
        reorder_prob: float = 0.2,
    ):
        super().__init__()
        if buckets <= 1:
            raise ValueError("need at least two buckets")
        self.buckets = buckets
        self.bucket_stride = bucket_stride
        self.entry_offset = entry_offset
        self.entry_delta = entry_delta
        self.reorder_prob = reorder_prob
        self._order: Optional[List[int]] = None
        self._pos = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.bucket_reg = regs.alloc()
        self.entry_reg = regs.alloc()
        self._srcs = pack_srcs((self.bucket_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        if self._order is None:
            self._order = list(range(self.buckets))
            rng.shuffle(self._order)
        if self._pos >= self.buckets:
            self._pos = 0
            for i in range(self.buckets - 1):
                if rng.random() < self.reorder_prob:
                    j = rng.randrange(self.buckets)
                    self._order[i], self._order[j] = (
                        self._order[j], self._order[i])
        bucket_addr = self.addr_base + self._order[self._pos] * \
            self.bucket_stride
        self._pos += 1
        key = rng.getrandbits(30)
        return [
            load_row(self.pc(0), self.bucket_reg, key, bucket_addr,
                     self._srcs),
            load_row(self.pc(1), self.entry_reg, wadd(key, self.entry_delta),
                     bucket_addr + self.entry_offset, self._srcs),
        ]


class PadKernel(Kernel):
    """Non-value-producing filler: stores and other untracked work.

    Real programs are only ~50% value-producing integer operations; the
    rest is stores, floating point, system work.  Padding loop bodies with
    these instructions matters for the pipeline experiments: it sets the
    dynamic distance between successive instances of the same static
    instruction (and hence how stale a dispatch-time prediction is)
    without touching the value stream the profile experiments measure.

    Args:
        count: instructions per block.
        store_every: every ``store_every``-th instruction is a store to a
            small cache-resident buffer; the rest are generic non-value
            operations.
    """

    name = "pad"

    def __init__(self, count: int = 8, store_every: int = 4,
                 buffer_bytes: int = 4096):
        super().__init__()
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count
        self.store_every = store_every
        self.buffer_bytes = buffer_bytes
        self._cursor = 0

    def _allocate_regs(self, regs: RegAllocator) -> None:
        # Read the preceding kernel's register: pads are consumers of the
        # loop's real results, so they stall — and are unblocked by value
        # prediction — together with it.  Alternate instructions are left
        # dependency-free for instruction-level parallelism.
        self.src_reg = regs.last()
        self._srcs = pack_srcs((self.src_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        rows = []
        for i in range(self.count):
            srcs = self._srcs if i % 2 == 0 else 0
            if self.store_every and (i + 1) % self.store_every == 0:
                addr = self.addr_base + (self._cursor % self.buffer_bytes)
                self._cursor += 8
                rows.append(store_row(self.pc(i), addr, srcs))
            else:
                rows.append(nop_row(self.pc(i), srcs))
        return rows


class BranchyKernel(Kernel):
    """Data-dependent branches with a configurable taken probability.

    Used to set per-benchmark branch-misprediction rates in the pipeline
    studies; produces no register values.
    """

    name = "branchy"

    def __init__(self, taken_prob: float = 0.5, targets: int = 4):
        super().__init__()
        self.taken_prob = taken_prob
        self.targets = targets

    def _allocate_regs(self, regs: RegAllocator) -> None:
        self.cond_reg = regs.alloc()
        self._srcs = pack_srcs((self.cond_reg,))

    def block(self, rng: random.Random) -> List[Row]:
        taken = rng.random() < self.taken_prob
        target = self.pc(16 + rng.randrange(self.targets))
        return [branch_row(self.pc(0), taken, target, self._srcs)]
