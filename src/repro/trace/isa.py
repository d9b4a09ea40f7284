"""Minimal dynamic-instruction model used throughout the simulation.

The reproduction is *trace driven*: every trace is a stream of dynamic
instructions, each carrying everything the predictors and the pipeline
model need — the static PC, the operation class, architectural register
operands, the produced value (for value-producing instructions), the
effective address (for memory operations) and branch outcome information.
:class:`Instruction` is that record as an object: what iterating a
:class:`~repro.trace.packed.PackedTrace` yields, what the ingest adapters
yield, and what :func:`ialu`, :func:`load`, :func:`store` and
:func:`branch` build.  The synthetic generators skip it: they emit column
rows straight into the packed trace (:mod:`repro.trace.packed`).

The operation classes mirror the categories the paper cares about:

* ``IALU`` — integer ALU operations; value producing.
* ``LOAD`` — memory loads; value producing *and* address generating.
* ``STORE`` — memory stores; address generating but not value producing.
* ``BRANCH`` — conditional branches; not value producing.
* ``NOP`` — filler for anything else (unconditional jumps, system ops).

Per the paper, "value producing instructions" are integer operations and
loads that write a register (Section 3: predictions are made "for all value
producing integer operations or load instructions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class OpClass(enum.IntEnum):
    """Coarse operation classes distinguished by the simulation."""

    IALU = 0
    LOAD = 1
    STORE = 2
    BRANCH = 3
    NOP = 4


@dataclass(slots=True)
class Instruction:
    """One dynamic instruction in a trace.

    Attributes:
        pc: static instruction address (byte address; 4-byte aligned).
        op: operation class.
        dest: destination architectural register, or ``None``.
        srcs: source architectural registers (possibly empty).
        value: value written to ``dest`` (machine word), or ``None``.
        addr: effective memory address for loads/stores, or ``None``.
        taken: branch outcome for branches, else ``None``.
        target: branch target address for branches, else ``None``.
    """

    pc: int
    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = field(default=())
    value: Optional[int] = None
    addr: Optional[int] = None
    taken: Optional[bool] = None
    target: Optional[int] = None

    @property
    def produces_value(self) -> bool:
        """True for instructions whose result the predictors target."""
        return self.value is not None and self.dest is not None and (
            self.op is OpClass.IALU or self.op is OpClass.LOAD
        )

    @property
    def is_load(self) -> bool:
        return self.op is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.op is OpClass.BRANCH

    @property
    def is_mem(self) -> bool:
        return self.op is OpClass.LOAD or self.op is OpClass.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"pc={self.pc:#x}", self.op.name]
        if self.dest is not None:
            parts.append(f"r{self.dest}<-")
        if self.value is not None:
            parts.append(f"val={self.value}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.taken is not None:
            parts.append("T" if self.taken else "NT")
        return f"<Insn {' '.join(parts)}>"


#: Number of architectural integer registers modelled (MIPS-like).
NUM_REGS = 32


def ialu(pc: int, dest: int, value: int, srcs: Tuple[int, ...] = ()) -> Instruction:
    """Convenience constructor for an integer ALU instruction."""
    return Instruction(pc=pc, op=OpClass.IALU, dest=dest, srcs=srcs, value=value)


def load(
    pc: int,
    dest: int,
    value: int,
    addr: int,
    srcs: Tuple[int, ...] = (),
) -> Instruction:
    """Convenience constructor for a load instruction."""
    return Instruction(
        pc=pc, op=OpClass.LOAD, dest=dest, srcs=srcs, value=value, addr=addr
    )


def store(pc: int, addr: int, srcs: Tuple[int, ...] = ()) -> Instruction:
    """Convenience constructor for a store instruction."""
    return Instruction(pc=pc, op=OpClass.STORE, srcs=srcs, addr=addr)


def branch(
    pc: int, taken: bool, target: int, srcs: Tuple[int, ...] = ()
) -> Instruction:
    """Convenience constructor for a conditional branch."""
    return Instruction(
        pc=pc, op=OpClass.BRANCH, srcs=srcs, taken=taken, target=target
    )
