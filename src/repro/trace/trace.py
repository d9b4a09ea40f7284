"""Trace summary statistics and stream utilities.

A *trace* is an iterable of :class:`~repro.trace.isa.Instruction` records
in dynamic program order (the committed instruction stream).  Every trace
source materialises one as a :class:`~repro.trace.packed.PackedTrace`; the
helpers here accept any instruction iterable, a plain ``list`` included.
This module provides:

* :class:`TraceStats` — the summary a ``PackedTrace`` reports as ``stats``.
* :func:`value_stream` — extract the global value history (the ordered
  sequence of values produced by all value-producing instructions), which
  is the object of study of the paper.
* :func:`load_address_stream` — extract the load-address stream used by the
  Section 6 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .isa import Instruction, OpClass


@dataclass
class TraceStats:
    """Summary statistics over a trace."""

    total: int = 0
    value_producing: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    static_pcs: int = 0

    def __str__(self) -> str:
        return (
            f"{self.total} instructions "
            f"({self.value_producing} value-producing, {self.loads} loads, "
            f"{self.stores} stores, {self.branches} branches, "
            f"{self.static_pcs} static PCs)"
        )


def value_stream(trace: Iterable[Instruction]) -> List[int]:
    """Return the global value history of a trace.

    This is the ordered sequence (x_0, x_1, ..., x_N) of values produced by
    all dynamic value-producing instructions — the sequence in which the
    paper's gDiff predictor searches for stride locality.
    """
    return [i.value for i in trace if i.produces_value]


def load_address_stream(trace: Iterable[Instruction]) -> List[Tuple[int, int]]:
    """Return the load-address stream as (pc, address) pairs.

    Section 6 of the paper runs gDiff over this stream (only load addresses
    pass into the GVQ) to detect global stride locality between addresses.
    """
    return [(i.pc, i.addr) for i in trace if i.op is OpClass.LOAD]
