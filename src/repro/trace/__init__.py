"""Trace model and synthetic workload infrastructure.

The reproduction is trace driven: :mod:`repro.trace.isa` defines the
dynamic-instruction record, :mod:`repro.trace.packed` the one trace
container (:class:`PackedTrace`, which every trace source returns),
:mod:`repro.trace.trace` its summary statistics and stream extractions,
:mod:`repro.trace.kernels` the value-stream building blocks, and
:mod:`repro.trace.workloads` the ten SPECint2000-like benchmark generators.
"""

from .isa import NUM_REGS, Instruction, OpClass, branch, ialu, load, store
from .packed import PackedTrace
from .trace import TraceStats, load_address_stream, value_stream

__all__ = [
    "Instruction",
    "OpClass",
    "NUM_REGS",
    "ialu",
    "load",
    "store",
    "branch",
    "TraceStats",
    "PackedTrace",
    "value_stream",
    "load_address_stream",
]
