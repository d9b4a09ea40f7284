"""Packed structure-of-arrays trace: the harness fast path.

A :class:`PackedTrace` stores one column per instruction field in parallel
``array`` columns instead of a list of :class:`~repro.trace.isa.Instruction`
dataclasses.  A 100K-instruction trace shrinks from tens of megabytes of
Python objects to a few flat buffers, slicing is a zero-copy view over the
shared columns, and the profile runners can walk precomputed
``(pc, value)`` / ``(pc, addr)`` column pairs — and the fused kernels
their cached per-PC groupings (:func:`pc_groups`) — instead of performing
per-instruction attribute and property lookups.

Field encoding (one entry per dynamic instruction):

* ``pcs`` / ``values`` / ``addrs`` / ``targets`` — unsigned 64-bit machine
  words (``array('Q')``); absent fields read 0 and are masked by *flags*.
* ``ops`` — :class:`~repro.trace.isa.OpClass` value (``array('B')``).
* ``flags`` — per-field presence bits plus the precomputed
  ``produces_value`` bit (``array('B')``), so the hot loops test a single
  integer AND instead of a three-attribute property.
* ``dests`` / ``latency`` — small unsigned bytes (``array('B')``).
* ``srcs`` — the source-register tuple packed into one 64-bit word:
  the count in the low 4 bits, then each register in 6 bits (supports up
  to 10 sources of up to 64 architectural registers — far beyond the
  MIPS-like ISA modelled here).

Traces are born as *column rows*: one tuple per instruction holding
its nine column entries in :data:`COLUMNS` order.  The synthetic
generators emit rows directly (through :func:`ialu_row` and its
siblings, which precompute the flags byte), and :meth:`PackedTrace.from_rows`
transposes them into the columns.  That packer is the one place a
column's range is checked; :func:`pack_srcs` checks source registers.
:meth:`PackedTrace.from_instructions` maps ``Instruction`` records to
rows for the same packer.

It is the one trace container: workload generators, the trace cache,
the text and binary loaders and imported recordings all hand out a
``PackedTrace``.  Besides the column accessors it offers what the object
consumers need — ``len``, indexing, iteration (yielding real
``Instruction`` records built on demand), ``name`` and ``stats``.  Code
that must walk instruction objects repeatedly builds a plain ``list``
from one iteration.  The serialised twin of this layout is the binary
trace-cache format in :mod:`repro.trace.io`.

Columns are normally ``array`` objects, but any buffer exposing the same
typed-element protocol works: the shared-memory trace plane
(:mod:`repro.trace.shm`) backs them with zero-copy ``memoryview`` casts
over a ``multiprocessing.shared_memory`` segment.  Pickling always
materialises plain ``array`` columns first, so a shm-backed trace ships
by value rather than by (process-local) buffer reference.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .isa import Instruction, OpClass
from .trace import TraceStats

# Presence / derived-fact bits of the flags column.
FLAG_DEST = 0x01
FLAG_VALUE = 0x02
FLAG_ADDR = 0x04
FLAG_TAKEN = 0x08
FLAG_TAKEN_TRUE = 0x10
FLAG_TARGET = 0x20
FLAG_PRODUCES = 0x40

_MAX_SRCS = 10
_SRC_BITS = 6
_SRC_MASK = (1 << _SRC_BITS) - 1

#: ``OpClass`` member by column value (the ``ops`` column's decoder).
_OPS: Tuple[OpClass, ...] = tuple(OpClass)

#: Column names in serialisation order, with their array typecodes.  The
#: binary cache format (trace/io.py) writes exactly these columns.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "Q"),
    ("ops", "B"),
    ("flags", "B"),
    ("dests", "B"),
    ("srcs", "Q"),
    ("values", "Q"),
    ("addrs", "Q"),
    ("targets", "Q"),
    ("latency", "B"),
)


def pack_srcs(srcs: Tuple[int, ...]) -> int:
    """Pack a source-register tuple into one 64-bit word."""
    if len(srcs) > _MAX_SRCS:
        raise ValueError(f"cannot pack {len(srcs)} source registers "
                         f"(limit {_MAX_SRCS})")
    word = len(srcs)
    shift = 4
    for reg in srcs:
        if not 0 <= reg <= _SRC_MASK:
            raise ValueError(f"cannot pack source register {reg!r}: "
                             f"must be in [0, {_SRC_MASK}]")
        word |= reg << shift
        shift += _SRC_BITS
    return word


def unpack_srcs(word: int) -> Tuple[int, ...]:
    """Inverse of :func:`pack_srcs`."""
    count = word & 0xF
    regs = []
    shift = 4
    for _ in range(count):
        regs.append((word >> shift) & _SRC_MASK)
        shift += _SRC_BITS
    return tuple(regs)


#: One instruction's column entries, in :data:`COLUMNS` order: ``(pc, op,
#: flags, dest, srcs, value, addr, target, latency)``, with ``srcs`` a
#: :func:`pack_srcs` word and absent fields 0.
Row = Tuple[int, int, int, int, int, int, int, int, int]

#: Rows :meth:`PackedTrace.from_rows` transposes at a time, so a streamed
#: trace is never held whole as tuples.
_ROW_CHUNK = 1 << 16

_IALU = int(OpClass.IALU)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_NOP = int(OpClass.NOP)
_IALU_FLAGS = FLAG_DEST | FLAG_VALUE | FLAG_PRODUCES
_LOAD_FLAGS = FLAG_DEST | FLAG_VALUE | FLAG_ADDR | FLAG_PRODUCES
_TAKEN_FLAGS = FLAG_TAKEN | FLAG_TARGET | FLAG_TAKEN_TRUE
_NOT_TAKEN_FLAGS = FLAG_TAKEN | FLAG_TARGET


# Row emitters: the column rows of :func:`repro.trace.isa.ialu` and its
# siblings.  *srcs* is a :func:`pack_srcs` word, packed once by the caller.
def ialu_row(pc: int, dest: int, value: int, srcs: int = 0) -> Row:
    return (pc, _IALU, _IALU_FLAGS, dest, srcs, value, 0, 0, 0)


def load_row(pc: int, dest: int, value: int, addr: int,
             srcs: int = 0) -> Row:
    return (pc, _LOAD, _LOAD_FLAGS, dest, srcs, value, addr, 0, 0)


def store_row(pc: int, addr: int, srcs: int = 0) -> Row:
    return (pc, _STORE, FLAG_ADDR, 0, srcs, 0, addr, 0, 0)


def branch_row(pc: int, taken: bool, target: int, srcs: int = 0) -> Row:
    return (pc, _BRANCH, _TAKEN_FLAGS if taken else _NOT_TAKEN_FLAGS,
            0, srcs, 0, 0, target, 0)


def nop_row(pc: int, srcs: int = 0) -> Row:
    return (pc, _NOP, 0, 0, srcs, 0, 0, 0, 0)


def instruction_row(insn: Instruction) -> Row:
    """The column row of one ``Instruction`` (its flags derived here)."""
    flag = 0
    dest = insn.dest
    if dest is not None:
        flag |= FLAG_DEST
    else:
        dest = 0
    value = insn.value
    if value is not None:
        flag |= FLAG_VALUE
    else:
        value = 0
    addr = insn.addr
    if addr is not None:
        flag |= FLAG_ADDR
    else:
        addr = 0
    if insn.taken is not None:
        flag |= FLAG_TAKEN
        if insn.taken:
            flag |= FLAG_TAKEN_TRUE
    target = insn.target
    if target is not None:
        flag |= FLAG_TARGET
    else:
        target = 0
    op = insn.op
    if (flag & FLAG_VALUE and flag & FLAG_DEST
            and (op is OpClass.IALU or op is OpClass.LOAD)):
        flag |= FLAG_PRODUCES
    return (insn.pc, int(op), flag, dest, pack_srcs(insn.srcs), value,
            addr, target, insn.latency_class)


def instructions(rows: Iterable[Row]) -> Iterator[Instruction]:
    """The ``Instruction`` view of a row stream (the inverse of
    :func:`instruction_row`); each distinct source word unpacks once."""
    ops = _OPS
    regs: Dict[int, Tuple[int, ...]] = {}
    for pc, op, flag, dest, srcs, value, addr, target, latency in rows:
        src_regs = regs.get(srcs)
        if src_regs is None:
            src_regs = regs[srcs] = unpack_srcs(srcs)
        yield Instruction(
            pc, ops[op],
            dest if flag & FLAG_DEST else None,
            src_regs,
            value if flag & FLAG_VALUE else None,
            addr if flag & FLAG_ADDR else None,
            bool(flag & FLAG_TAKEN_TRUE) if flag & FLAG_TAKEN else None,
            target if flag & FLAG_TARGET else None,
            latency,
        )


def pc_groups(pcs) -> Dict[int, List[int]]:
    """The pair indices of each PC in the column *pcs*: PC -> ascending
    positions, PCs in first-appearance order.

    The grouping the fused kernels (:mod:`repro.core.kernels`) run a
    table's rows by.
    """
    groups: Dict[int, List[int]] = {}
    get = groups.get
    for i, pc in enumerate(pcs):
        idxs = get(pc)
        if idxs is None:
            groups[pc] = [i]
        else:
            idxs.append(i)
    return groups


def _compact_groups(pcs) -> Dict[int, array]:
    """:func:`pc_groups` with each PC's positions as an ``array('I')``
    (4 bytes a pair), for a grouping kept as long as its trace view."""
    return {pc: array("I", idxs) for pc, idxs in pc_groups(pcs).items()}


class PackedTrace:
    """A materialised trace in packed structure-of-arrays form.

    Build one with :meth:`from_rows` or :meth:`from_instructions` (or
    load one from the binary cache via :func:`repro.trace.io.load_packed`).
    Slicing with unit step returns a zero-copy view sharing the parent's
    columns.
    """

    __slots__ = ("name", "_cols", "_start", "_stop", "_stats",
                 "_value_cache", "_load_cache", "_value_groups",
                 "_load_groups")

    def __init__(self, columns: Dict[str, array], name: str = "trace",
                 start: int = 0, stop: Optional[int] = None):
        length = len(columns["pcs"])
        for col, _tc in COLUMNS:
            if len(columns[col]) != length:
                raise ValueError(f"column {col!r} length mismatch")
        self.name = name
        self._cols = columns
        self._start = start
        self._stop = length if stop is None else stop
        self._stats: Optional[TraceStats] = None
        self._value_cache: Optional[Tuple[array, array]] = None
        self._load_cache: Optional[Tuple[array, array]] = None
        self._value_groups: Optional[Dict[int, array]] = None
        self._load_groups: Optional[Dict[int, array]] = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Row],
                  name: str = "trace") -> "PackedTrace":
        """Pack a stream of column rows (consumed once, in bounded chunks).

        The one place a column's range is checked: a pc, value, addr or
        target that is not an unsigned 64-bit word, or a dest, op, flags
        or latency entry above 0xFF, raises ``ValueError``.
        """
        cols = [array(tc) for _col, tc in COLUMNS]
        rows = iter(rows)
        while True:
            chunk = list(islice(rows, _ROW_CHUNK))
            if not chunk:
                break
            for column, (col, tc), data in zip(cols, COLUMNS, zip(*chunk)):
                try:
                    column.extend(array(tc, data))
                except OverflowError:
                    limit = 1 << (8 * column.itemsize)
                    bad = next(v for v in data if not 0 <= v < limit)
                    raise ValueError(
                        f"cannot pack {col} entry {bad!r}: not an unsigned "
                        f"{8 * column.itemsize}-bit field") from None
        return cls({col: column for (col, _tc), column in zip(COLUMNS, cols)},
                   name=name)

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction],
                          name: str = "trace") -> "PackedTrace":
        """Pack an instruction stream (consumed once, never materialised)."""
        return cls.from_rows(map(instruction_row, instructions), name=name)

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return self._stop - self._start

    def instruction_at(self, index: int) -> Instruction:
        """Materialise the instruction at view-relative *index*."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace index out of range")
        i = self._start + index
        cols = self._cols
        flag = cols["flags"][i]
        return Instruction(
            pc=cols["pcs"][i],
            op=OpClass(cols["ops"][i]),
            dest=cols["dests"][i] if flag & FLAG_DEST else None,
            srcs=unpack_srcs(cols["srcs"][i]),
            value=cols["values"][i] if flag & FLAG_VALUE else None,
            addr=cols["addrs"][i] if flag & FLAG_ADDR else None,
            taken=bool(flag & FLAG_TAKEN_TRUE) if flag & FLAG_TAKEN else None,
            target=cols["targets"][i] if flag & FLAG_TARGET else None,
            latency_class=cols["latency"][i],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self.instruction_at(i)
                        for i in range(start, stop, step)]
            view = PackedTrace.__new__(PackedTrace)
            view.name = self.name
            view._cols = self._cols
            view._start = self._start + start
            view._stop = self._start + stop
            view._stats = None
            view._value_cache = None
            view._load_cache = None
            view._value_groups = None
            view._load_groups = None
            return view
        return self.instruction_at(index)

    def __iter__(self) -> Iterator[Instruction]:
        # One zip over the view's columns: no per-index bounds check or
        # column lookups.
        view = self.columns()
        return instructions(zip(*(view[col] for col, _tc in COLUMNS)))

    # -- summaries and filtered views ------------------------------------
    @property
    def stats(self) -> TraceStats:
        """Summary statistics, computed from the columns (no objects built)."""
        if self._stats is None:
            stats = TraceStats()
            ops = self._cols["ops"]
            flags = self._cols["flags"]
            pcs = self._cols["pcs"]
            load = int(OpClass.LOAD)
            store = int(OpClass.STORE)
            br = int(OpClass.BRANCH)
            seen = set()
            for i in range(self._start, self._stop):
                stats.total += 1
                seen.add(pcs[i])
                if flags[i] & FLAG_PRODUCES:
                    stats.value_producing += 1
                op = ops[i]
                if op == load:
                    stats.loads += 1
                elif op == store:
                    stats.stores += 1
                elif op == br:
                    stats.branches += 1
            stats.static_pcs = len(seen)
            self._stats = stats
        return self._stats

    def value_producing(self) -> Iterator[Instruction]:
        flags = self._cols["flags"]
        at = self.instruction_at
        start = self._start
        return (at(i - start) for i in range(start, self._stop)
                if flags[i] & FLAG_PRODUCES)

    def loads(self) -> Iterator[Instruction]:
        ops = self._cols["ops"]
        at = self.instruction_at
        start = self._start
        load = int(OpClass.LOAD)
        return (at(i - start) for i in range(start, self._stop)
                if ops[i] == load)

    # -- fast-path column access -----------------------------------------
    def value_pairs(self) -> Tuple[array, array]:
        """``(pcs, values)`` columns of the value-producing instructions
        in this view (built once per view and cached)."""
        if self._value_cache is None:
            vpcs = array("Q")
            vvals = array("Q")
            flags = self._cols["flags"]
            pcs = self._cols["pcs"]
            values = self._cols["values"]
            for i in range(self._start, self._stop):
                if flags[i] & FLAG_PRODUCES:
                    vpcs.append(pcs[i])
                    vvals.append(values[i])
            self._value_cache = (vpcs, vvals)
        return self._value_cache

    def load_pairs(self) -> Tuple[array, array]:
        """``(pcs, addrs)`` columns of the load instructions in this view."""
        if self._load_cache is None:
            lpcs = array("Q")
            laddrs = array("Q")
            ops = self._cols["ops"]
            pcs = self._cols["pcs"]
            addrs = self._cols["addrs"]
            load = int(OpClass.LOAD)
            for i in range(self._start, self._stop):
                if ops[i] == load:
                    lpcs.append(pcs[i])
                    laddrs.append(addrs[i])
            self._load_cache = (lpcs, laddrs)
        return self._load_cache

    def value_groups(self) -> Dict[int, array]:
        """:func:`pc_groups` of :meth:`value_pairs`'s PCs (built on first
        use and cached per view)."""
        if self._value_groups is None:
            self._value_groups = _compact_groups(self.value_pairs()[0])
        return self._value_groups

    def load_groups(self) -> Dict[int, array]:
        """:func:`pc_groups` of :meth:`load_pairs`'s PCs (cached per view)."""
        if self._load_groups is None:
            self._load_groups = _compact_groups(self.load_pairs()[0])
        return self._load_groups

    def columns(self) -> Dict[str, array]:
        """The raw columns restricted to this view (copied iff a sub-view)."""
        if self._start == 0 and self._stop == len(self._cols["pcs"]):
            return dict(self._cols)
        return {col: self._cols[col][self._start:self._stop]
                for col, _tc in COLUMNS}

    def materialized_columns(self) -> Dict[str, array]:
        """This view's columns as owning ``array`` objects.

        Columns that already are arrays pass through unchanged (full
        views share them); buffer-backed columns — shared-memory
        ``memoryview`` casts — are copied out, so the result never
        references another process's segment.
        """
        out: Dict[str, array] = {}
        view = self.columns()
        for col, typecode in COLUMNS:
            data = view[col]
            if isinstance(data, array):
                out[col] = data
            else:
                copied = array(typecode)
                copied.frombytes(data.tobytes())
                out[col] = copied
        return out

    def __reduce__(self):
        # Default slots pickling would try to pickle the column buffers
        # themselves; memoryview columns (shared memory) cannot pickle,
        # and would be wrong anyway across machines.  Materialise.
        return (_rebuild_packed,
                (self.materialized_columns(), self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackedTrace {self.name!r} len={len(self)}>"


def _rebuild_packed(columns: Dict[str, array], name: str) -> "PackedTrace":
    """Unpickle target for :meth:`PackedTrace.__reduce__`."""
    return PackedTrace(columns, name=name)
