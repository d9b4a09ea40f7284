"""Trace serialization: save and reload instruction traces.

Trace generation is deterministic, but regenerating a long workload for
every experiment repeats work, and users reproducing results across
machines want a stable artefact.  Two formats live here:

**Text format** (``save_trace`` / ``load_trace`` / ``iter_trace``) — a
line-oriented interchange format, optionally gzip-compressed by file
extension:

* header line: ``#repro-trace v1 <name>``
* one line per instruction:
  ``<op> <pc> <dest> <srcs> <value> <addr> <taken> <target>``
  with hexadecimal numbers, ``-`` for absent fields, srcs as
  comma-joined registers (or ``-``), and op as the OpClass name.

**Binary packed format** (``save_packed`` / ``load_packed``) — the
on-disk twin of :class:`~repro.trace.packed.PackedTrace` used by the
trace cache: each SoA column is struct-framed and zlib-compressed, with
a magic/version header, the instruction count, a per-column CRC-32 and
an end marker so corruption and truncation are detected before a single
instruction is handed to an experiment.  Layout:

* header: ``magic(8s) version(u16) flags(u16) count(u64)`` then the
  trace name (``u16`` length + UTF-8 bytes); header flag bit 0 records
  little-endian column data (big-endian hosts byte-swap on both sides).
* per column (fixed order, :data:`repro.trace.packed.COLUMNS`):
  ``typecode(u8) raw_nbytes(u64) comp_nbytes(u64) crc32(u32)`` followed
  by ``comp_nbytes`` of zlib data.
* trailer: ``magic(8s) count(u64)`` — a short read anywhere before this
  marker is reported as truncation.

Both formats round-trip every field of
:class:`~repro.trace.isa.Instruction` exactly (property tested).
"""

from __future__ import annotations

import gzip
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

from .isa import Instruction, OpClass
from .packed import COLUMNS, PackedTrace

_HEADER_PREFIX = "#repro-trace v1"

# -- binary packed format ----------------------------------------------------

#: Bumping this invalidates every cached trace (the cache keys on it and
#: the loader rejects mismatched files).
PACKED_FORMAT_VERSION = 2

PACKED_MAGIC = b"RPTRACE\x00"
_PACKED_END = b"RPTEND\x00\x00"
_HEADER = struct.Struct("<8sHHQ")
_COLUMN = struct.Struct("<BQQL")
_TRAILER = struct.Struct("<8sQ")
_NAME_LEN = struct.Struct("<H")
_FLAG_LITTLE = 0x1


class TraceFormatError(ValueError):
    """A binary trace file is corrupt, truncated, or of the wrong version."""


class IngestError(TraceFormatError):
    """An external import source is malformed, truncated, or empty.

    Raised by every ingest adapter in place of bare ``struct.error`` /
    ``zlib.error`` / ``UnicodeDecodeError`` / ``ValueError`` so callers
    can report *where* the source went bad: ``offset`` is the byte
    offset of the offending record for binary sources, ``line`` the
    1-based line number for text sources (whichever applies is set).
    """

    def __init__(self, message: str, *, source=None, offset=None, line=None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        prefix = f"{source}: " if source is not None else ""
        super().__init__(f"{prefix}{message}{where}")
        self.source = None if source is None else str(source)
        self.offset = offset
        self.line = line


def _open(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def _field(value, fmt: str = "x") -> str:
    if value is None:
        return "-"
    if fmt == "x":
        return format(value, "x")
    return str(value)


def _encode(insn: Instruction) -> str:
    srcs = ",".join(format(r, "d") for r in insn.srcs) if insn.srcs else "-"
    taken = "-" if insn.taken is None else ("1" if insn.taken else "0")
    return " ".join([
        insn.op.name,
        format(insn.pc, "x"),
        _field(insn.dest, "d") if insn.dest is not None else "-",
        srcs,
        _field(insn.value),
        _field(insn.addr),
        taken,
        _field(insn.target),
    ])


def _parse_int(token: str, base: int = 16):
    return None if token == "-" else int(token, base)


def _decode(line: str) -> Instruction:
    parts = line.split(" ")
    if len(parts) != 8:
        raise ValueError(f"malformed trace line: {line!r}")
    op_name, pc, dest, srcs, value, addr, taken, target = parts
    try:
        op = OpClass[op_name]
    except KeyError:
        raise ValueError(f"unknown op class {op_name!r}") from None
    return Instruction(
        pc=int(pc, 16),
        op=op,
        dest=_parse_int(dest, 10),
        srcs=tuple(int(r) for r in srcs.split(",")) if srcs != "-" else (),
        value=_parse_int(value),
        addr=_parse_int(addr),
        taken=None if taken == "-" else taken == "1",
        target=_parse_int(target),
    )


def save_trace(trace: Iterable[Instruction], path: Union[str, Path],
               name: str = "trace") -> int:
    """Write a trace to *path* (gzip if the name ends in .gz).

    A :class:`PackedTrace` records its own name; *name* labels any other
    instruction iterable.  Returns the number of instructions written.
    """
    if isinstance(trace, PackedTrace):
        name = trace.name
    count = 0
    with _open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX} {name}\n")
        for insn in trace:
            fh.write(_encode(insn) + "\n")
            count += 1
    return count


def _read(fh, path: Union[str, Path]) -> Tuple[str, Iterator[Instruction]]:
    """Check an open trace file's header; return the trace's recorded name
    and a lazy iterator over its instructions."""
    header = fh.readline().rstrip("\n")
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: not a repro trace file")
    name = header[len(_HEADER_PREFIX):].strip() or Path(path).stem
    lines = (line.rstrip("\n") for line in fh)
    return name, (_decode(line) for line in lines if line)


def iter_trace(path: Union[str, Path]) -> Iterator[Instruction]:
    """Stream instructions from a saved trace file."""
    with _open(path, "r") as fh:
        yield from _read(fh, path)[1]


def load_trace(path: Union[str, Path]) -> PackedTrace:
    """Load a full trace (with its recorded name) from *path*, packed."""
    with _open(path, "r") as fh:
        name, instructions = _read(fh, path)
        return PackedTrace.from_instructions(instructions, name=name)


def save_packed(trace: PackedTrace, path: Union[str, Path],
                compresslevel: int = 1) -> int:
    """Write a packed trace to *path* in the binary packed format.

    Level-1 zlib wins nearly all of the size at a fraction of the CPU of
    the default level — the cache is read far more often than written,
    and decompression speed is level independent.  Returns the number of
    bytes written.
    """
    columns = trace.columns()
    count = len(trace)
    name_bytes = trace.name.encode("utf-8")
    flags = _FLAG_LITTLE if sys.byteorder == "little" else 0
    written = 0
    path = Path(path)
    with open(path, "wb") as fh:
        written += fh.write(_HEADER.pack(PACKED_MAGIC, PACKED_FORMAT_VERSION,
                                         flags, count))
        written += fh.write(_NAME_LEN.pack(len(name_bytes)))
        written += fh.write(name_bytes)
        for col, typecode in COLUMNS:
            data = columns[col]
            if sys.byteorder != "little":  # pragma: no cover - BE hosts
                data = array(typecode, data)
                data.byteswap()
            raw = data.tobytes()
            comp = zlib.compress(raw, compresslevel)
            written += fh.write(_COLUMN.pack(ord(typecode), len(raw),
                                             len(comp), zlib.crc32(raw)))
            written += fh.write(comp)
        written += fh.write(_TRAILER.pack(_PACKED_END, count))
    return written


def _read_exact(fh, nbytes: int, path, what: str) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise TraceFormatError(f"{path}: truncated packed trace "
                               f"(short read in {what})")
    return data


def load_packed(path: Union[str, Path]) -> PackedTrace:
    """Load a binary packed trace, verifying magic, version, CRCs and count.

    Raises :class:`TraceFormatError` on any integrity failure so callers
    (the trace cache in particular) can discard the file and regenerate.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_exact(fh, _HEADER.size, path, "header")
        magic, version, flags, count = _HEADER.unpack(header)
        if magic != PACKED_MAGIC:
            raise TraceFormatError(f"{path}: not a packed repro trace")
        if version != PACKED_FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: packed format v{version} != "
                f"supported v{PACKED_FORMAT_VERSION}")
        (name_len,) = _NAME_LEN.unpack(
            _read_exact(fh, _NAME_LEN.size, path, "name"))
        name = _read_exact(fh, name_len, path, "name").decode("utf-8")
        columns = {}
        for col, typecode in COLUMNS:
            frame = _read_exact(fh, _COLUMN.size, path, f"column {col}")
            tc, raw_len, comp_len, crc = _COLUMN.unpack(frame)
            if tc != ord(typecode):
                raise TraceFormatError(
                    f"{path}: column {col} typecode mismatch")
            comp = _read_exact(fh, comp_len, path, f"column {col}")
            try:
                raw = zlib.decompress(comp)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{path}: column {col} corrupt: {exc}") from None
            if len(raw) != raw_len or zlib.crc32(raw) != crc:
                raise TraceFormatError(
                    f"{path}: column {col} checksum mismatch")
            data = array(typecode)
            data.frombytes(raw)
            little = bool(flags & _FLAG_LITTLE)
            if little != (sys.byteorder == "little"):  # pragma: no cover
                data.byteswap()
            if len(data) != count:
                raise TraceFormatError(
                    f"{path}: column {col} holds {len(data)} entries, "
                    f"header promised {count}")
            columns[col] = data
        trailer = _read_exact(fh, _TRAILER.size, path, "trailer")
        end_magic, end_count = _TRAILER.unpack(trailer)
        if end_magic != _PACKED_END or end_count != count:
            raise TraceFormatError(f"{path}: bad end marker")
    return PackedTrace(columns, name=name)
