"""Live capture: record a value trace from a running Python program.

``capture_script(path)`` runs the target script in-process under a
``sys.settrace`` opcode-level hook (``frame.f_trace_opcodes``) and
records one value event per integer store the program executes:

* **pc** — a synthetic static address encoding (code object, bytecode
  offset): ``0x7C00_0000_0000 | code_index << 20 | offset``.  Distinct
  static store sites therefore get distinct, stable PCs within a run.
* **value** — the integer written by ``STORE_FAST`` / ``STORE_NAME`` /
  ``STORE_GLOBAL`` (read back from the frame after the store retires),
  masked to a 64-bit machine word.  Non-integer stores are counted as
  *dropped*, not recorded.
* **op class** — ``LOAD`` when the value came straight from a subscript
  or attribute read (the bytecode preceding the store), else ``IALU``.
* **dest** — a stable hash (CRC-32) of the variable name, so repeated
  stores to one name look like writes to one architectural register.

Integer return values of in-scope calls are recorded the same way.

Caveats (also in docs/WORKLOADS.md): only integer values are
representable; opcode-level tracing disables the specializing
interpreter, so the captured program runs 10-100x slower than bare; the
``scope`` option bounds what is traced (default: only the script file
itself, so stdlib and site-packages churn stay out of the stream); and
``EXTENDED_ARG``-prefixed stores (functions with >256 locals) may
resolve to the wrong name and are then dropped.

The capture adapter cannot stream (the program must run to completion),
so it packs events straight into :class:`PackedTrace` columns — no
instruction objects, no instruction list.
"""

from __future__ import annotations

import dis
import runpy
import sys
import zlib
from array import array
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..isa import OpClass
from ..packed import (COLUMNS, FLAG_ADDR, FLAG_DEST, FLAG_PRODUCES,
                      FLAG_VALUE, PackedTrace)
from .base import IngestError, TraceAdapter, register

_WORD_MASK = (1 << 64) - 1
_PC_BASE = 0x7C00_0000_0000
_OFFSET_BITS = 20
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1

#: Store opcodes that produce a recordable event, mapped to the frame
#: namespace the stored value is read back from.
_STORE_OPS = {"STORE_FAST": "locals", "STORE_NAME": "locals",
              "STORE_GLOBAL": "globals"}
#: Bytecodes whose result, when stored, marks the event as a LOAD.
_LOAD_SOURCES = {"BINARY_SUBSCR", "LOAD_ATTR", "BINARY_SLICE", "LOAD_METHOD"}

_MISSING = object()


class _ColumnBuilder:
    """Append value-producing events straight into packed columns."""

    __slots__ = ("cols", "count")

    def __init__(self) -> None:
        self.cols = {col: array(tc) for col, tc in COLUMNS}
        self.count = 0

    def add(self, pc: int, op: OpClass, dest: int, value: int,
            addr: Optional[int] = None) -> None:
        flag = FLAG_DEST | FLAG_VALUE | FLAG_PRODUCES
        if addr is not None:
            flag |= FLAG_ADDR
        cols = self.cols
        cols["pcs"].append(pc & _WORD_MASK)
        cols["ops"].append(int(op))
        cols["flags"].append(flag)
        cols["dests"].append(dest & 0xFF)
        cols["srcs"].append(0)
        cols["values"].append(value & _WORD_MASK)
        cols["addrs"].append(0 if addr is None else addr & _WORD_MASK)
        cols["targets"].append(0)
        self.count += 1

    def build(self, name: str) -> PackedTrace:
        return PackedTrace(self.cols, name=name)


def _stable_dest(name: str) -> int:
    return zlib.crc32(name.encode("utf-8")) & 0xFF


class _CaptureSession:
    """One ``sys.settrace`` run over a target script."""

    def __init__(self, script: Path, scope: str = "script",
                 limit: Optional[int] = None) -> None:
        self.script = str(script)
        self.script_dir = str(script.parent)
        self.scope = scope
        self.limit = limit
        self.builder = _ColumnBuilder()
        self.dropped = 0
        # Keyed by the code object itself: holding the reference pins
        # it, so ids can't be recycled into colliding PCs.
        self._code_ids: Dict[object, int] = {}
        self._pending: Dict[int, Tuple] = {}
        self._prev_op: Dict[int, str] = {}
        self._done = False

    # -- scope -----------------------------------------------------------
    def _in_scope(self, code) -> bool:
        filename = code.co_filename
        if self.scope == "all":
            return "/repro/trace/ingest/" not in filename.replace("\\", "/")
        if self.scope == "tree":
            return (filename == self.script
                    or filename.startswith(self.script_dir))
        return filename == self.script

    def _pc(self, code, offset: int) -> int:
        code_id = self._code_ids.setdefault(code, len(self._code_ids))
        return (_PC_BASE | (code_id << _OFFSET_BITS)
                | (offset & _OFFSET_MASK))

    # -- trace hooks -----------------------------------------------------
    def global_trace(self, frame, event, arg):
        if event != "call" or self._done:
            return None
        if not self._in_scope(frame.f_code):
            return None
        frame.f_trace_opcodes = True
        return self.local_trace

    def local_trace(self, frame, event, arg):
        if self._done:
            frame.f_trace = None
            frame.f_trace_opcodes = False
            return None
        key = id(frame)
        if event == "opcode":
            pending = self._pending.pop(key, None)
            if pending is not None:
                self._resolve(frame, pending)
            self._decode(frame, key)
        elif event == "return":
            pending = self._pending.pop(key, None)
            if pending is not None:
                self._resolve(frame, pending)
            self._prev_op.pop(key, None)
            if isinstance(arg, int):
                self._emit(self._pc(frame.f_code, frame.f_lasti),
                           OpClass.IALU, _stable_dest("<return>"), arg)
        return self.local_trace

    def _decode(self, frame, key: int) -> None:
        code = frame.f_code
        raw = code.co_code
        offset = frame.f_lasti
        opname = _OPNAME[raw[offset]]
        namespace = _STORE_OPS.get(opname)
        if namespace is not None:
            arg = raw[offset + 1] if offset + 1 < len(raw) else 0
            names = (code.co_varnames if opname == "STORE_FAST"
                     else code.co_names)
            if arg < len(names):
                is_load = self._prev_op.get(key) in _LOAD_SOURCES
                self._pending[key] = (names[arg], namespace,
                                      self._pc(code, offset), is_load)
            else:
                self.dropped += 1
        self._prev_op[key] = opname

    def _resolve(self, frame, pending: Tuple) -> None:
        name, namespace, pc, is_load = pending
        scope = frame.f_locals if namespace == "locals" else frame.f_globals
        value = scope.get(name, _MISSING)
        if value is _MISSING or not isinstance(value, int):
            self.dropped += 1
            return
        op = OpClass.LOAD if is_load else OpClass.IALU
        self._emit(pc, op, _stable_dest(name), int(value))

    def _emit(self, pc: int, op: OpClass, dest: int, value: int) -> None:
        self.builder.add(pc, op, dest, value,
                         addr=pc if op is OpClass.LOAD else None)
        if self.limit is not None and self.builder.count >= self.limit:
            self._done = True
            sys.settrace(None)

    # -- driving ---------------------------------------------------------
    def run(self, argv: Tuple[str, ...] = ()) -> None:
        saved_argv = sys.argv
        sys.argv = [self.script, *argv]
        sys.settrace(self.global_trace)
        try:
            runpy.run_path(self.script, run_name="__main__")
        except SystemExit:
            pass
        except IngestError:
            raise
        except BaseException as exc:
            raise IngestError(
                f"captured script raised {type(exc).__name__}: {exc}",
                source=self.script) from exc
        finally:
            sys.settrace(None)
            sys.argv = saved_argv


_OPNAME = dis.opname


def capture_script(script: Union[str, Path], argv: Tuple[str, ...] = (),
                   scope: str = "script", limit: Optional[int] = None,
                   name: str = "capture",
                   ) -> Tuple[PackedTrace, int]:
    """Run *script* under the capture hook; return ``(trace, dropped)``."""
    script = Path(script).resolve()
    if not script.exists():
        raise IngestError("no such script", source=script)
    if scope not in ("script", "tree", "all"):
        raise IngestError(f"unknown capture scope {scope!r} "
                          "(choose script, tree, or all)")
    session = _CaptureSession(script, scope=scope, limit=limit)
    session.run(tuple(argv))
    if session.builder.count == 0:
        raise IngestError("captured no integer value events "
                          "(does the script store ints?)", source=script)
    return session.builder.build(name), session.dropped


class CaptureAdapter(TraceAdapter):
    """Adapter wrapper so ``--capture`` flows through the import driver.

    Options: ``argv`` (tuple of script arguments), ``scope``
    (``script`` | ``tree`` | ``all``).
    """

    name = "capture"
    description = "run a Python script under sys.settrace and record stores"
    suffixes = ()  # never auto-detected; requested explicitly

    def events(self, source, options=None) -> Iterator:
        # Capture cannot stream (the program must finish first); the
        # packed columns are built directly, then iterated if a caller
        # really wants objects.
        return iter(self.packed(source, options))

    def packed(self, source, options=None, limit=None,
               name: str = "trace") -> PackedTrace:
        self._reset()
        options = options or {}
        trace, dropped = capture_script(
            source, argv=tuple(options.get("argv", ())),
            scope=str(options.get("scope", "script")),
            limit=limit, name=name)
        self.dropped = dropped
        return trace


register(CaptureAdapter())
