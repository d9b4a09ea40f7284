"""Adapter interface of the workload ingestion plane.

An ingest *adapter* turns one external source — a trace dump on disk, a
running Python program — into a stream of
:class:`~repro.trace.isa.Instruction` events that pack straight into
:class:`~repro.trace.packed.PackedTrace` columns.  Adapters are
streaming by contract: they yield events one at a time and never
materialise an instruction list, so importing a multi-gigabyte dump
needs memory proportional to the *packed* columns, not to a list of
instruction objects.

Every adapter reports malformed input as
:class:`~repro.trace.io.IngestError` carrying the offending byte offset
(binary sources) or line number (text sources) — never a bare
``struct.error`` / ``ValueError`` / ``UnicodeDecodeError``.

Telemetry contract (docs/TELEMETRY.md): the import driver counts
``ingest.events`` (instructions packed) and ``ingest.dropped`` (source
records skipped as unrepresentable), and times each conversion under the
``ingest.<adapter>`` phase.
"""

from __future__ import annotations

import gzip
from abc import ABC, abstractmethod
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

from ..io import IngestError
from ..isa import Instruction
from ..packed import PackedTrace

__all__ = ["IngestError", "TraceAdapter", "register", "get_adapter",
           "adapter_names", "open_source"]


def open_source(path: Union[str, Path], mode: str = "rb") -> IO:
    """Open an import source, transparently gunzipping ``*.gz`` files.

    Offsets reported in :class:`IngestError` are offsets into the
    *decompressed* stream for gzip sources.
    """
    path = Path(path)
    if path.suffix == ".gz":
        if "t" in mode:
            return gzip.open(path, mode, encoding="utf-8")
        return gzip.open(path, mode)
    if "t" in mode:
        return open(path, mode, encoding="utf-8")
    return open(path, mode)


class TraceAdapter(ABC):
    """One external stream format the ingestion plane understands.

    Subclasses set :attr:`name` (the ``--format`` CLI token and the
    manifest's ``adapter`` field) and implement :meth:`events`, a
    generator over :class:`Instruction` records.  Adapters that cannot
    stream (live capture has to run the program to completion) override
    :meth:`packed` instead and build the columns directly.
    """

    #: Registry key, CLI ``--format`` token, manifest ``adapter`` field.
    name: str = ""
    #: One-line description shown by ``repro trace import --help``.
    description: str = ""
    #: File suffixes this adapter claims for format auto-detection
    #: (matched against the source name with any ``.gz`` stripped).
    suffixes: tuple = ()

    @abstractmethod
    def events(self, source: Union[str, Path],
               options: Optional[Dict[str, object]] = None,
               ) -> Iterator[Instruction]:
        """Yield the source's instruction events in order.

        Must raise :class:`IngestError` (with ``offset`` or ``line``)
        on malformed, truncated, or empty input.  Records the adapter
        cannot represent are skipped and counted on ``self.dropped``.
        """

    def packed(self, source: Union[str, Path],
               options: Optional[Dict[str, object]] = None,
               limit: Optional[int] = None, name: str = "trace",
               ) -> PackedTrace:
        """Convert *source* into a packed trace (streaming by default)."""
        stream = self.events(source, options)
        if limit is not None:
            stream = _limited(stream, limit)
        return PackedTrace.from_instructions(stream, name=name)

    #: Source records dropped by the last :meth:`events`/:meth:`packed`
    #: run (reset at the start of each conversion).
    dropped: int = 0

    def _reset(self) -> None:
        self.dropped = 0


def _limited(stream: Iterator[Instruction], limit: int):
    for index, insn in enumerate(stream):
        if index >= limit:
            return
        yield insn


_ADAPTERS: Dict[str, TraceAdapter] = {}


def register(adapter: TraceAdapter) -> TraceAdapter:
    """Add *adapter* to the registry (keyed by ``adapter.name``)."""
    if not adapter.name:
        raise ValueError("adapter has no name")
    _ADAPTERS[adapter.name] = adapter
    return adapter


def adapter_names() -> list:
    """Registered adapter names, sorted."""
    _load_builtin()
    return sorted(_ADAPTERS)


def get_adapter(name_or_source: Union[str, Path, TraceAdapter],
                source: Optional[Union[str, Path]] = None) -> TraceAdapter:
    """Resolve an adapter by name, or auto-detect one from *source*.

    ``get_adapter("csv")`` looks up the registry; ``get_adapter(None,
    path)`` (or a name of ``"auto"``) matches the path's suffix against
    each adapter's :attr:`~TraceAdapter.suffixes`.
    """
    _load_builtin()
    if isinstance(name_or_source, TraceAdapter):
        return name_or_source
    name = name_or_source
    if name is not None and name != "auto":
        try:
            return _ADAPTERS[str(name)]
        except KeyError:
            raise IngestError(
                f"unknown ingest format {name!r}; "
                f"choose from {sorted(_ADAPTERS)}") from None
    if source is None:
        raise IngestError("cannot auto-detect a format without a source")
    stem = Path(source).name
    if stem.endswith(".gz"):
        stem = stem[:-3]
    for adapter in _ADAPTERS.values():
        if any(stem.endswith(suffix) for suffix in adapter.suffixes):
            return adapter
    raise IngestError(f"cannot auto-detect a format for {stem!r}; "
                      f"pass --format (one of {sorted(_ADAPTERS)})",
                      source=source)


def _load_builtin() -> None:
    """Import the built-in adapter modules (registration side effect)."""
    from . import capture, formats  # noqa: F401
