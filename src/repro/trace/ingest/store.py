"""Imported-workload store: provenance manifests + first-class specs.

``import_trace`` drives one adapter over one source and lands the result
in the *imported store*: a directory (default ``<cache root>/imported``,
override with ``REPRO_IMPORT_DIR``) holding, per imported workload,

* ``<name>.rpt`` — the canonical packed trace in the checksummed binary
  cache format (:mod:`repro.trace.io`), and
* ``<name>.json`` — a provenance manifest: source path, source sha256,
  adapter, conversion options, event counts, the content sha256 of the
  packed columns, and timing.

Imported workloads are then first class: ``workloads.get(name)``
resolves them to an :class:`ImportedWorkloadSpec`, so the trace cache,
shared-memory plane, campaign scheduler, serve plane, and every
experiment consume them exactly like synthetic benchmarks.  The one
semantic difference — an imported trace is *finite* — is carried by
:attr:`ImportedWorkloadSpec.fixed_length`; the cache clamps requested
lengths to it (see :func:`repro.trace.cache.effective_length`), and
``code_copies`` / seed overrides are rejected or ignored (the stream is
recorded, not generated).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..io import load_packed, save_packed
from ..io import PACKED_FORMAT_VERSION
from ..packed import COLUMNS, PackedTrace
from ..synthetic import WorkloadSpec
from .base import IngestError, TraceAdapter, get_adapter

MANIFEST_SCHEMA = 1

ENTRY_SUFFIX = ".rpt"
MANIFEST_SUFFIX = ".json"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

#: Suffixes stripped when deriving a workload name from a source path.
_STRIP_SUFFIXES = (".gz", ".csv", ".ndjson", ".jsonl", ".cvp",
                   ".champsimtrace", ".champsim", ".trace", ".py")


def imported_root() -> Path:
    """The imported-workload directory (not created until first import)."""
    env = os.environ.get("REPRO_IMPORT_DIR")
    if env:
        return Path(env)
    from ..cache import cache_root

    return cache_root() / "imported"


def trace_path(name: str) -> Path:
    return imported_root() / f"{name}{ENTRY_SUFFIX}"


def manifest_path(name: str) -> Path:
    return imported_root() / f"{name}{MANIFEST_SUFFIX}"


def derive_name(source: Union[str, Path]) -> str:
    """A valid workload name from a source path's stem."""
    stem = Path(source).name.lower()
    changed = True
    while changed:
        changed = False
        for suffix in _STRIP_SUFFIXES:
            if stem.endswith(suffix) and len(stem) > len(suffix):
                stem = stem[:-len(suffix)]
                changed = True
    cleaned = re.sub(r"[^a-z0-9._-]+", "-", stem).strip("-.")
    return cleaned[:64] or "imported"


def _builtin_names() -> set:
    from .. import workloads
    from ..workloads import adversarial

    return set(workloads.BENCHMARKS) | set(adversarial.SCENARIOS)


def validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise IngestError(
            f"bad workload name {name!r}: must match {_NAME_RE.pattern}")
    if name in _builtin_names():
        raise IngestError(f"workload name {name!r} shadows a built-in "
                          "benchmark; pick another with --name")
    return name


def _sha256_file(path: Path) -> Tuple[str, int]:
    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            nbytes += len(chunk)
    return digest.hexdigest(), nbytes


def content_sha256(packed: PackedTrace) -> str:
    """Digest of the packed columns (the content-address of the trace)."""
    digest = hashlib.sha256()
    columns = packed.materialized_columns()
    for col, _tc in COLUMNS:
        digest.update(columns[col].tobytes())
    return digest.hexdigest()


def _write_atomic(path: Path, writer) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                               suffix=".tmp")
    os.close(fd)
    try:
        nbytes = writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return nbytes


def import_trace(source: Union[str, Path], *,
                 adapter: Union[str, TraceAdapter, None] = None,
                 name: Optional[str] = None, limit: Optional[int] = None,
                 force: bool = False,
                 options: Optional[Dict[str, object]] = None,
                 metrics=None) -> Dict[str, object]:
    """Convert *source* and register it as an imported workload.

    Returns the provenance manifest (also written next to the trace).
    Raises :class:`IngestError` on malformed input, name collisions, or
    an existing import of the same name without ``force``.
    """
    source = Path(source)
    if not source.exists():
        raise IngestError("no such source", source=source)
    resolved = get_adapter(adapter, source)
    workload_name = validate_name(name if name is not None
                                  else derive_name(source))
    dest = trace_path(workload_name)
    if dest.exists() and not force:
        raise IngestError(f"workload {workload_name!r} already imported "
                          "(re-run with --force to replace it)")
    source_sha, source_bytes = _sha256_file(source)
    options = dict(options or {})

    def convert() -> PackedTrace:
        return resolved.packed(source, options or None, limit=limit,
                               name=workload_name)

    started = time.perf_counter()
    if metrics is not None:
        with metrics.timer(f"ingest.{resolved.name}"):
            packed = convert()
    else:
        packed = convert()
    elapsed = time.perf_counter() - started
    if len(packed) == 0:
        raise IngestError("conversion produced no events", source=source)

    value_events = len(packed.value_pairs()[0])
    trace_bytes = _write_atomic(dest, lambda tmp: save_packed(packed, tmp))
    doc = {
        "schema": MANIFEST_SCHEMA,
        "name": workload_name,
        "adapter": resolved.name,
        "source": str(source),
        "source_sha256": source_sha,
        "source_bytes": source_bytes,
        "options": {k: _json_safe(v) for k, v in options.items()},
        "events": len(packed),
        "value_events": value_events,
        "dropped": resolved.dropped,
        "limit": limit,
        "elapsed_s": round(elapsed, 6),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "format_version": PACKED_FORMAT_VERSION,
        "content_sha256": content_sha256(packed),
        "trace_bytes": trace_bytes,
    }
    _write_atomic(manifest_path(workload_name),
                  lambda tmp: Path(tmp).write_text(
                      json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8"))
    if metrics is not None:
        metrics.counter("ingest.imports").inc()
        metrics.counter("ingest.events").inc(len(packed))
        metrics.counter("ingest.dropped").inc(resolved.dropped)
    return doc


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def imported_names() -> List[str]:
    """Names of every registered imported workload, sorted."""
    root = imported_root()
    if not root.is_dir():
        return []
    names = []
    for path in root.glob(f"*{MANIFEST_SUFFIX}"):
        if path.with_suffix(ENTRY_SUFFIX).exists():
            names.append(path.stem)
    return sorted(names)


def manifest(name: str) -> Dict[str, object]:
    """The provenance manifest of imported workload *name*."""
    path = manifest_path(name)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IngestError(f"no imported workload {name!r} "
                          f"(known: {imported_names() or 'none'})") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"unreadable manifest: {exc}",
                          source=path) from None
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        raise IngestError("unsupported manifest schema", source=path)
    return doc


def load_imported(name: str) -> PackedTrace:
    """The canonical packed trace of imported workload *name*."""
    path = trace_path(name)
    if not path.exists():
        raise IngestError(f"no imported workload {name!r} "
                          f"(known: {imported_names() or 'none'})")
    return load_packed(path)


def remove(name: str) -> bool:
    """Delete an imported workload (trace + manifest); True if it existed."""
    existed = False
    for path in (trace_path(name), manifest_path(name)):
        try:
            path.unlink()
            existed = True
        except OSError:
            pass
    return existed


class ImportedWorkloadSpec(WorkloadSpec):
    """A recorded (finite) workload wearing the ``WorkloadSpec`` interface.

    ``seed`` is fixed at 0 and ignored by generation — the stream is a
    recording, not a generator — and ``code_copies`` other than 1 is an
    error (there is no static code to replicate).  ``fixed_length``
    carries the recording's event count; the trace cache clamps longer
    requests down to it.
    """

    def __init__(self, name: str, fixed_length: int, description: str = ""):
        super().__init__(name=name, groups=[], seed=0,
                         description=description)
        self.fixed_length = fixed_length

    def _check_copies(self, code_copies: int) -> None:
        if code_copies != 1:
            raise ValueError(
                f"imported workload {self.name!r} has no static code to "
                f"replicate (code_copies={code_copies})")

    def load_full(self) -> PackedTrace:
        """The whole recording as a packed trace (cache fast path)."""
        return load_imported(self.name)

    def generate(self, seed: Optional[int] = None,
                 code_copies: int = 1) -> Iterator:
        self._check_copies(code_copies)
        return iter(self.load_full())

    def trace(self, length: int, seed: Optional[int] = None,
              code_copies: int = 1) -> PackedTrace:
        self._check_copies(code_copies)
        packed = self.load_full()
        return packed[:min(length, len(packed))]


def get_spec(name: str) -> ImportedWorkloadSpec:
    """Resolve an imported workload name to its spec (manifest-backed)."""
    doc = manifest(name)
    description = f"imported via {doc.get('adapter')} from {doc.get('source')}"
    return ImportedWorkloadSpec(name, int(doc["events"]),
                                description=description)
