"""Durable, content-addressed campaign results store.

Layout of one campaign directory::

    <root>/
      campaign.json            # spec snapshot: identity + resolved cells
      index.json               # {cell_id: summary} for O(1) status lookups
      cells/<cell_id>.json     # one completed cell: config, result,
                               #   metrics snapshot, manifest pointer
      quarantine/<cell_id>.json# one poisoned cell: config + traceback
      manifests/<run_id>.json  # deduplicated per-cell run manifests

Every write is atomic (temp file + ``os.replace`` in the same directory),
so a killed campaign never leaves a torn record: a cell either exists
completely or not at all, which is what makes resumption a pure
"skip what exists" walk.  Cell files are keyed by the content hash of
their resolved configuration (:class:`~repro.campaign.spec.Cell`), so the
store never needs to compare configs — identity *is* the address.

The index is a cache of the record files.  Record writes update it in
memory only; ``index.json`` is written by :meth:`CampaignStore.create`
and by :meth:`CampaignStore.write_index`, which the scheduler calls at
the end of every round.  A campaign killed mid-round therefore leaves an
index that lags the records by at most that round, and opening or
refreshing a store heals the lag in memory, reading only the records the
index lacks — it never writes the file, so a ``status --watch`` reader
cannot race the writer.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry import get_logger
from .spec import Cell, CampaignSpec

log = get_logger("repro.campaign.store")

#: Schema version of individual cell records.
RECORD_SCHEMA_VERSION = 1

STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"
STATUS_PENDING = "pending"


class StoreError(RuntimeError):
    """A campaign directory that cannot be used as asked."""


def _traceback_frame(traceback_text: str) -> str:
    """The first frame line of a formatted traceback (where it broke).

    A formatted traceback opens with the useless "Traceback (most recent
    call last):" banner; the first ``File "..."`` line names the
    outermost broken frame, which is what a status view should show next
    to the exception itself.
    """
    for line in (traceback_text or "").splitlines():
        line = line.strip()
        if line.startswith('File "'):
            return line
    return ""


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Write *payload* as JSON such that readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CampaignStore:
    """One campaign directory: snapshot, cell records, index, manifests."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.quarantine_dir = self.root / "quarantine"
        self.manifests_dir = self.root / "manifests"
        self._index: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle --------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        return self.root / "campaign.json"

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def exists(self) -> bool:
        return self.snapshot_path.is_file()

    def create(self, spec: CampaignSpec) -> None:
        """Initialise the directory from a spec (idempotent for the same
        grid; refuses a different one)."""
        if self.exists():
            self.open(spec)
            return
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.snapshot_path, spec.snapshot())
        self._index = {}
        self._heal_index()
        self.write_index()

    def open(self, spec: Optional[CampaignSpec] = None) -> CampaignSpec:
        """Open an existing store; with *spec*, verify it matches the grid
        this store was created from."""
        snap = self.read_snapshot()
        stored = CampaignSpec.from_snapshot(snap)
        if spec is not None and spec.grid_sha() != snap.get("grid_sha"):
            raise StoreError(
                f"{self.root} was created from a different grid "
                f"(stored {snap.get('grid_sha')}, spec {spec.grid_sha()}); "
                "use a fresh --dir or re-run with the original spec")
        self._load_index()
        return stored

    def refresh(self) -> None:
        """Re-read the index from disk.

        Live views (``campaign status --watch``) poll a store that a
        *different* process is writing; rereading the index (with the
        usual in-memory self-heal) picks up cells completed since the
        last frame, including those of the writer's current round.
        """
        self._load_index()

    def read_snapshot(self) -> Dict[str, Any]:
        try:
            with open(self.snapshot_path, encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise StoreError(f"{self.root} is not a campaign directory "
                             f"({exc})")
        except json.JSONDecodeError as exc:
            raise StoreError(f"{self.snapshot_path} is damaged: {exc}")

    # -- index ------------------------------------------------------------
    def _load_index(self) -> None:
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                self._index = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self._index = {}
        self._heal_index()

    def _heal_index(self) -> None:
        """Make the in-memory index agree with the record files.

        The index lags the files after a kill mid-round (records land
        before the round's index write) and may list files a user
        deleted.  Only the records the index lacks are read; ids whose
        file is gone are dropped.  A cell with both a completed and a
        quarantine record (a kill between the two writes that clear the
        quarantine) counts as completed.
        """
        done = {p.stem for p in self.cells_dir.glob("*.json")}
        quarantined = {p.stem for p in self.quarantine_dir.glob("*.json")}
        quarantined -= done
        on_disk = {STATUS_DONE: done, STATUS_QUARANTINED: quarantined}
        index = {cid: entry for cid, entry in self._index.items()
                 if cid in on_disk.get(entry.get("status"), ())}
        for status, directory in ((STATUS_DONE, self.cells_dir),
                                  (STATUS_QUARANTINED, self.quarantine_dir)):
            for cid in sorted(on_disk[status] - index.keys()):
                record = self._read_record(directory / f"{cid}.json")
                if record is not None:
                    index[cid] = self._summarise(record, status)
        self._index = index

    def write_index(self) -> None:
        """Persist the in-memory index to ``index.json`` (atomically)."""
        _atomic_write_json(self.index_path, self._index)

    @staticmethod
    def _read_record(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            log.warning("ignoring damaged record %s: %s", path, exc)
            return None

    @staticmethod
    def _summarise(record: Dict[str, Any], status: str) -> Dict[str, Any]:
        summary = {
            "status": status,
            "label": record.get("label", ""),
            "attempts": record.get("attempts", 1),
        }
        if status == STATUS_DONE:
            summary["duration_s"] = record.get("duration_s")
            telemetry = record.get("telemetry")
            if telemetry:
                summary["telemetry"] = telemetry
        else:
            summary["error"] = record.get("error", "")
            frame = _traceback_frame(record.get("traceback", ""))
            if frame:
                summary["traceback_frame"] = frame
        return summary

    # -- queries ----------------------------------------------------------
    def status(self, cell_id: str) -> str:
        """O(1): ``done`` / ``quarantined`` / ``pending``."""
        entry = self._index.get(cell_id)
        return entry["status"] if entry else STATUS_PENDING

    def is_done(self, cell_id: str) -> bool:
        return self.status(cell_id) == STATUS_DONE

    def summary(self, cell_id: str) -> Optional[Dict[str, Any]]:
        return self._index.get(cell_id)

    def counts(self) -> Dict[str, int]:
        counts = {STATUS_DONE: 0, STATUS_QUARANTINED: 0}
        for entry in self._index.values():
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return counts

    def cell_path(self, cell_id: str) -> Path:
        return self.cells_dir / f"{cell_id}.json"

    def quarantine_path(self, cell_id: str) -> Path:
        return self.quarantine_dir / f"{cell_id}.json"

    def load_cell(self, cell_id: str) -> Dict[str, Any]:
        record = self._read_record(self.cell_path(cell_id))
        if record is None:
            raise StoreError(f"no completed cell {cell_id} in {self.root}")
        return record

    def load_quarantine(self, cell_id: str) -> Dict[str, Any]:
        record = self._read_record(self.quarantine_path(cell_id))
        if record is None:
            raise StoreError(f"no quarantined cell {cell_id} in "
                             f"{self.root}")
        return record

    def results(self) -> List[Dict[str, Any]]:
        """Every completed cell record, sorted by cell id."""
        return [self.load_cell(cid) for cid in sorted(self._index)
                if self.is_done(cid)]

    # -- writes -----------------------------------------------------------
    def write_result(self, cell: Cell, result: Dict[str, Any],
                     metrics: Optional[Dict[str, Any]] = None,
                     attempts: int = 1,
                     duration_s: Optional[float] = None,
                     manifest: Optional[Dict[str, Any]] = None,
                     telemetry: Optional[Dict[str, Any]] = None) -> Path:
        """Record one completed cell (atomically) and update the in-memory
        index (:meth:`write_index` persists it).

        A cell that had been quarantined and now succeeded (e.g. a crash
        that a retry on resume survived) leaves quarantine.
        """
        record = {
            "schema": RECORD_SCHEMA_VERSION,
            "cell_id": cell.cell_id,
            "label": cell.label,
            "config": cell.config(),
            "status": STATUS_DONE,
            "attempts": attempts,
            "duration_s": duration_s,
            "result": result,
        }
        if telemetry is not None:
            record["telemetry"] = telemetry
        if metrics is not None:
            record["metrics"] = metrics
        if manifest is not None:
            record["manifest_run_id"] = self.write_manifest(manifest)
        path = self.cell_path(cell.cell_id)
        _atomic_write_json(path, record)
        try:
            self.quarantine_path(cell.cell_id).unlink()
        except OSError:
            pass
        self._index[cell.cell_id] = self._summarise(record, STATUS_DONE)
        return path

    def write_quarantine(self, cell: Cell, error: str,
                         traceback_text: str = "",
                         attempts: int = 1) -> Path:
        """Record one poisoned cell: the campaign carries on without it."""
        record = {
            "schema": RECORD_SCHEMA_VERSION,
            "cell_id": cell.cell_id,
            "label": cell.label,
            "config": cell.config(),
            "status": STATUS_QUARANTINED,
            "attempts": attempts,
            "error": error,
            "traceback": traceback_text,
        }
        path = self.quarantine_path(cell.cell_id)
        _atomic_write_json(path, record)
        self._index[cell.cell_id] = self._summarise(record,
                                                    STATUS_QUARANTINED)
        return path

    def write_manifest(self, manifest: Dict[str, Any]) -> str:
        """Store a run manifest under its deterministic ``run_id``.

        Manifest run ids are content hashes of the resolved configuration
        (see :class:`~repro.telemetry.RunManifest`), so a resumed cell
        maps to the *same* manifest file and the store deduplicates
        instead of accreting one document per attempt.
        """
        run_id = manifest.get("run_id")
        if not run_id:
            raise StoreError("manifest has no run_id")
        path = self.manifests_dir / f"{run_id}.json"
        if not path.exists():
            _atomic_write_json(path, manifest)
        return run_id
