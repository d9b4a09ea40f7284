"""The run manifest: one JSON document describing a whole run.

A manifest records what was run (command, arguments, git revision,
interpreter), when (start/finish timestamps), how fast (per-phase wall
times and throughput from the registry's timers), how much memory the
process had used at its peak, and what was measured
(the registry's counters/gauges/histograms/series plus any
command-specific ``extra`` sections such as per-predictor statistics).
``repro ... --metrics-out FILE`` writes one; ``FILE = -`` streams it to
stdout so pipelines can consume it directly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry

try:
    import resource
except ImportError:  # pragma: no cover - platform without it (Windows)
    resource = None

SCHEMA_VERSION = 1


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort ``git rev-parse HEAD``; None outside a checkout.

    Resolved once per process and directory, so the manifest every
    campaign cell builds does not fork ``git`` each time; pool workers
    forked after the driver's first call inherit the answer.
    """
    try:
        directory = os.path.realpath(cwd if cwd is not None else os.getcwd())
    except OSError:  # the working directory was deleted
        return None
    return _git_revision_of(directory)


@functools.lru_cache(maxsize=None)
def _git_revision_of(directory: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _peak_rss_kib() -> Optional[int]:
    """This process's peak resident set size in KiB, or None where the
    ``resource`` module is missing.  ``ru_maxrss`` is KiB on Linux and
    bytes on macOS."""
    if resource is None:  # pragma: no cover - platform without it
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def _isoformat(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


class RunManifest:
    """Collects run provenance and renders the final JSON document."""

    def __init__(self, command: str, args: Optional[Dict[str, Any]] = None):
        self.command = command
        self.args = dict(args or {})
        self.started_at = time.time()
        #: Wall-clock anchor (ns since the Unix epoch) every span and
        #: event timestamp of this run is aligned to — recorded here so
        #: traces exported by separate worker processes land on one
        #: Perfetto timeline.
        self.clock_epoch_ns = time.time_ns()
        self.finished_at: Optional[float] = None
        self.peak_rss_kib: Optional[int] = None
        self.git_sha = git_revision()
        self.extra: Dict[str, Any] = {}

    @property
    def run_id(self) -> str:
        """Deterministic run identity: a content hash of the resolved
        configuration (command + arguments), not of when it ran.

        Two runs of the same command with the same arguments share one
        run id, which is what lets the campaign store deduplicate
        manifests across resumes instead of accreting a new document per
        attempt.
        """
        ident = json.dumps({"command": self.command, "args": self.args},
                           sort_keys=True, separators=(",", ":"),
                           default=str)
        return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]

    def add(self, section: str, payload: Any) -> None:
        """Attach a command-specific section (e.g. ``predictors``)."""
        self.extra[section] = payload

    def finish(self) -> None:
        self.finished_at = time.time()
        self.peak_rss_kib = _peak_rss_kib()

    def as_dict(self, registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
        if self.finished_at is None:
            self.finish()
        doc: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "args": {k: v for k, v in sorted(self.args.items())},
            "git_sha": self.git_sha,
            "python": platform.python_version(),
            "started_at": _isoformat(self.started_at),
            "finished_at": _isoformat(self.finished_at),
            "duration_s": self.finished_at - self.started_at,
            "clock_epoch_ns": self.clock_epoch_ns,
        }
        if self.peak_rss_kib is not None:
            doc["peak_rss_kib"] = self.peak_rss_kib
        if registry is not None:
            metrics = registry.as_dict()
            doc["phases"] = metrics.pop("phases")
            doc["metrics"] = metrics
        doc.update(self.extra)
        return doc

    def to_json(self, registry: Optional[MetricsRegistry] = None,
                indent: int = 2) -> str:
        return json.dumps(self.as_dict(registry), indent=indent,
                          sort_keys=False, default=str)

    def write(self, path: str, registry: Optional[MetricsRegistry] = None,
              stream=None) -> None:
        """Write the manifest to *path* (``-`` → *stream* / stdout)."""
        text = self.to_json(registry) + "\n"
        if path == "-":
            (stream or sys.stdout).write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
