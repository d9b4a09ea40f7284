"""Shared helpers of the repository benchmark: the work directory, the
environment the system under test runs in, process launching with peak
memory sampling, and small statistics.

Everything the benchmark writes lives under ``.perfbench_work/`` at the
root of the checkout; the system under test is run from ``src/`` with no
install step.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: The ten synthetic suite workloads, in the registry's order.
SUITE = ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf",
         "vortex", "vpr")

#: Worker count for batch commands and shard count for the daemon: the
#: benchmark machine has two cores.
JOBS = 2

#: Least set-ups per run (the tiny self-test size makes two);
#: ``setup_s`` is the median of their times.
SETUP_REPS = 7
TINY_SETUP_REPS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, a command that
    failed to start, a daemon that never became ready)."""


def require_source() -> None:
    """Refuse to run without the program's source tree next to us."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro; run from the "
                         "root of a repository checkout")


def import_repro() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


class Workdir:
    """Per-run scratch space under ``.perfbench_work/`` and the environment
    every system-under-test process gets.

    ``REPRO_*`` variables inherited from the caller are dropped, so a
    stray ``REPRO_POOL`` or ``REPRO_KERNELS`` cannot change which code is
    measured; the trace cache, temp files and the serve spool all point
    inside the work directory.
    """

    def __init__(self, tag: str):
        self.root = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        (self.root / "tmp").mkdir()

    def path(self, *parts: str) -> Path:
        return self.root.joinpath(*parts)

    def fresh(self, *parts: str) -> Path:
        """An empty directory at *parts* (removed first if present)."""
        path = self.path(*parts)
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def env(self, cache: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["TMPDIR"] = str(self.root / "tmp")
        env["XDG_CACHE_HOME"] = str(self.root / "xdg")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass


def compile_sources() -> None:
    """Byte-compile ``src/`` once per run so no timed process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# Process trees and peak memory
# ---------------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> List[int]:
    """*pid* and all its live descendants."""
    seen = [pid]
    i = 0
    while i < len(seen):
        seen.extend(_children(seen[i]))
        i += 1
    return seen


def _hwm_kib(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """Sum over a process tree of each process's peak resident set.

    Polls ``VmHWM`` (the kernel's per-process high-water mark) of the
    root and every descendant; the last reading of each pid is its peak,
    so the sum covers processes that exit before the tree does.  Only
    Python processes seen in at least two polls count: the short-lived
    children a worker forks to run another program (``git rev-parse``
    for a run manifest) would otherwise add a copy of their parent's
    shared pages whenever a poll happened to land before their exec.
    """

    def __init__(self, pid: int, interval_s: float = 0.02):
        self.pid = pid
        self.interval_s = interval_s
        self._python = os.path.realpath(sys.executable)
        self._peaks: Dict[int, int] = {}
        self._seen: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        for pid in process_tree(self.pid):
            try:
                exe = os.path.realpath(f"/proc/{pid}/exe")
            except OSError:
                continue
            hwm = _hwm_kib(pid)
            if hwm is None:
                continue
            if exe != self._python:
                self._seen[pid] = -1_000_000  # ran another program
                continue
            self._seen[pid] = self._seen.get(pid, 0) + 1
            self._peaks[pid] = max(hwm, self._peaks.get(pid, 0))

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval_s)

    def stop(self) -> float:
        """Stop polling; returns the peak in MiB."""
        self._stop.set()
        self._thread.join()
        return sum(peak for pid, peak in self._peaks.items()
                   if self._seen.get(pid, 0) >= 2) / 1024.0


#: Commands started and not yet waited for.
_LIVE: "set" = set()


def stop_all() -> None:
    """Kill every command still running, with its whole process group,
    and wait until each has ended (the benchmark is being stopped)."""
    for cmd in list(_LIVE):
        cmd.kill()


class Command:
    """One system-under-test process, timed from launch to exit, with its
    process tree's peak memory."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: Path,
                 log: Path, stdout=None):
        self.argv = list(argv)
        self.log = log
        self._log_fh = open(log, "wb")
        self.t0_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            self.argv, env=env, cwd=str(cwd),
            stdout=stdout if stdout is not None else self._log_fh,
            stderr=self._log_fh, start_new_session=True)
        _LIVE.add(self)
        self.rss = PeakRss(self.proc.pid)
        self.wall_s: Optional[float] = None
        self.t1_ns: Optional[int] = None
        self.peak_mb: Optional[float] = None

    def wait(self, timeout: float) -> int:
        # ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which
        # would round every wall time up to the next poll; a pidfd wakes
        # the moment the process exits.
        exited = self.proc.poll() is not None  # already reaped
        if not exited:
            fd = os.pidfd_open(self.proc.pid)
            try:
                exited = bool(select.select([fd], [], [], timeout)[0])
            finally:
                os.close(fd)
        if not exited:
            self.kill()
            raise BenchError(f"{self.argv[:4]} did not finish in "
                             f"{timeout:.0f}s (log: {self.log})")
        self.t1_ns = time.perf_counter_ns()
        code = self.proc.wait()
        self.wall_s = (self.t1_ns - self.t0_ns) / 1e9
        self.peak_mb = self.rss.stop()
        reap_group(self.proc.pid)
        self._log_fh.close()
        _LIVE.discard(self)
        return code

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM the root process only (it stops its own workers)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        self.rss.stop()
        reap_group(self.proc.pid)
        self._log_fh.close()
        _LIVE.discard(self)

    def tail(self, lines: int = 20) -> str:
        try:
            text = self.log.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def become_subreaper() -> None:
    """Have orphaned descendants (a command's helper processes that
    outlive it, such as multiprocessing's resource tracker) reparented
    to this process, so ``reap_group`` can reap them instead of waiting
    for init to."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        note("cannot become a child subreaper: orphaned helper "
             f"processes are left to init ({os.strerror(ctypes.get_errno())})")


def _group_members(pgid: int) -> List[tuple]:
    """``(pid, state, ppid)`` of every process in group *pgid*."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                data = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp.
        fields = data[data.rfind(")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid:
            out.append((int(entry), fields[0], int(fields[1])))
    return out


def reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of session/group *pgid* has ended,
    killing stragglers after *timeout*.  An exited process whose parent
    is gone stays a zombie until its new parent reaps it: it has ended,
    and is reaped here when that parent is this process."""
    deadline = time.monotonic() + timeout
    while True:
        live = False
        for pid, state, ppid in _group_members(pgid):
            if state != "Z":
                live = True
            elif ppid == os.getpid():
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        if not live:
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except OSError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def run_repro(args: Sequence[str], env: Dict[str, str], cwd: Path, log: Path,
              timeout: float = 170.0) -> Command:
    """Run ``python -m repro <args>`` to completion; raises on failure."""
    cmd = Command([sys.executable, "-m", "repro", *args], env, cwd, log)
    code = cmd.wait(timeout)
    if code != 0:
        raise BenchError(f"repro {' '.join(args[:3])} exited {code}:\n"
                         f"{cmd.tail()}")
    return cmd


def launcher_argv(spans_dir: Path, args: Sequence[str]) -> List[str]:
    """``repro <args>`` under the benchmark's span-recording launcher."""
    return [sys.executable, str(HERE / "launch.py"), str(spans_dir), "--",
            *args]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of no values")
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return float(data[rank - 1])


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()


def note(message: str) -> None:
    """Progress and diagnostics go to stderr, never to the result line."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
