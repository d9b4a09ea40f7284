"""The repository benchmark: one command runs any workload and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``reproduce`` and ``sweep`` (gated: ``BENCHMARK.json`` says
why each exists), ``serve-hot`` and ``serve-churn`` (runnable, not gated;
see README.md).  ``--trace 0`` measures the workload's end-to-end metrics
with tracing off.  ``--trace 1`` measures the per-layer unit costs, then
runs ``TRACED`` untraced and under the span launcher and attributes each
one's traced wall time to layers, so any traced run reports every
per-layer metric.

Progress goes to stderr; the last line of stdout is the result object.
The program's outputs are checked outside every timed region, and a
mismatch makes ``correct`` false and the exit code 1.  Any other
failure (no source tree, a command that cannot start) exits 2 without a
result line.
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback
from typing import Dict, Tuple

import common

WORKLOADS = ("reproduce", "sweep", "serve-hot", "serve-churn")
#: The workloads every traced run traces: the two BENCHMARK.json gates
#: and serve-hot, which carries the serve layer.
TRACED = ("reproduce", "sweep", "serve-hot")


def build(name: str, seed: int, seconds: float, tiny: bool,
          break_reference: bool):
    if name == "reproduce":
        from batch import Reproduce
        return Reproduce(seed, seconds, tiny, break_reference)
    if name == "sweep":
        from batch import Sweep
        return Sweep(seed, seconds, tiny, break_reference)
    from serve import ServeWorkload
    return ServeWorkload(name, seed, seconds, tiny, break_reference)


def untraced(args) -> Tuple[Dict, int, int]:
    """The end-to-end metrics of ``args.workload``, tracing off."""
    workload = build(args.workload, args.seed, args.seconds, args.tiny,
                     args.break_reference)
    try:
        metrics = workload.measure()
    finally:
        common.stop_all()
        workload.close()
    return metrics, workload.attempted, workload.failed


def traced(args) -> Tuple[Dict, int, int]:
    """The per-layer metrics: unit costs in a fresh process, then each
    ``TRACED`` workload (and ``args.workload``, if it is not one)
    untraced and traced, so every run reports every per-layer metric as
    measured."""
    import layers

    work = common.Workdir("layers")
    try:
        metrics = layers.run_child(work, args.seed, args.tiny)
    finally:
        common.stop_all()
        work.close()
    attempted = failed = 0
    names = TRACED + (() if args.workload in TRACED else (args.workload,))
    for name in names:
        workload = build(name, args.seed, args.seconds, args.tiny,
                         args.break_reference)
        try:
            metrics.update(workload.traced_part())
        finally:
            common.stop_all()
            workload.close()
        attempted += workload.attempted
        failed += workload.failed
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): tiny sizes, and a
    # deliberately wrong reference that the output check must catch.
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--break-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A stop request unwinds through the finally blocks below, which stop
    # every process the benchmark started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    common.become_subreaper()
    try:
        common.require_source()
        common.import_repro()
        common.compile_sources()
        metrics, attempted, failed = (traced(args) if args.trace
                                      else untraced(args))
    except Exception as exc:  # the boundary: report, print no result
        traceback.print_exc()
        common.note(f"benchmark failed: {exc}")
        return 2
    finally:
        common.stop_all()
    correct = failed == 0 and attempted > 0
    common.emit(correct, attempted, failed, metrics)
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
