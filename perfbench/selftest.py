"""Self-test of the benchmark at tiny sizes (about four minutes).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps to the benchmark contract and that
``predictions.json`` covers every per-layer metric; that every workload,
``serve-churn`` included, completes untraced and traced and prints every
metric by a well-formed name with the unit ``BENCHMARK.json`` gives it;
that a deliberately wrong reference makes each workload's output check
fail; and that the benchmark refuses to run without the program's
source tree.  The traced runs of the ungated workloads (each also traces
``reproduce``, ``sweep`` and ``serve-hot``) cover the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("reproduce", "sweep", "serve-hot", "serve-churn")

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def contract() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= bench["run_seconds"] <= 60
          and isinstance(bench["run_seconds"], int), "run_seconds")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w['name']}")
        names.append(w["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"]
                                       for m in bench["end_to_end"]),
          "setup_s present with the largest bound")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"end-to-end {m['name']}")
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}
              and m["better"] in ("higher", "lower"),
              f"per-layer {m['name']}")
        names.append(m["name"])
    for name in names:
        check(bool(NAME.match(name)), f"name {name!r} is well formed")
    check(len(names) == len(set(names)), "names are used once")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
    predicted = json.loads((HERE / "predictions.json").read_text())
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in predicted["per_layer"]]
    check(not missing, f"predictions cover every per-layer metric "
                       f"{missing or ''}")
    return bench


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def result_ok(bench: dict, what: str, args, section: str,
              exact: bool) -> None:
    proc, result = run(args)
    if result is None:
        check(False, f"{what} printed a result\n{proc.stderr[-3000:]}")
        return
    check(proc.returncode == 0 and result["correct"] is True,
          f"{what} completes and checks out")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and isinstance(result["attempted"], int)
          and result["attempted"] >= 1 and result["failed"] == 0,
          f"{what} result keys and counts")
    want = {m["name"]: m["unit"] for m in bench[section]}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want)) if exact else []
    check(not missing and not extra,
          f"{what} prints every metric {missing + extra or ''}")
    for metric, body in got.items():
        value = body.get("value")
        ok = (isinstance(value, (int, float)) and math.isfinite(value)
              and bool(NAME.match(metric)) and bool(UNIT.match(
                  str(body.get("unit"))))
              and body.get("unit") == want.get(metric, body.get("unit")))
        if section == "end_to_end":
            ok = ok and value > 0
        if not ok:
            check(False, f"{what} {metric} = {body}")


def workload(bench: dict, name: str) -> None:
    gated = name in {w["name"] for w in bench["workloads"]}
    # The serve workloads also print their serve-only figures
    # (max_rate_eps, p50_ms, p99_ms; README.md).
    result_ok(bench, f"{name} --trace 0",
              ["--workload", name, "--seed", "7", "--seconds", "2",
               "--trace", "0", "--tiny"], "end_to_end", exact=gated)
    if not gated:
        # A traced run of an ungated workload traces reproduce, sweep
        # and serve-hot too, so this also covers their traced parts.
        result_ok(bench, f"{name} --trace 1",
                  ["--workload", name, "--seed", "7", "--seconds", "2",
                   "--trace", "1", "--tiny"], "per_layer", exact=False)
    proc, result = run(["--workload", name, "--seed", "7", "--seconds", "2",
                        "--trace", "0", "--tiny", "--break-reference"])
    check(result is not None and result["correct"] is False
          and result["failed"] > 0 and proc.returncode == 1,
          f"{name}: a wrong reference fails the output check")


def without_source() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run(["--workload", "reproduce", "--seed", "1",
                            "--seconds", "2", "--trace", "0"], cwd=tmp)
        check(proc.returncode != 0 and result is None,
              "refuses to run without the source tree")


def main() -> int:
    bench = contract()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    without_source()
    for name in WORKLOADS:
        workload(bench, name)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
