"""Imported traces must be bit-identical across every execution path.

Mirrors ``test_kernel_equivalence.py`` for the ingestion plane: one
trace per adapter family (CSV, ndjson, CVP, ChampSim, live capture) is
imported into the store, then driven through

* the object path (``REPRO_KERNELS=0``) vs the fused profile kernels
  (``REPRO_KERNELS=1``) under :func:`run_value_prediction`, and
* the object OOO core vs the event-driven pipeline kernel under
  :meth:`OutOfOrderCore.run`,

asserting equal :class:`PredictionStats` tuples and equal simulation
results.  A final check replays an imported workload through the
campaign executor (the path ``repro campaign run`` uses) and pins it
against a direct harness run.
"""

import random

import pytest

from repro.core import GDiffPredictor
from repro.harness.runner import run_value_prediction
from repro.predictors import DFCMPredictor, StridePredictor
from repro.predictors.base import PredictionStats
from repro.trace.cache import cached_trace
from repro.trace.ingest import import_trace
from repro.trace.ingest.formats import write_champsim, write_cvp
from repro.trace.isa import ialu, load


@pytest.fixture(autouse=True)
def _isolated_import_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_IMPORT_DIR", str(tmp_path / "imported"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _mixed_events(seed, length):
    """A value stream with strides, correlation, and noise (64-bit wrap)."""
    rng = random.Random(seed)
    pcs = [0x400000 + 4 * i for i in range(10)]
    state = {pc: rng.randrange(1 << 64) for pc in pcs}
    strides = {pc: rng.choice([1, 8, (1 << 64) - 8, (1 << 62) + 3])
               for pc in pcs}
    history = [rng.randrange(1 << 64) for _ in range(4)]
    for i in range(length):
        pc = pcs[rng.randrange(len(pcs))]
        kind = rng.random()
        if kind < 0.5:
            state[pc] = (state[pc] + strides[pc]) & ((1 << 64) - 1)
            value = state[pc]
        elif kind < 0.7:
            value = (history[-rng.randrange(1, 4)] + strides[pc]) \
                & ((1 << 64) - 1)
        else:
            value = rng.randrange(1 << 64)
        history.append(value)
        if i % 6 == 5:
            yield load(pc=pc, dest=1, value=value,
                       addr=(0x9000 + i * 8) & ((1 << 64) - 1))
        else:
            yield ialu(pc=pc, dest=1, value=value)


def _make_source(adapter, tmp_path, length=1200):
    events = list(_mixed_events(seed=ADAPTERS.index(adapter), length=length))
    if adapter == "csv":
        path = tmp_path / "eq.csv"
        lines = ["pc,value,addr,is_load"]
        for insn in events:
            lines.append(f"{insn.pc},{insn.value},"
                         f"{insn.addr if insn.addr is not None else ''},"
                         f"{int(insn.op.name == 'LOAD')}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif adapter == "ndjson":
        import json

        path = tmp_path / "eq.ndjson"
        with open(path, "w", encoding="utf-8") as fh:
            for insn in events:
                doc = {"pc": insn.pc, "value": insn.value}
                if insn.addr is not None:
                    doc["addr"] = insn.addr
                    doc["is_load"] = True
                fh.write(json.dumps(doc) + "\n")
    elif adapter == "cvp":
        path = tmp_path / "eq.cvp"
        write_cvp(iter(events), path)
    elif adapter == "champsim":
        path = tmp_path / "eq.champsimtrace"
        # ChampSim carries no values; loads become address-value events.
        records = [(insn.pc, 0, 0, (3,), (5,), (),
                    ((insn.addr or (0x8000 + i * 64)),))
                   for i, insn in enumerate(events)]
        write_champsim(records, path)
    elif adapter == "capture":
        path = tmp_path / "eq.py"
        path.write_text(
            "arr = [(i * 37 + 11) % 4096 for i in range(64)]\n"
            "acc = 7\n"
            "total = 0\n"
            "for i in range(160):\n"
            "    v = arr[i % 64]\n"
            "    acc = (acc * 1103515245 + v) % (1 << 31)\n"
            "    total = total + (v ^ (i & 0xFF))\n",
            encoding="utf-8")
    else:
        raise AssertionError(adapter)
    return path


def stats_tuple(stats: PredictionStats):
    return (stats.attempts, stats.predictions, stats.correct,
            stats.confident, stats.confident_correct)


PREDICTORS = {
    "stride": lambda: StridePredictor(entries=None),
    "dfcm": lambda: DFCMPredictor(order=4, l1_entries=None, l2_entries=512),
    "gdiff8": lambda: GDiffPredictor(order=8, entries=None),
}

ADAPTERS = ["csv", "ndjson", "cvp", "champsim", "capture"]


def _import(adapter, tmp_path):
    source = _make_source(adapter, tmp_path)
    kwargs = {"adapter": "capture"} if adapter == "capture" else {}
    doc = import_trace(source, name=f"eq-{adapter}", **kwargs)
    return doc["name"], doc["events"]


@pytest.mark.parametrize("adapter", ADAPTERS)
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_object_path_matches_fused_kernels(adapter, gated, tmp_path,
                                           monkeypatch):
    name, events = _import(adapter, tmp_path)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        trace = cached_trace(name, events)
        stats = run_value_prediction(
            trace, {pname: make() for pname, make in PREDICTORS.items()},
            gated=gated)
        results[flag] = {pname: stats_tuple(s)
                         for pname, s in stats.items()}
    assert results["0"] == results["1"]
    # Every adapter family must contribute a live value stream.
    assert all(t[0] > 0 for t in results["0"].values())


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_pipeline_kernel_matches_object_core(adapter, tmp_path,
                                             monkeypatch):
    from repro.pipeline import LocalPredictorAdapter, OutOfOrderCore

    name, events = _import(adapter, tmp_path)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        trace = cached_trace(name, events)
        vp = LocalPredictorAdapter(StridePredictor(entries=256))
        core = OutOfOrderCore(value_predictor=vp)
        sim = core.run(trace)
        results[flag] = (sim.cycles, sim.retired, sim.retired_vp,
                         stats_tuple(vp.stats))
    assert results["0"] == results["1"]
    assert results["0"][1] == events  # every imported event retires


def test_imported_trace_through_campaign_executor(tmp_path, monkeypatch):
    """The campaign executor's predict path equals a direct harness run."""
    from repro.campaign.scheduler import _execute_cell

    name, events = _import("csv", tmp_path)
    config = {"kind": "predict",
              "params": {"predictor": "stride", "bench": name,
                         "length": events}}
    record = _execute_cell(config)
    cell_stats = record["payload"]["stats"]["stride"]

    direct = run_value_prediction(cached_trace(name, events),
                                  {"stride": StridePredictor(entries=None)})
    assert cell_stats["attempts"] == direct["stride"].attempts
    assert cell_stats["correct"] == direct["stride"].correct
    assert cell_stats["raw_accuracy"] == pytest.approx(
        direct["stride"].raw_accuracy)


def test_reimport_reproduces_identical_stats(tmp_path, monkeypatch):
    """import -> packed -> predict is a pure function of the source."""
    source = _make_source("cvp", tmp_path)
    docs = []
    for name in ("r1", "r2"):
        doc = import_trace(source, name=name)
        stats = run_value_prediction(
            cached_trace(name, doc["events"]),
            {"gdiff8": GDiffPredictor(order=8, entries=None)})
        docs.append((doc["content_sha256"], stats_tuple(stats["gdiff8"])))
    assert docs[0] == docs[1]
