"""The pipeline kernel must be bit-identical to the object core.

Mirrors ``test_kernel_equivalence.py`` one layer up: every supported
predictor scheme (the local adapters with and without speculative
update, aliasing tables, every gDiff distance policy, with and without
refresh on match, and each HGVQ filler) × gating × reissue-policy
combination is run through
:meth:`OutOfOrderCore.run` twice — once with ``REPRO_KERNELS=1`` (the
event-driven SoA kernel) and once forced onto the object path with
``REPRO_KERNELS=0`` — asserting equal :class:`SimResult` (cycles, IPC
numerator, value-delay histogram, miss/flush counters), equal cache and
branch-predictor end state, and equal predictor/queue/confidence/stats
end state: the gDiff table, the local adapter's inner tables and the
HGVQ filler's (stride, last-value and DFCM, level-2 table included),
every dict compared in insertion order.  Dead state is excluded exactly
as in the profile-kernel suite: ``_diffs`` words past a row's ``_valid``
count and the ``_scratch`` buffer are unreachable garbage on both paths.

Also covered: the passive timing memo (several schemes replayed over one
trace object must match their from-scratch object runs bit for bit),
``max_cycles`` truncation including ``0``, empty traces, chained runs
over trace slices, progress-callback sequences, a d-cache port-starved
speculative config (regression guard for used-speculation marking on
port-blocked ready entries), and the decline paths.
"""

import pytest

from repro.core import GDiffPredictor, HybridGDiffPredictor
from repro.harness.experiments import great_latency_config
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.ooo import OutOfOrderCore
from repro.pipeline.vp import HGVQAdapter, LocalPredictorAdapter, SGVQAdapter
from repro.predictors.base import ConstantPredictor
from repro.predictors.confidence import ConfidenceTable
from repro.predictors.dfcm import DFCMPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor
from repro.trace.cache import cached_trace

LENGTH = 4000


def make_vp(kind):
    if kind is None:
        return None
    if kind == "stride":
        return LocalPredictorAdapter(StridePredictor(entries=256))
    if kind == "stride_unlim":
        return LocalPredictorAdapter(StridePredictor())
    if kind == "stride_spec":
        return LocalPredictorAdapter(StridePredictor(entries=256),
                                     spec_update=True)
    if kind == "stride1_spec":
        return LocalPredictorAdapter(
            StridePredictor(entries=64, two_delta=False), spec_update=True)
    if kind == "lv":
        return LocalPredictorAdapter(LastValuePredictor(entries=128))
    if kind == "lv_spec":
        return LocalPredictorAdapter(LastValuePredictor(entries=128),
                                     spec_update=True)
    if kind == "dfcm":
        return LocalPredictorAdapter(DFCMPredictor(order=3, l1_entries=512))
    if kind == "dfcm_alias":
        # 16 level-1 slots: many PCs share a slot and its stride context.
        return LocalPredictorAdapter(DFCMPredictor(order=4, l1_entries=16))
    if kind == "const":
        return LocalPredictorAdapter(ConstantPredictor(value=7))
    if kind == "sgvq":
        return SGVQAdapter(order=16, entries=512)
    if kind == "sgvq_unlim":
        return SGVQAdapter(order=8)
    if kind == "sgvq32":
        return SGVQAdapter(order=32, entries=8192)  # fig13's adapter
    if kind == "sgvq32_farthest":
        vp = SGVQAdapter(order=32, entries=8192)
        vp.gdiff = GDiffPredictor(order=32, entries=8192, policy="farthest")
        return vp
    if kind in ("sgvq_nearest", "sgvq_farthest"):
        vp = SGVQAdapter(order=16, entries=512)
        vp.gdiff = GDiffPredictor(order=16, entries=512,
                                  policy=kind.split("_")[1])
        return vp
    if kind == "sgvq_norefresh":
        vp = SGVQAdapter(order=16, entries=512)
        vp.gdiff = GDiffPredictor(order=16, entries=512,
                                  refresh_on_match=False)
        return vp
    if kind == "sgvq_thr0":
        return SGVQAdapter(order=16, entries=256,
                           confidence=ConfidenceTable(threshold=0))
    if kind == "hgvq":
        return HGVQAdapter(order=16, entries=512)
    if kind == "hgvq_unlim":
        return HGVQAdapter(order=8)
    if kind in ("hgvq_nearest", "hgvq_farthest"):
        vp = HGVQAdapter(order=16, entries=512)
        vp.hybrid = HybridGDiffPredictor(order=16, entries=512,
                                         policy=kind.split("_")[1])
        return vp
    if kind == "hgvq_stride1":
        return HGVQAdapter(order=16, entries=512,
                           filler=StridePredictor(entries=64,
                                                  two_delta=False))
    if kind == "hgvq_thr0":
        return HGVQAdapter(order=16, entries=256,
                           confidence=ConfidenceTable(threshold=0))
    if kind == "hgvq_lv":
        return HGVQAdapter(order=16, entries=512,
                           filler=LastValuePredictor(entries=128))
    if kind == "hgvq_dfcm":
        return HGVQAdapter(order=16, entries=512,
                           filler=DFCMPredictor(order=3, l1_entries=512))
    if kind == "hgvq_const":
        return HGVQAdapter(order=8, entries=256,
                           filler=ConstantPredictor(value=7))
    raise ValueError(kind)


def make_config(name):
    if name == "default":
        return ProcessorConfig()
    if name == "great":
        return great_latency_config()
    if name == "one_port":
        # A single d-cache port starves ready loads/stores at issue;
        # with an ungated (threshold-0) predictor this exercises the
        # entries that are evaluated ready on a speculative value but
        # held back by the port budget — they must still count as
        # having used speculation when a later squash walks consumers.
        cfg = great_latency_config()
        cfg.dcache_ports = 1
        return cfg
    raise ValueError(name)


def snap_result(r):
    return (r.cycles, r.retired, r.retired_vp, r.branches,
            r.branch_mispredicts, r.icache_misses, r.dcache_accesses,
            r.dcache_misses, r.reissues, dict(r.value_delay_histogram))


def snap_core(core):
    bp = core.branch_predictor
    return (bp._history, bp.lookups, bp.correct, bytes(bp._counters),
            core.icache.accesses, core.icache.misses,
            repr(core.icache._lines),
            core.dcache.accesses, core.dcache.misses,
            repr(core.dcache._lines))


def _entry_snap(e):
    if isinstance(e, int):
        return e
    if hasattr(e, "__slots__"):
        return tuple(getattr(e, f) for f in e.__slots__)
    return tuple(sorted(vars(e).items()))


def _table_snap(t):
    """A local table's counters and entries, or a plain dict's items
    (DFCM's level-2 table); every dict in insertion order."""
    if isinstance(t, dict):
        return list(t.items())
    return (t.accesses, t.conflicts, t.evictions,
            [(k, _entry_snap(e)) for k, e in t._data.items()],
            list(t._owner.items()))


def _local_snap(out, prefix, predictor):
    for attr in ("_table", "_l1", "_l2"):
        tb = getattr(predictor, attr, None)
        if tb is not None:
            out[prefix + attr] = _table_snap(tb)


def snap_vp(vp):
    """Complete live predictor state: stats, confidence, tables, queues,
    with every dict compared in insertion order.

    Only reachable state is captured — ``_diffs`` beyond ``_valid`` and
    the ``_scratch`` buffer are garbage on both paths by contract.
    """
    if vp is None:
        return None
    s = vp.stats
    out = {"stats": (s.attempts, s.predictions, s.correct, s.confident,
                     s.confident_correct),
           "conf": list(vp.confidence._table._data.items())}
    gd = getattr(vp, "gdiff", None)
    hy = getattr(vp, "hybrid", None)
    if hy is not None:
        q = hy.queue
        out["late"] = q.late_deposits
        out["hy_last"] = hy.last_distance
        out["q"] = (q._next_seq,
                    tuple(q._buf[k % q._capacity]
                          for k in range(max(0, q._next_seq - q._capacity),
                                         q._next_seq)))
        _local_snap(out, "filler", hy.filler)
        gd = hy
    elif gd is not None:
        q = gd.queue
        out["q"] = (q._count, q._vmask,
                    tuple(q._buf[k % q._capacity]
                          for k in range(max(0, q._count - q._capacity),
                                         q._count)))
    inner = getattr(vp, "inner", None)
    if inner is not None:
        _local_snap(out, "inner", inner)
    if gd is not None:
        t = gd.table
        out["gd_last"] = gd.last_distance
        out["tacc"] = (t.accesses, t.conflicts)
        rows = []
        if t.entries is None:
            for pc, row in t._rows.items():
                v = t._valid[row]
                base = row * t.order
                rows.append((pc, t._dist[row], v,
                             tuple(t._diffs[base:base + v])))
            out["nrows"] = t._nrows
        else:
            owners = t._owner_set  # kept only where the table reads them
            for row in range(t.entries):
                if t._present[row]:
                    v = t._valid[row]
                    base = row * t.order
                    rows.append((row, t._dist[row], v,
                                 tuple(t._diffs[base:base + v]),
                                 t._owner[row]
                                 if owners is not None and owners[row]
                                 else None))
            out["occ"] = t._occupied
        out["keeps_owners"] = t._owner is not None
        out["rows"] = rows
    return out


def run_both(kind, speculate, cfgname, seed, monkeypatch, length=LENGTH,
             max_cycles=None):
    trace = cached_trace("gzip", length=length, seed=seed, code_copies=2)
    results = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        vp = make_vp(kind)
        core = OutOfOrderCore(config=make_config(cfgname),
                              value_predictor=vp, speculate=speculate,
                              track_value_delay=True)
        r = core.run(trace, max_cycles=max_cycles)
        results[flag] = (snap_result(r), snap_vp(vp), snap_core(core))
    return results


CONFIGS = [
    (None, False, "default", 11),
    (None, True, "great", 11),
    ("stride", False, "default", 11),
    ("stride", True, "great", 11),
    ("stride_unlim", True, "default", 11),
    ("stride_spec", False, "default", 11),
    ("stride_spec", False, "great", 11),
    ("stride_spec", True, "default", 11),
    ("stride_spec", True, "great", 11),
    ("stride1_spec", False, "default", 11),
    ("stride1_spec", False, "great", 11),
    ("stride1_spec", True, "default", 11),
    ("stride1_spec", True, "great", 11),
    ("lv", False, "default", 11),
    ("lv_spec", False, "default", 11),
    ("lv_spec", True, "great", 11),
    ("dfcm", True, "great", 11),
    ("dfcm_alias", False, "default", 11),
    ("dfcm_alias", True, "great", 11),
    ("const", False, "default", 11),
    ("const", True, "default", 11),
    ("sgvq", False, "default", 11),
    ("sgvq", True, "great", 11),
    ("sgvq", True, "great", 99),
    ("sgvq_unlim", False, "great", 11),
    ("sgvq_thr0", True, "great", 11),
    ("sgvq_nearest", False, "default", 11),
    ("sgvq_nearest", True, "great", 11),
    ("sgvq_farthest", False, "default", 11),
    ("sgvq_farthest", True, "great", 11),
    ("sgvq_norefresh", False, "default", 11),
    ("sgvq_norefresh", True, "great", 11),
    ("sgvq32", False, "default", 11),
    ("sgvq32", True, "great", 11),
    ("sgvq32_farthest", True, "great", 11),
    ("hgvq", False, "default", 11),
    ("hgvq", True, "great", 11),
    ("hgvq", True, "great", 99),
    ("hgvq_unlim", True, "default", 11),
    ("hgvq_thr0", True, "great", 11),
    ("hgvq_nearest", False, "default", 11),
    ("hgvq_nearest", True, "great", 11),
    ("hgvq_farthest", False, "default", 11),
    ("hgvq_farthest", True, "great", 11),
    ("hgvq_stride1", False, "default", 11),
    ("hgvq_stride1", True, "great", 11),
    ("hgvq_lv", False, "default", 11),
    ("hgvq_lv", True, "great", 11),
    ("hgvq_dfcm", False, "default", 11),
    ("hgvq_dfcm", True, "great", 11),
    ("hgvq_const", False, "default", 11),
    ("hgvq_const", True, "great", 11),
]


@pytest.mark.parametrize("kind,speculate,cfgname,seed", CONFIGS)
def test_kernel_matches_object_core(kind, speculate, cfgname, seed,
                                    monkeypatch):
    res = run_both(kind, speculate, cfgname, seed, monkeypatch)
    assert res["0"] == res["1"]


@pytest.mark.parametrize("kind", ["sgvq_thr0", "hgvq_thr0", "stride"])
def test_port_starved_speculation(kind, monkeypatch):
    """dcache_ports=1 + ungated speculation: ready-but-port-blocked
    entries must keep their used-speculation mark for later squashes."""
    res = run_both(kind, True, "one_port", 17, monkeypatch)
    assert res["0"] == res["1"]
    # The config must actually exercise selective reissue.
    assert res["1"][0][8] > 0 or kind == "stride"


@pytest.mark.parametrize("max_cycles", [0, 1, 7, 500])
@pytest.mark.parametrize("kind", ["sgvq", "hgvq", None])
def test_max_cycles_truncation(kind, max_cycles, monkeypatch):
    res = run_both(kind, True, "great", 11, monkeypatch,
                   max_cycles=max_cycles)
    assert res["0"] == res["1"]


def test_empty_trace(monkeypatch):
    trace = cached_trace("gzip", length=400, seed=3, code_copies=1)
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        r = OutOfOrderCore().run(trace[0:0])
        assert (r.cycles, r.retired) == (1, 0)


@pytest.mark.parametrize("kind", ["sgvq", "hgvq", "sgvq_thr0",
                                  "hgvq_thr0"])
def test_chained_runs(kind, monkeypatch):
    """Two runs over slices of one trace through one core and adapter:
    exercises warm-start queue/log state and non-pristine caches."""
    trace = cached_trace("gzip", length=LENGTH, seed=3, code_copies=1)
    snaps = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", flag)
        vp = make_vp(kind)
        core = OutOfOrderCore(config=great_latency_config(),
                              value_predictor=vp, speculate=True,
                              track_value_delay=True)
        r1 = core.run(trace[0:1500])
        r2 = core.run(trace[1500:LENGTH])
        snaps[flag] = (snap_result(r1), snap_result(r2), snap_vp(vp),
                       snap_core(core))
    assert snaps["0"] == snaps["1"]


def test_timing_memo_replay_matches(monkeypatch):
    """Several passive schemes over the *same* trace object: the first
    kernel run records the timing solution, later ones replay it.  Every
    replayed run must still match its own from-scratch object run, also
    over a view that starts mid-trace (the replay's ``retired_vp`` counts
    only the view's instructions)."""
    trace = cached_trace("gzip", length=LENGTH, seed=5, code_copies=2)
    for view in (trace, trace[1500:LENGTH]):
        for kind in (None, "stride", "dfcm", "sgvq", "hgvq", "lv"):
            ref = kernel = None
            for flag in ("0", "1"):
                monkeypatch.setenv("REPRO_KERNELS", flag)
                vp = make_vp(kind)
                core = OutOfOrderCore(value_predictor=vp,
                                      track_value_delay=True)
                r = core.run(view)
                snap = (snap_result(r), snap_vp(vp), snap_core(core))
                if flag == "0":
                    ref = snap
                else:
                    kernel = snap
            assert ref == kernel, (
                f"scheme {kind} diverged under memo replay over "
                f"[{view._start}:{view._stop}]")


def test_progress_callback_sequence(monkeypatch):
    trace = cached_trace("gzip", length=LENGTH, seed=3, code_copies=1)
    for kind in (None, "hgvq"):
        seqs = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_KERNELS", flag)
            calls = []
            core = OutOfOrderCore(value_predictor=make_vp(kind),
                                  speculate=True)
            core.run(trace,
                     on_progress=lambda done, tot: calls.append((done, tot)),
                     progress_every=500)
            seqs[flag] = calls
        assert seqs["0"] == seqs["1"]


def test_declines(monkeypatch):
    """Unmodelled shapes return None without mutating anything."""
    from repro.pipeline.kernels import run_fast
    from repro.telemetry import MetricsRegistry
    from repro.trace.workloads import get

    monkeypatch.setenv("REPRO_KERNELS", "1")
    packed = cached_trace("gzip", length=400, seed=3, code_copies=1)
    obj_trace = list(get("gzip").trace(400))
    assert run_fast(OutOfOrderCore(), obj_trace) is None
    assert run_fast(OutOfOrderCore(metrics=MetricsRegistry()),
                    packed) is None

    class Sub(OutOfOrderCore):
        pass

    assert run_fast(Sub(), packed) is None
    monkeypatch.setenv("REPRO_KERNELS", "0")
    assert run_fast(OutOfOrderCore(), packed) is None


def test_kernel_enabled_by_default(monkeypatch):
    from repro.pipeline.kernels import kernels_enabled
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert kernels_enabled()
