"""Per-stream predictor state and the LRU stream manager.

A serve shard hosts many concurrent value streams, each with its own
predictor instance, optional confidence gate, and
:class:`~repro.predictors.base.PredictionStats`.  Two invariants drive
everything here:

* **Serve equals batch.**  A stream's PREDICT_TRAIN path performs
  *exactly* the accounting of the batch harness
  (:func:`repro.harness.runner.run_value_prediction` over packed
  columns): the fused kernels from :mod:`repro.core.kernels` when they
  model the predictor, the same tight fallback loops otherwise.  Feeding
  the same ``(pc, value)`` pairs through any number of serve frames
  yields the same ``PredictionStats`` — and the same predictor state —
  as one uninterrupted batch run (asserted by ``tests/test_serve.py``
  and ``benchmarks/bench_serve.py``).
* **Bounded residency.**  The manager is a true LRU over stream ids: a
  touch refreshes recency, inserting past ``max_streams`` evicts the
  least recently used stream through the snapshot spool
  (:mod:`repro.serve.snapshot`), and the next touch of an evicted stream
  restores it transparently — bit-identically, including across the
  evict→restore cycle.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.gdiff import GDiffPredictor
from ..core.hybrid import HybridGDiffPredictor
from ..core.kernels import run_pairs
from ..harness.runner import _gated_pairs, _profile_pairs
from ..predictors.base import PredictionStats, ValuePredictor
from ..predictors.confidence import ConfidenceTable
from ..predictors.dfcm import DFCMPredictor
from ..predictors.last_value import LastValuePredictor
from ..predictors.stride import StridePredictor
from ..trace.packed import pc_groups
from .snapshot import (
    SnapshotError,
    discard,
    dump_stream,
    load_stream,
    snapshot_path,
)

#: Predictor specs a client can name in a frame.  Bounded tables
#: throughout — a long-lived service must not grow per-stream state
#: without bound the way the unlimited profile tables do.
SERVE_PREDICTORS: Dict[str, Callable[[], ValuePredictor]] = {
    "last-value": lambda: LastValuePredictor(entries=8192),
    "stride": lambda: StridePredictor(entries=8192),
    "dfcm": lambda: DFCMPredictor(l1_entries=8192),
    "gdiff8": lambda: GDiffPredictor(order=8, entries=8192),
    "gdiff32": lambda: GDiffPredictor(order=32, entries=8192),
    "hgvq": lambda: HybridGDiffPredictor(order=32, entries=8192),
}

#: Spec used when a creating frame names none.
DEFAULT_PREDICTOR = "gdiff32"

#: Default resident-stream bound per shard (``REPRO_SERVE_STREAMS``).
DEFAULT_MAX_STREAMS = 256


class StreamError(ValueError):
    """A per-stream request cannot be honoured (unknown predictor spec,
    spec/gating mismatch with existing stream state)."""


class StreamRecord:
    """One resident stream: predictor + gate + running stats."""

    __slots__ = ("sid", "spec", "gated", "predictor", "conf", "stats")

    def __init__(self, sid: str, spec: str, gated: bool,
                 predictor: ValuePredictor,
                 conf: Optional[ConfidenceTable],
                 stats: PredictionStats) -> None:
        self.sid = sid
        self.spec = spec
        self.gated = gated
        self.predictor = predictor
        self.conf = conf
        self.stats = stats

    # -- request bodies ---------------------------------------------------
    def probe(self, pcs) -> List[Optional[int]]:
        """Per-event predictions without mutating any state.

        The HGVQ predictor's ``predict`` allocates a queue slot (it is a
        dispatch), so probing goes through its read-only window lookup
        instead; every other predictor's ``predict`` is already pure.
        """
        predictor = self.predictor
        if isinstance(predictor, HybridGDiffPredictor):
            seq = predictor.queue.total_allocated
            return [predictor._predict_at(pc, seq) for pc in pcs]
        predict = predictor.predict
        return [predict(pc) for pc in pcs]

    def train(self, pcs, values) -> int:
        """Update-only pass (no prediction, no stats)."""
        update = self.predictor.update
        for pc, value in zip(pcs, values):
            update(pc, value)
        return len(pcs)

    def predict_train(self, pcs, values, want_values: bool = False
                      ) -> Tuple[Tuple[int, ...], Optional[List[Optional[int]]]]:
        """The batch-harness profile loop over one frame's columns.

        Returns ``(stats_delta, predictions)`` where *stats_delta* is the
        frame's contribution to the 5 ``PredictionStats`` counters and
        *predictions* is per-event output when *want_values* (the slow
        path — it forgoes the fused kernels).
        """
        stats = self.stats
        before = (stats.attempts, stats.predictions, stats.correct,
                  stats.confident, stats.confident_correct)
        predictions: Optional[List[Optional[int]]] = None
        if want_values:
            predictions = self._pairs_with_values(pcs, values)
        elif self.conf is not None:
            if not run_pairs(self.predictor, pcs, values, stats, self.conf):
                _gated_pairs(self.predictor, self.conf, pcs, values, stats)
        else:
            if not run_pairs(self.predictor, pcs, values, stats):
                _profile_pairs(self.predictor, pcs, values, stats)
        delta = (stats.attempts - before[0],
                 stats.predictions - before[1],
                 stats.correct - before[2],
                 stats.confident - before[3],
                 stats.confident_correct - before[4])
        return delta, predictions

    def _pairs_with_values(self, pcs, values) -> List[Optional[int]]:
        """Object loop mirroring the harness accounting while collecting
        each event's prediction (``_profile_pairs``/``_gated_pairs`` with
        the predictions kept)."""
        predictor = self.predictor
        stats = self.stats
        conf = self.conf
        out: List[Optional[int]] = []
        predict = predictor.predict
        update = predictor.update
        record = stats.record
        if conf is None:
            for pc, actual in zip(pcs, values):
                predicted = predict(pc)
                record(predicted, actual)
                update(pc, actual)
                out.append(predicted)
            return out
        train = conf.train
        index = conf.index
        is_conf = conf.is_confident
        state: Dict[int, bool] = {}
        for pc, actual in zip(pcs, values):
            predicted = predict(pc)
            slot = index(pc)
            confident_now = state.get(slot)
            if confident_now is None:
                confident_now = is_conf(pc)
            record(predicted, actual,
                   predicted is not None and confident_now)
            if predicted is not None:
                confident_now = train(pc, predicted == actual)
            state[slot] = confident_now
            update(pc, actual)
            out.append(predicted)
        return out

    def stats_tuple(self) -> Tuple[int, ...]:
        stats = self.stats
        return (stats.attempts, stats.predictions, stats.correct,
                stats.confident, stats.confident_correct)


def max_streams_from_env() -> int:
    raw = os.environ.get("REPRO_SERVE_STREAMS", "").strip()
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_STREAMS
    return value if value > 0 else DEFAULT_MAX_STREAMS


def spool_from_env() -> Optional[str]:
    return os.environ.get("REPRO_SERVE_SPOOL") or None


class StreamManager:
    """LRU-bounded resident streams with transparent spill/restore.

    Args:
        max_streams: resident bound; inserting past it evicts LRU
            streams through the spool.
        spool: snapshot directory; ``None`` disables persistence (an
            evicted stream restarts fresh — counted, never silent).
    """

    def __init__(self, max_streams: Optional[int] = None,
                 spool: Optional[str] = None) -> None:
        self.max_streams = max_streams or max_streams_from_env()
        self.spool = spool if spool is not None else spool_from_env()
        self._streams: "OrderedDict[str, StreamRecord]" = OrderedDict()
        #: Telemetry deltas drained per batch by the shard servant.
        self.counters: Dict[str, int] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self._streams)

    def resident(self, sid: str) -> bool:
        return sid in self._streams

    def drain_counters(self) -> Dict[str, int]:
        drained, self.counters = self.counters, {}
        drained["streams"] = len(self._streams)
        return drained

    # -- the core operation ----------------------------------------------
    def touch(self, sid: str, spec: str = "",
              gated: Optional[bool] = None) -> StreamRecord:
        """Return the stream's record, restoring or creating as needed.

        *spec* and *gated* describe what the request expects; an existing
        (resident or snapshotted) stream with a different predictor spec
        or gating raises :class:`StreamError` rather than silently
        serving divergent state.  ``gated=None`` skips the gating check
        (ops where gating is irrelevant).
        """
        record = self._streams.get(sid)
        if record is None:
            record = self._restore(sid)
        if record is not None:
            self._streams.move_to_end(sid)
            if spec and record.spec != spec:
                raise StreamError(
                    f"stream {sid!r} runs predictor {record.spec!r}, "
                    f"request names {spec!r}")
            if gated is not None and record.gated != gated:
                raise StreamError(
                    f"stream {sid!r} is {'gated' if record.gated else 'ungated'}, "
                    "request disagrees")
            return record
        return self._create(sid, spec or DEFAULT_PREDICTOR,
                            bool(gated))

    def _create(self, sid: str, spec: str, gated: bool) -> StreamRecord:
        factory = SERVE_PREDICTORS.get(spec)
        if factory is None:
            raise StreamError(
                f"unknown predictor {spec!r}; choose from "
                f"{sorted(SERVE_PREDICTORS)}")
        record = StreamRecord(sid, spec, gated, factory(),
                              ConfidenceTable() if gated else None,
                              PredictionStats())
        self._count("creates")
        self._insert(record)
        return record

    def _restore(self, sid: str) -> Optional[StreamRecord]:
        if self.spool is None:
            return None
        path = snapshot_path(self.spool, sid)
        if not path.exists():
            return None
        try:
            spec, gated, predictor, conf, stats = load_stream(path)
        except SnapshotError:
            self._count("snapshot_invalid")
            discard(path)
            return None
        record = StreamRecord(sid, spec, gated, predictor, conf, stats)
        self._count("restores")
        self._insert(record)
        return record

    def _insert(self, record: StreamRecord) -> None:
        self._streams[record.sid] = record
        while len(self._streams) > self.max_streams:
            _sid, victim = self._streams.popitem(last=False)
            self._spill(victim)
            self._count("evictions")

    def _spill(self, record: StreamRecord) -> int:
        if self.spool is None:
            self._count("dropped")
            return 0
        nbytes = dump_stream(snapshot_path(self.spool, record.sid),
                             record.spec, record.gated, record.predictor,
                             record.conf, record.stats)
        self._count("snapshot_bytes", nbytes)
        return nbytes

    # -- explicit ops -----------------------------------------------------
    def snapshot(self, sid: str) -> Tuple[bool, int]:
        """Persist *sid* to the spool, leaving it resident.

        Returns ``(existed, bytes_written)``; a stream that is neither
        resident nor snapshotted reports ``existed=False``.
        """
        record = self._streams.get(sid)
        if record is None:
            if self.spool is not None \
                    and snapshot_path(self.spool, sid).exists():
                return True, 0  # already spooled, nothing resident to add
            return False, 0
        return True, self._spill(record)

    def evict(self, sid: str) -> Tuple[bool, int]:
        """Snapshot (when spooling) and drop *sid*'s resident state."""
        record = self._streams.pop(sid, None)
        if record is None:
            return False, 0
        nbytes = self._spill(record)
        self._count("evictions")
        return True, nbytes


class PairColumns:
    """Minimal packed-trace stand-in: ``(pc, value)`` columns only.

    Quacks enough like :class:`~repro.trace.packed.PackedTrace` for
    :func:`repro.harness.runner.run_value_prediction`'s fast path, so the
    serve-vs-batch identity checks drive the *real* batch harness over
    the exact pairs a client streamed.
    """

    def __init__(self, pcs, values) -> None:
        self._pcs = pcs
        self._values = values

    def value_pairs(self):
        return self._pcs, self._values

    def value_groups(self):
        return pc_groups(self._pcs)

    def __len__(self) -> int:
        return len(self._pcs)


def batch_reference_stats(spec: str, gated: bool, pcs, values
                          ) -> PredictionStats:
    """What the batch harness computes for one stream's whole pair
    sequence — the reference side of every serve-vs-batch identity
    check."""
    from ..harness.runner import run_value_prediction

    predictor = SERVE_PREDICTORS[spec]()
    stats = run_value_prediction(PairColumns(pcs, values),
                                 {spec: predictor}, gated=gated)
    return stats[spec]


def clear_spool(spool: str) -> int:
    """Delete every snapshot under *spool*; returns the count removed."""
    root = Path(spool)
    if not root.is_dir():
        return 0
    removed = 0
    for path in root.glob("*.rps"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
