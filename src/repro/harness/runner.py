"""Trace-driven predictor evaluation.

These runners implement the paper's *profile* methodology (Sections 2-3 and
6): walk the committed instruction stream in program order, offer each
relevant instruction to every predictor at its "dispatch", and train with
the actual outcome at its "write-back" — which, in a profile run, happens
immediately.  Pipeline-timed evaluation (value delay, SGVQ, HGVQ, IPC)
lives in :mod:`repro.pipeline`.

Fast path: every trace source returns a
:class:`~repro.trace.packed.PackedTrace`, which exposes its
value-producing ``(pc, value)`` (and load ``(pc, addr)``) streams as
precomputed columns, so an un-instrumented profile run walks two flat
arrays per predictor instead of dereferencing one dataclass per dynamic
instruction.  Predictors with a fused kernel (see
:mod:`repro.core.kernels`) skip even the per-pair predict/update calls;
the rest use the tight per-predictor loops below.  All fast paths perform
*identical* accounting to the generic loop — same
:class:`PredictionStats` to the last counter (asserted by
``tests/test_packed.py`` and ``tests/test_kernel_equivalence.py``).  The
generic loop walks ``Instruction`` objects: it runs whenever telemetry,
events or progress callbacks need per-instruction interleaving, and for a
plain ``list`` of instructions, the reference the equivalence tests
compare the fast paths against.  ``REPRO_KERNELS=0`` forces the
non-kernel loops.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.kernels import run_pairs as _kernel_pairs
from ..predictors.base import PredictionStats, ValuePredictor
from ..predictors.confidence import ConfidenceTable
from ..predictors.markov import MarkovPredictor
from ..trace.isa import Instruction, OpClass
from ..trace.packed import PackedTrace

#: Value-producing instructions per windowed-accuracy sample
#: (``harness.window_accuracy.*`` series).
DEFAULT_WINDOW = 8192


def _profile_pairs(predictor: ValuePredictor, pcs, values,
                   stats: PredictionStats) -> None:
    """Tight un-gated profile loop over packed ``(pc, value)`` columns.

    Runs one predictor over the whole stream with its methods bound once
    and the accounting held in locals; predictors are self-contained, so
    per-predictor passes see exactly the state they would interleaved.
    """
    predict = predictor.predict
    update = predictor.update
    predictions = 0
    correct = 0
    for pc, actual in zip(pcs, values):
        predicted = predict(pc)
        if predicted is not None:
            predictions += 1
            if predicted == actual:
                correct += 1
        update(pc, actual)
    stats.attempts += len(pcs)
    stats.predictions += predictions
    stats.correct += correct


def run_value_prediction(
    trace: Iterable[Instruction],
    predictors: Mapping[str, ValuePredictor],
    gated: bool = False,
    *,
    metrics=None,
    events=None,
    window: int = DEFAULT_WINDOW,
    on_progress: Optional[Callable[[int, Optional[int]], None]] = None,
    progress_every: int = 8192,
    total: Optional[int] = None,
) -> Dict[str, PredictionStats]:
    """Run predictors over the value stream of *trace*.

    Every value-producing instruction is offered to every predictor:
    ``predict(pc)`` first, then ``update(pc, value)``.  With ``gated`` a
    fresh 3-bit confidence table (the paper's +2/−1, threshold-4 policy)
    accompanies each predictor and the gated accuracy/coverage fields of
    the returned stats are populated.

    Telemetry (all optional; the un-instrumented loop is unchanged beyond
    ``is not None`` guards):

    * *metrics*: a :class:`~repro.telemetry.MetricsRegistry`.  Publishes
      the ``harness.window_accuracy.<name>`` series (raw accuracy per
      *window* value instructions; plus ``harness.window_coverage.<name>``
      when gated) and, when gated, the confidence-gate transition counters
      ``harness.confidence_gained.<name>`` / ``harness.confidence_lost.<name>``.
    * *events*: an :class:`~repro.telemetry.EventRecorder`; each
      (instruction, predictor) outcome is offered as a structured event
      with pc / predicted / actual / confidence / matched GVQ distance.
    * *on_progress*: ``(instructions_processed, total)`` callback fired
      every *progress_every* instructions; *total* defaults to
      ``len(trace)`` when available.

    Returns:
        {predictor name: PredictionStats}.
    """
    stats = {name: PredictionStats() for name in predictors}
    if (metrics is None and events is None and on_progress is None
            and hasattr(trace, "value_pairs")):
        pcs, values = trace.value_pairs()
        if not gated:
            for name, predictor in predictors.items():
                if not _kernel_pairs(predictor, pcs, values, stats[name]):
                    _profile_pairs(predictor, pcs, values, stats[name])
            return stats
        for name, predictor in predictors.items():
            conf = ConfidenceTable()
            if not _kernel_pairs(predictor, pcs, values, stats[name], conf):
                _gated_pairs(predictor, conf, pcs, values, stats[name])
        return stats
    confidence = {name: ConfidenceTable() if gated else None for name in predictors}
    # Per-predictor memo of each confidence slot's current gate state:
    # ConfidenceTable.train returns the post-train state, so the gate is
    # probed at most once per slot for its whole lifetime instead of twice
    # per (instruction, predictor).
    conf_state: Dict[str, Dict[int, bool]] = {name: {} for name in predictors}
    items = list(predictors.items())
    if total is None and hasattr(trace, "__len__"):
        total = len(trace)
    track = metrics is not None
    if track:
        acc_series = {
            name: metrics.series_of(f"harness.window_accuracy.{name}")
            for name in predictors
        }
        cov_series = {
            name: metrics.series_of(f"harness.window_coverage.{name}")
            for name in predictors
        } if gated else {}
        gained = {
            name: metrics.counter(f"harness.confidence_gained.{name}")
            for name in predictors
        } if gated else {}
        lost = {
            name: metrics.counter(f"harness.confidence_lost.{name}")
            for name in predictors
        } if gated else {}
        win_correct = dict.fromkeys(predictors, 0)
        win_confident = dict.fromkeys(predictors, 0)
        win_attempts = 0
        value_instructions = metrics.counter("harness.value_instructions")
    processed = 0
    for insn in trace:
        processed += 1
        if on_progress is not None and processed % progress_every == 0:
            on_progress(processed, total)
        if not insn.produces_value:
            continue
        pc, actual = insn.pc, insn.value
        for name, predictor in items:
            predicted = predictor.predict(pc)
            conf = confidence[name]
            if conf is not None:
                state = conf_state[name]
                slot = conf.index(pc)
                confident_now = state.get(slot)
                if confident_now is None:
                    confident_now = conf.is_confident(pc)
                    state[slot] = confident_now
                is_confident = predicted is not None and confident_now
                correct = stats[name].record(predicted, actual, is_confident)
                if predicted is not None:
                    confident_after = conf.train(pc, predicted == actual)
                    state[slot] = confident_after
                    if track and confident_after != confident_now:
                        (gained if not confident_now else lost)[name].inc()
            else:
                is_confident = False
                correct = stats[name].record(predicted, actual)
            predictor.update(pc, actual)
            if events is not None and events.want():
                events.push({
                    "i": processed - 1,
                    "pc": pc,
                    "predictor": name,
                    "predicted": predicted,
                    "actual": actual,
                    "correct": correct,
                    "confident": is_confident if gated else None,
                    "distance": getattr(predictor, "last_distance", None),
                })
            if track:
                if correct:
                    win_correct[name] += 1
                if is_confident:
                    win_confident[name] += 1
        if track:
            win_attempts += 1
            if win_attempts >= window:
                for name in stats:
                    acc_series[name].append(win_correct[name] / win_attempts)
                    win_correct[name] = 0
                    if gated:
                        cov_series[name].append(
                            win_confident[name] / win_attempts)
                        win_confident[name] = 0
                win_attempts = 0
    if track and stats:
        value_instructions.inc(next(iter(stats.values())).attempts)
    if on_progress is not None:
        on_progress(processed, total)
    return stats


def _gated_pairs(predictor: ValuePredictor, conf: ConfidenceTable,
                 pcs, values, stats: PredictionStats) -> None:
    """Tight confidence-gated loop over packed ``(pc, value)`` columns.

    The single-predictor form of the generic gated loop (same memoised
    gate state, same record/train interleaving); also the Section 6 loop
    for PC-indexed address predictors.
    """
    update = predictor.update
    record = stats.record
    predict = predictor.predict
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
        record(predicted, actual, predicted is not None and confident_now)
        if predicted is not None:
            confident_now = train(pc, predicted == actual)
        state[slot] = confident_now
        update(pc, actual)


def _address_pairs(predictor: ValuePredictor, conf: Optional[ConfidenceTable],
                   pcs, addrs, stats: PredictionStats) -> None:
    """Tight Section 6 loop over packed load ``(pc, addr)`` columns."""
    if conf is not None:
        _gated_pairs(predictor, conf, pcs, addrs, stats)
        return
    update = predictor.update
    record = stats.record
    predict_confident = predictor.predict_confident
    for pc, actual in zip(pcs, addrs):
        predicted, is_confident = predict_confident(pc)
        record(predicted, actual, is_confident)
        update(pc, actual)


def run_address_prediction(
    trace: Iterable[Instruction],
    predictors: Mapping[str, ValuePredictor],
    miss_filter=None,
) -> Dict[str, PredictionStats]:
    """Run predictors over the load-address stream (Section 6).

    Only load instructions participate; the predicted quantity is the
    effective address.  PC-indexed predictors are gated by the 3-bit
    confidence mechanism; a :class:`MarkovPredictor` gates by tag match
    (its ``predict_confident``), as the paper specifies.

    Args:
        trace: instruction stream.
        predictors: {name: predictor}.
        miss_filter: optional callable ``(insn) -> bool``; when given, the
            run is restricted to loads for which it returns True (used with
            a D-cache model to evaluate *missing* loads only — the
            predictors then see, learn from, and are scored on exactly the
            miss-address stream, the stream a prefetcher would act on).
            It is called once per load, in trace order, on that load's
            :class:`Instruction`, whatever the trace type; the filter is
            usually stateful.  On a packed trace only the load positions
            are built as instructions, and the ``(pc, addr)`` pairs the
            filter keeps run through the same column loops as an
            unfiltered run.

    Returns:
        {predictor name: PredictionStats}.
    """
    stats = {name: PredictionStats() for name in predictors}
    confidence = {
        name: None if isinstance(p, MarkovPredictor) else ConfidenceTable()
        for name, p in predictors.items()
    }
    if hasattr(trace, "load_pairs"):
        if miss_filter is None:
            pcs, addrs = trace.load_pairs()
        else:
            pcs, addrs = [], []
            for insn in trace.loads():
                if miss_filter(insn):
                    pcs.append(insn.pc)
                    addrs.append(insn.addr)
        for name, predictor in predictors.items():
            conf = confidence[name]
            if conf is None or not _kernel_pairs(predictor, pcs, addrs,
                                                 stats[name], conf):
                _address_pairs(predictor, conf, pcs, addrs, stats[name])
        return stats
    items = list(predictors.items())
    for insn in trace:
        if insn.op is not OpClass.LOAD:
            continue
        if miss_filter is not None and not miss_filter(insn):
            continue
        pc, actual = insn.pc, insn.addr
        for name, predictor in items:
            conf = confidence[name]
            if conf is None:
                predicted, is_confident = predictor.predict_confident(pc)
            else:
                predicted = predictor.predict(pc)
                is_confident = predicted is not None and conf.is_confident(pc)
            stats[name].record(predicted, actual, is_confident)
            if conf is not None and predicted is not None:
                conf.train(pc, predicted == actual)
            predictor.update(pc, actual)
    return stats


def warm_then_measure(
    trace_factory,
    predictors: Mapping[str, ValuePredictor],
    warmup: int,
    measure: int,
    gated: bool = False,
) -> Dict[str, PredictionStats]:
    """Skip-then-measure evaluation mirroring the paper's fast-forwarding.

    The paper skips 200M-500M instructions before measuring; we warm the
    predictors on the first *warmup* instructions (training but not
    scoring) and report statistics over the next *measure* instructions.
    Each phase is packed as it is reached, so both run on the packed fast
    paths, only one phase's columns are held at a time, and arbitrarily
    long (even endless) workload generators are fine.

    Args:
        trace_factory: callable returning an instruction iterator, or an
            already-materialised instruction iterable (e.g. a
            :class:`~repro.trace.packed.PackedTrace`), which is split
            into the two phases in order.
    """
    stream = iter(trace_factory() if callable(trace_factory) else trace_factory)
    warm = PackedTrace.from_instructions(itertools.islice(stream, warmup))
    run_value_prediction(warm, predictors, gated=False)
    measured = PackedTrace.from_instructions(itertools.islice(stream, measure))
    return run_value_prediction(measured, predictors, gated=gated)
