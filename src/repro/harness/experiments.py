"""The experiment registry: one function per table/figure in the paper.

Each function regenerates the rows/series of one evaluation artefact and
returns an :class:`~repro.harness.report.ExperimentResult`.  Trace lengths
default to values that run in seconds per benchmark; the paper's absolute
numbers came from 500M-1B instruction SimpleScalar runs, so magnitudes are
compared by *shape* (see EXPERIMENTS.md).

Registry:

=========  ==================================================================
fig8       Profile prediction accuracy: local stride vs DFCM vs gDiff(q=8)
fig9       Prediction-table aliasing vs table size
fig10      gDiff accuracy vs value delay T
fig12      Value-delay distribution in the OOO pipeline (vortex)
fig13      gDiff + SGVQ vs local stride (pipeline, confidence-gated)
fig16      gDiff + HGVQ vs local stride vs local context (pipeline)
fig18      Load-address predictability (all loads, and missing loads only)
table2     Baseline IPC of the 4-wide, 64-entry-window machine
fig19      Speedup from value speculation with selective reissue
=========  ==================================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..analysis.stats import harmonic_mean_speedup, mean
from ..core.gdiff import GDiffPredictor
from ..pipeline.config import ProcessorConfig
from ..pipeline.cache import Cache
from ..pipeline.ooo import OutOfOrderCore
from ..pipeline.vp import (
    HGVQAdapter,
    LocalPredictorAdapter,
    PipelinePredictor,
    SGVQAdapter,
)
from ..predictors.dfcm import DFCMPredictor
from ..predictors.markov import MarkovPredictor
from ..predictors.stride import StridePredictor
from ..trace.cache import cached_trace
from ..trace.workloads import BENCHMARKS
from .report import ExperimentResult
from .runner import run_address_prediction, run_value_prediction

#: Default trace length (instructions) per benchmark for profile studies.
PROFILE_LENGTH = 100_000
#: Default trace length for pipeline (cycle-level) studies.
PIPELINE_LENGTH = 50_000
#: Static-code scale for pipeline studies: each kernel's PCs rotate over
#: this many copies, approximating paper-scale code bodies.  Matters for
#: predictor warm-up and table pressure (DFCM's two-level structure warms
#: slowest, which is why its coverage trails — Section 7's observation).
PIPELINE_COPIES = 4

#: The Section 7 machine: the paper evaluates value speculation on "an
#: aggressive machine model ... similar to the great latency model
#: described in [24]" (Sazeides, HPCA-8), which lengthens operation
#: latencies so data dependencies — the thing value prediction breaks —
#: dominate the baseline.  We lengthen ALU and cache-hit latencies
#: accordingly for the speedup study (Figure 19) and its baseline
#: (Table 2).
def great_latency_config() -> ProcessorConfig:
    return ProcessorConfig(
        ialu_latency=2,
        dcache_hit_latency=4,
        pipe_overhead=2,
    )


# ---------------------------------------------------------------------------
# Figure 8 — profile prediction accuracy
# ---------------------------------------------------------------------------
def fig8(length: int = PROFILE_LENGTH,
         benchmarks: Optional[List[str]] = None) -> ExperimentResult:
    """Value prediction accuracy, unlimited tables, retire-order history.

    Paper: local stride 57%, DFCM 64%, gDiff(q=8) 73% on average; mcf is
    gDiff's best (86%); gap is hard for everyone (~40%).
    """
    result = ExperimentResult(
        name="fig8",
        title="profile prediction accuracy (unlimited tables)",
        columns=["bench", "stride", "dfcm", "gdiff8"],
        kinds={"stride": "rate", "dfcm": "rate", "gdiff8": "rate"},
        notes=["paper averages: stride 57%, DFCM 64%, gdiff(q=8) 73%"],
    )
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length)
        predictors = {
            "stride": StridePredictor(entries=None),
            "dfcm": DFCMPredictor(order=4, l1_entries=None),
            "gdiff8": GDiffPredictor(order=8, entries=None),
        }
        stats = run_value_prediction(trace, predictors)
        result.add_row(bench, *(stats[k].raw_accuracy
                                for k in ("stride", "dfcm", "gdiff8")))
    result.add_row("average",
                   *(mean(result.column(c))
                     for c in ("stride", "dfcm", "gdiff8")))
    return result


# ---------------------------------------------------------------------------
# Figure 9 — aliasing vs prediction-table size
# ---------------------------------------------------------------------------
FIG9_TABLE_SIZES = [None, 65536, 32768, 16384, 8192, 4096, 2048]


def fig9(length: int = PROFILE_LENGTH,
         benchmarks: Optional[List[str]] = None,
         code_copies: int = 8) -> ExperimentResult:
    """Conflict (aliasing) rate of the gDiff table across sizes.

    Paper: an 8K-entry tagless table loses <1% accuracy vs infinite; 2K
    shows conflict rates up to ~25%.  Synthetic code bodies are small, so
    ``code_copies`` replicates static PCs to paper-scale code sizes.
    """
    labels = ["inf" if s is None else f"{s // 1024}K" for s in FIG9_TABLE_SIZES]
    result = ExperimentResult(
        name="fig9",
        title="gDiff table aliasing (conflict rate) vs table size",
        columns=["bench"] + labels,
        kinds={label: "rate" for label in labels},
        notes=["paper: 8K entries within ~1% of infinite; conflicts grow "
               "sharply below 8K"],
    )
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length, code_copies=code_copies)
        row = []
        for size in FIG9_TABLE_SIZES:
            predictor = GDiffPredictor(order=8, entries=size,
                                       track_conflicts=True)
            run_value_prediction(trace, {"gdiff": predictor})
            row.append(predictor.conflict_rate)
        result.add_row(bench, *row)
    result.add_row(
        "average",
        *(mean(result.column(label)) for label in labels),
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — value delay sensitivity
# ---------------------------------------------------------------------------
FIG10_DELAYS = [0, 2, 4, 8, 16]


def fig10(length: int = PROFILE_LENGTH,
          benchmarks: Optional[List[str]] = None,
          order: int = 8) -> ExperimentResult:
    """gDiff profile accuracy as the value delay T grows.

    Paper: average accuracy falls from 73% (T=0) to 52% (T=16); gap is the
    noted exception (its best accuracy is not at T=0).
    """
    labels = [f"T={t}" for t in FIG10_DELAYS]
    result = ExperimentResult(
        name="fig10",
        title=f"gDiff(q={order}) accuracy vs value delay",
        columns=["bench"] + labels,
        kinds={label: "rate" for label in labels},
        notes=["paper: average 73% at T=0 falling to 52% at T=16"],
    )
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length)
        row = []
        for delay in FIG10_DELAYS:
            predictor = GDiffPredictor(order=order, entries=None, delay=delay)
            stats = run_value_prediction(trace, {"gdiff": predictor})
            row.append(stats["gdiff"].raw_accuracy)
        result.add_row(bench, *row)
    result.add_row("average", *(mean(result.column(c)) for c in labels))
    return result


# ---------------------------------------------------------------------------
# Figure 12 — pipeline value-delay distribution
# ---------------------------------------------------------------------------
def fig12(length: int = PIPELINE_LENGTH,
          bench: str = "vortex",
          max_delay: int = 20) -> ExperimentResult:
    """Distribution of value delays measured in the OOO pipeline.

    Paper (vortex): most delays are small, average ~5 — the observation
    motivating speculative (pre-retire) GVQ updates.
    """
    core = OutOfOrderCore(track_value_delay=True)
    sim = core.run(cached_trace(bench, length, code_copies=PIPELINE_COPIES))
    histogram = sim.value_delay_histogram
    total = sum(histogram.values()) or 1
    result = ExperimentResult(
        name="fig12",
        title=f"value delay distribution ({bench})",
        columns=["delay", "fraction"],
        kinds={"fraction": "rate"},
        notes=[f"mean value delay = {sim.mean_value_delay():.2f} "
               "(paper: ~5 for vortex)"],
    )
    for delay in range(max_delay + 1):
        result.add_row(str(delay), histogram.get(delay, 0) / total)
    tail = sum(n for d, n in histogram.items() if d > max_delay)
    result.add_row(f">{max_delay}", tail / total)
    return result


# ---------------------------------------------------------------------------
# Figures 13 and 16 — pipeline prediction capability
# ---------------------------------------------------------------------------
def _pipeline_capability(
    name: str,
    title: str,
    adapters: Dict[str, Callable[[], PipelinePredictor]],
    length: int,
    benchmarks: Optional[List[str]],
    notes: List[str],
) -> ExperimentResult:
    """Shared driver: run each adapter passively through the OOO core."""
    columns = ["bench"]
    for adapter_name in adapters:
        columns += [f"{adapter_name}_acc", f"{adapter_name}_cov"]
    result = ExperimentResult(name=name, title=title, columns=columns,
                              kinds={c: "rate" for c in columns[1:]},
                              notes=notes)
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length, code_copies=PIPELINE_COPIES)
        row: List[float] = []
        for factory in adapters.values():
            adapter = factory()
            core = OutOfOrderCore(value_predictor=adapter, speculate=False)
            core.run(trace)
            row += [adapter.stats.accuracy, adapter.stats.coverage]
        result.add_row(bench, *row)
    result.add_row(
        "average",
        *(mean(result.column(c)) for c in columns[1:]),
    )
    return result


def fig13(length: int = PIPELINE_LENGTH,
          benchmarks: Optional[List[str]] = None) -> ExperimentResult:
    """gDiff over the speculative GVQ vs the local stride predictor.

    Paper: execution variation hurts the SGVQ badly — gDiff 74% accuracy /
    49% coverage vs local stride 89% / 55%.
    """
    return _pipeline_capability(
        "fig13",
        "gDiff + SGVQ vs local stride (OOO pipeline, 3-bit confidence)",
        {
            "gdiff_sgvq": lambda: SGVQAdapter(order=32, entries=8192),
            "l_stride": lambda: LocalPredictorAdapter(
                StridePredictor(entries=8192)),
        },
        length,
        benchmarks,
        ["paper: sgvq 74%/49% vs local stride 89%/55% — the SGVQ loses to "
         "the local predictor, motivating the hybrid queue"],
    )


def fig16(length: int = PIPELINE_LENGTH,
          benchmarks: Optional[List[str]] = None) -> ExperimentResult:
    """The headline result: gDiff + HGVQ vs local stride vs local context.

    Paper: gDiff(HGVQ, q=32) reaches 91% accuracy / 64% coverage vs local
    stride 89% / 55%; the local context predictor (DFCM) has comparable
    accuracy but the smallest coverage.
    """
    return _pipeline_capability(
        "fig16",
        "gDiff + HGVQ vs local stride vs local context (OOO pipeline)",
        {
            "gdiff_hgvq": lambda: HGVQAdapter(order=32, entries=8192),
            "l_stride": lambda: LocalPredictorAdapter(
                StridePredictor(entries=8192)),
            "l_context": lambda: LocalPredictorAdapter(
                DFCMPredictor(order=4, l1_entries=8192)),
        },
        length,
        benchmarks,
        ["paper: hgvq 91%/64%, local stride 89%/55%, local context lowest "
         "coverage"],
    )


# ---------------------------------------------------------------------------
# Figure 18 — load-address prediction
# ---------------------------------------------------------------------------
def fig18(length: int = PROFILE_LENGTH,
          benchmarks: Optional[List[str]] = None,
          missing_only: bool = False,
          markov_entries: int = 262144) -> ExperimentResult:
    """Load-address predictability (Section 6).

    gDiff and local stride use 4K-entry tagless tables; the first-order
    Markov predictor uses a 4-way 256K-entry tagged table (gated by tag
    match).  With ``missing_only`` the evaluation is restricted to loads
    that miss a Table 1 D-cache (Figure 18b).

    Paper (all loads): gdiff 86%/63%, local stride 86%/55%, Markov
    33%/87%.  Missing loads: gdiff 53%/33%, local stride 55%/25%, Markov
    20%/69%.
    """
    suffix = "b (missing loads)" if missing_only else "a (all loads)"
    result = ExperimentResult(
        name="fig18" + ("b" if missing_only else "a"),
        title=f"load-address predictability, Figure 18{suffix}",
        columns=["bench", "ls_acc", "ls_cov", "gs_acc", "gs_cov",
                 "markov_acc", "markov_cov"],
        kinds={c: "rate" for c in ("ls_acc", "ls_cov", "gs_acc", "gs_cov",
                                   "markov_acc", "markov_cov")},
        notes=["paper (all loads): gs 86%/63% vs ls 86%/55% vs markov "
               "33%/87%",
               "paper (missing): gs 53%/33% vs ls 55%/25% vs markov "
               "20%/69%"],
    )
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length)
        predictors = {
            "ls": StridePredictor(entries=4096),
            "gs": GDiffPredictor(order=32, entries=4096),
            "markov": MarkovPredictor(entries=markov_entries, ways=4),
        }
        miss_filter = None
        if missing_only:
            dcache = Cache(ProcessorConfig().dcache)
            miss_filter = lambda insn: not dcache.access(insn.addr)
        stats = run_address_prediction(trace, predictors,
                                       miss_filter=miss_filter)
        result.add_row(
            bench,
            stats["ls"].accuracy, stats["ls"].coverage,
            stats["gs"].accuracy, stats["gs"].coverage,
            stats["markov"].accuracy, stats["markov"].coverage,
        )
    result.add_row(
        "average",
        *(mean(result.column(c)) for c in result.columns[1:]),
    )
    return result


# ---------------------------------------------------------------------------
# Table 2 — baseline IPC
# ---------------------------------------------------------------------------
def table2(length: int = PIPELINE_LENGTH,
           benchmarks: Optional[List[str]] = None,
           config: Optional[ProcessorConfig] = None) -> ExperimentResult:
    """Baseline IPC of the Table 1 machine, no value speculation."""
    result = ExperimentResult(
        name="table2",
        title="baseline IPC (4-way, 64-entry window, no value speculation)",
        columns=["bench", "ipc", "dmiss", "bmiss"],
        kinds={"ipc": "plain", "dmiss": "rate", "bmiss": "rate"},
        notes=["paper reports baseline IPC per benchmark; the source text "
               "does not preserve the numbers, so ours stand alone — mcf "
               "should be the most memory-bound"],
    )
    for bench in benchmarks or BENCHMARKS:
        core = OutOfOrderCore(
            config=config if config is not None else great_latency_config())
        sim = core.run(cached_trace(bench, length,
                                    code_copies=PIPELINE_COPIES))
        result.add_row(bench, sim.ipc, sim.dcache_miss_rate,
                       sim.branch_mispredict_rate)
    ipcs = result.column("ipc")
    result.add_row("average", mean(ipcs), mean(result.column("dmiss")),
                   mean(result.column("bmiss")))
    return result


# ---------------------------------------------------------------------------
# Figure 19 — value-speculation speedups
# ---------------------------------------------------------------------------
def fig19(length: int = PIPELINE_LENGTH,
          benchmarks: Optional[List[str]] = None,
          order: int = 32) -> ExperimentResult:
    """Speedup from breaking data dependencies with each predictor.

    Paper: gDiff(HGVQ) 19.2% average speedup (53% on mcf) vs local stride
    ~15%; local context trails on its low coverage.  The machine issues
    dependents on confident predictions and selectively reissues on
    misprediction.  ``order`` sets the hybrid queue size so campaigns can
    sweep it; the local predictors are queue-free and unaffected.
    """
    adapters: Dict[str, Callable[[], Optional[PipelinePredictor]]] = {
        "local_stride": lambda: LocalPredictorAdapter(
            StridePredictor(entries=8192)),
        "local_context": lambda: LocalPredictorAdapter(
            DFCMPredictor(order=4, l1_entries=8192)),
        "gdiff_hgvq": lambda: HGVQAdapter(order=order, entries=8192),
    }
    result = ExperimentResult(
        name="fig19",
        title="speedup of value speculation over the baseline",
        columns=["bench", "baseline_ipc"] + list(adapters),
        kinds={"baseline_ipc": "plain",
               **{name: "rate" for name in adapters}},
        notes=["paper: gdiff(HGVQ) 19.2% average (53% on mcf); local "
               "stride ~15%; local context lowest"],
    )
    speedups: Dict[str, List[float]] = {name: [] for name in adapters}
    for bench in benchmarks or BENCHMARKS:
        trace = cached_trace(bench, length, code_copies=PIPELINE_COPIES)
        baseline = OutOfOrderCore(config=great_latency_config()).run(trace)
        row: List[float] = [baseline.ipc]
        for name, factory in adapters.items():
            core = OutOfOrderCore(config=great_latency_config(),
                                  value_predictor=factory(), speculate=True)
            sim = core.run(trace)
            speedup = sim.ipc / baseline.ipc - 1.0
            speedups[name].append(speedup)
            row.append(speedup)
        result.add_row(bench, *row)
    result.add_row(
        "H_mean", float("nan"),
        *(harmonic_mean_speedup(speedups[name]) for name in adapters),
    )
    return result


#: Registry mapping experiment ids to their functions.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig12": fig12,
    "fig13": fig13,
    "fig16": fig16,
    "fig18a": lambda **kw: fig18(missing_only=False, **kw),
    "fig18b": lambda **kw: fig18(missing_only=True, **kw),
    "table2": table2,
    "fig19": fig19,
}


class ExperimentInputs(NamedTuple):
    """What one registry experiment reads and simulates by default."""

    #: Trace length; the experiment's ``length`` parameter overrides it.
    length: int
    #: Static-code copies per trace (``code_copies`` overrides it).
    code_copies: int
    #: The one benchmark read (``bench`` overrides it), or None for the
    #: suite (``benchmarks`` overrides that).
    bench: Optional[str]
    #: The processor configuration simulated, or None for a profile
    #: experiment.
    machine: Optional[str]


#: The traces and machine of each registry experiment.  The campaign
#: scheduler warms the trace cache from it.  The parallel runner gives the
#: experiments of one machine one worker: they simulate it over the same
#: traces, and the pipeline kernel replays a passive timing only in the
#: process that solved it.  ``table1`` is ``ProcessorConfig()``;
#: ``great-latency`` is :func:`great_latency_config`.
EXPERIMENT_INPUTS: Dict[str, ExperimentInputs] = {
    "fig8": ExperimentInputs(PROFILE_LENGTH, 1, None, None),
    "fig9": ExperimentInputs(PROFILE_LENGTH, 8, None, None),
    "fig10": ExperimentInputs(PROFILE_LENGTH, 1, None, None),
    "fig12": ExperimentInputs(PIPELINE_LENGTH, PIPELINE_COPIES, "vortex",
                              "table1"),
    "fig13": ExperimentInputs(PIPELINE_LENGTH, PIPELINE_COPIES, None,
                              "table1"),
    "fig16": ExperimentInputs(PIPELINE_LENGTH, PIPELINE_COPIES, None,
                              "table1"),
    "fig18a": ExperimentInputs(PROFILE_LENGTH, 1, None, None),
    "fig18b": ExperimentInputs(PROFILE_LENGTH, 1, None, None),
    "table2": ExperimentInputs(PIPELINE_LENGTH, PIPELINE_COPIES, None,
                               "great-latency"),
    "fig19": ExperimentInputs(PIPELINE_LENGTH, PIPELINE_COPIES, None,
                              "great-latency"),
}


def run_experiment(name: str, registry=None, **kwargs) -> ExperimentResult:
    """Run one experiment from the registry by id.

    With a :class:`~repro.telemetry.MetricsRegistry` the run is timed as
    phase ``experiment.<name>`` (wall time in the exported manifest).
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if registry is None:
        return fn(**kwargs)
    with registry.timer(f"experiment.{name}"):
        return fn(**kwargs)
