"""A prefetch engine driven by gDiff address prediction.

The engine watches the committed load stream: each load trains a gDiff
predictor whose global value queue carries *addresses* (Section 6's
configuration).  When the next load's address is confidently predicted,
the engine issues a prefetch for it ahead of the demand access.

The evaluation loop (:func:`simulate_prefetching`) replays a trace's
loads against two copies of a Table 1 D-cache — demand-only and
demand+prefetch — and reports the standard prefetching metrics:

* **coverage** — fraction of baseline demand misses eliminated;
* **accuracy** — fraction of issued prefetches whose line was used by
  the next demand access;
* **traffic overhead** — extra lines fetched per baseline miss.

This is a timing-free study (prefetches complete instantly); it bounds
what a gDiff prefetcher could eliminate, which is the quantity Section 6
argues about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.gdiff import GDiffPredictor
from ..pipeline.cache import Cache
from ..pipeline.config import CacheConfig, ProcessorConfig
from ..predictors.confidence import ConfidenceTable
from ..trace.isa import Instruction, OpClass


@dataclass
class PrefetchStats:
    """Outcome of a prefetching simulation."""

    demand_accesses: int = 0
    baseline_misses: int = 0
    prefetched_misses: int = 0
    prefetches_issued: int = 0
    prefetches_useful: int = 0

    @property
    def baseline_miss_rate(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.baseline_misses / self.demand_accesses

    @property
    def prefetched_miss_rate(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.prefetched_misses / self.demand_accesses

    @property
    def coverage(self) -> float:
        """Fraction of baseline misses the prefetcher eliminated."""
        if not self.baseline_misses:
            return 0.0
        saved = self.baseline_misses - self.prefetched_misses
        return max(0.0, saved / self.baseline_misses)

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that were useful."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def traffic_overhead(self) -> float:
        """Useless prefetches per baseline miss (wasted bandwidth)."""
        if not self.baseline_misses:
            return 0.0
        useless = self.prefetches_issued - self.prefetches_useful
        return useless / self.baseline_misses

    def __str__(self) -> str:
        return (
            f"miss rate {self.baseline_miss_rate:.1%} -> "
            f"{self.prefetched_miss_rate:.1%} "
            f"(coverage {self.coverage:.1%}, accuracy {self.accuracy:.1%})"
        )


class GDiffPrefetcher:
    """Predict the next load's address with gDiff; emit prefetch targets.

    Args:
        order: GVQ depth over the address stream (Section 6 uses the
            pipeline configuration's 32).
        entries: prediction-table entries (paper: 4K for address tables).
        confidence: optional confidence table (paper policy by default) —
            only confident predictions become prefetches.
        line_bytes: prefetch granularity (suppress duplicates per line).
    """

    def __init__(
        self,
        order: int = 32,
        entries: Optional[int] = 4096,
        confidence: Optional[ConfidenceTable] = None,
        line_bytes: int = 64,
    ):
        self.predictor = GDiffPredictor(order=order, entries=entries)
        self.confidence = confidence if confidence is not None \
            else ConfidenceTable()
        self._line_shift = line_bytes.bit_length() - 1
        self._last_line_prefetched: Optional[int] = None

    def observe(self, pc: int, addr: int) -> None:
        """Train on one committed load (pc, effective address)."""
        predicted = self.predictor.predict(pc)
        if predicted is not None:
            self.confidence.train(pc, predicted == addr)
        self.predictor.update(pc, addr)

    def prefetch_for(self, next_pc: int) -> Optional[int]:
        """Address to prefetch for the upcoming load at *next_pc*.

        Returns ``None`` when there is no confident prediction, or when
        the predicted line was just prefetched (duplicate suppression).
        """
        prediction = self.predictor.predict(next_pc)
        if prediction is None or not self.confidence.is_confident(next_pc):
            return None
        line = prediction >> self._line_shift
        if line == self._last_line_prefetched:
            return None
        self._last_line_prefetched = line
        return prediction


def simulate_prefetching(
    trace: Iterable[Instruction],
    prefetcher: Optional[GDiffPrefetcher] = None,
    cache_config: Optional[CacheConfig] = None,
) -> PrefetchStats:
    """Replay a trace's loads with one-step-lookahead gDiff prefetching."""
    if cache_config is None:
        cache_config = ProcessorConfig().dcache
    if prefetcher is None:
        prefetcher = GDiffPrefetcher(line_bytes=cache_config.line_bytes)
    baseline = Cache(cache_config)
    prefetched = Cache(cache_config)
    stats = PrefetchStats()
    line_shift = cache_config.line_bytes.bit_length() - 1

    loads: List[Instruction] = [i for i in trace if i.op is OpClass.LOAD]
    for position, insn in enumerate(loads):
        stats.demand_accesses += 1
        if not baseline.access(insn.addr):
            stats.baseline_misses += 1
        if not prefetched.access(insn.addr):
            stats.prefetched_misses += 1
        prefetcher.observe(insn.pc, insn.addr)
        if position + 1 < len(loads):
            next_insn = loads[position + 1]
            target = prefetcher.prefetch_for(next_insn.pc)
            if target is not None:
                stats.prefetches_issued += 1
                if not prefetched.probe(target):
                    prefetched.access(target)
                if (target >> line_shift) == (next_insn.addr >> line_shift):
                    stats.prefetches_useful += 1
    return stats
