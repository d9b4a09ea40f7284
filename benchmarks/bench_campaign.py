"""Campaign-store overhead — resume must be effectively free.

The whole point of the content-addressed store is that re-running a
finished campaign costs index lookups, not recomputation.  Two claims:

* **Resume skip is cheap.** Re-scheduling a fully completed campaign
  (every cell skipped via the index) costs well under 5 % of executing
  it — otherwise "resumable" would be a lie for large grids.
* **Store writes don't dominate.** Writing a cell record (atomic JSON;
  the index is persisted once per scheduler round, not per record) is
  milliseconds — small next to even the tiniest real
  cell — measured here as the per-record wall time over a 64-record
  burst.

Measured values land in ``BENCH_metrics.json`` under
``metrics.campaign``.
"""

import time

from repro.campaign import CampaignScheduler, CampaignSpec, CampaignStore
from repro.campaign.spec import Cell

SPEC_DOC = {
    "campaign": {"name": "bench", "description": "campaign overhead bench"},
    "defaults": {"kind": "experiment", "experiment": "fig8"},
    "matrix": {"length": [3000, 4000], "benchmarks": [["gcc"], ["mcf"]]},
}


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_resume_skip_overhead(benchmark, record_metrics, tmp_path):
    spec = CampaignSpec.from_dict(SPEC_DOC)
    store = CampaignStore(tmp_path / "camp")
    store.create(spec)

    def execute():
        CampaignScheduler(spec, store, max_workers=1, warm=False).run()

    def skip_all():
        summary = CampaignScheduler(spec, store, max_workers=1,
                                    warm=False).run()
        assert summary.skipped == 4 and summary.completed == 0

    execute_s = _timed(execute)
    skip_s = min(_timed(skip_all) for _ in range(5))
    ratio = skip_s / execute_s
    record_metrics("campaign", execute_s=round(execute_s, 4),
                   resume_skip_s=round(skip_s, 6),
                   skip_ratio=round(ratio, 4))
    benchmark.pedantic(skip_all, rounds=3, iterations=1)
    assert ratio < 0.05, (
        f"skipping a finished campaign cost {ratio:.1%} of executing it")


def bench_store_write_throughput(benchmark, record_metrics, tmp_path):
    spec = CampaignSpec.from_dict(SPEC_DOC)
    store = CampaignStore(tmp_path / "camp")
    store.create(spec)
    payload = {"experiment": {"name": "fig8", "columns": ["a", "b"],
                              "rows": [["gcc", 0.5, 0.6]] * 8}}
    cells = [Cell.make("experiment",
                       {"experiment": "fig8", "length": 10_000 + i})
             for i in range(64)]

    def burst():
        for cell in cells:
            store.write_result(cell, payload, attempts=1, duration_s=0.01)

    wall = min(_timed(burst) for _ in range(3))
    per_record_ms = wall / len(cells) * 1e3
    record_metrics("campaign", write_burst_s=round(wall, 4),
                   write_per_record_ms=round(per_record_ms, 3))
    benchmark.pedantic(burst, rounds=2, iterations=1)
    assert per_record_ms < 50.0, (
        f"store writes cost {per_record_ms:.1f} ms/record")
