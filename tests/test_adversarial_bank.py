"""The adversarial stream bank and the unified workload-bank runner.

Scenario generation must be deterministic and registry-resolvable; the
calibrated ``EXPECTATIONS`` bands must be structurally sound (the actual
accuracy sweep is CI's ``repro workloads --smoke`` job — re-running the
full bank here would double its cost for no extra signal); and
:func:`repro.harness.workbank.run_bank` must select, sweep, and gate
correctly on small lengths.
"""

from itertools import islice

import pytest

from repro.harness.workbank import (
    BANK_ZOO,
    BankCheck,
    bank_members,
    bank_predictors,
    render_bank,
    run_bank,
)
from repro.trace.workloads import BENCHMARKS, get, is_known, known_names
from repro.trace.workloads.adversarial import (
    EXPECT_LENGTH,
    EXPECTATIONS,
    SCENARIOS,
    all_specs,
)

LENGTH = 4000


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_generation_is_deterministic(self, name):
        spec = get(name)
        a = spec.trace(LENGTH)
        b = get(name).trace(LENGTH)
        assert [(i.pc, i.op, i.value) for i in a] == \
            [(i.pc, i.op, i.value) for i in b]
        assert len(a) == LENGTH

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenarios_produce_values(self, name):
        trace = get(name).trace(LENGTH)
        producing = sum(1 for i in trace if i.produces_value)
        assert producing > LENGTH // 10

    def test_registry_resolves_all_scenarios(self):
        for name in SCENARIOS:
            assert is_known(name)
            assert name in known_names()
        assert set(all_specs()) == set(SCENARIOS)

    def test_scenarios_differ_from_each_other(self):
        streams = {}
        for name in SCENARIOS:
            trace = get(name).trace(LENGTH)
            streams[name] = tuple((i.pc, i.value) for i in trace
                                  if i.produces_value)
        values = list(streams.values())
        assert len(set(values)) == len(values)

    def test_cached_trace_matches_object_generation(self, tmp_path,
                                                    monkeypatch):
        from repro.trace.cache import cached_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        name = SCENARIOS[0]
        packed = cached_trace(name, LENGTH)
        direct = list(islice(get(name).generate(), LENGTH))
        pcs, values = packed.value_pairs()
        expect = [(i.pc, i.value) for i in direct if i.produces_value]
        assert list(zip(pcs, values)) == expect


class TestExpectations:
    def test_bands_cover_every_scenario(self):
        assert set(EXPECTATIONS) == set(SCENARIOS)
        for name, bands in EXPECTATIONS.items():
            assert bands, f"{name} has no calibrated bands"
            for predictor, (lo, hi) in bands.items():
                assert predictor in BANK_ZOO
                assert 0.0 <= lo < hi <= 1.0

    def test_bands_encode_the_scenario_story(self):
        # The bank exists to stress predictors differently: deep global
        # history must out-band local stride on the phase/burst mixes.
        for name in ("adv-phase-shift", "adv-burst"):
            assert EXPECTATIONS[name]["gdiff32"][0] > \
                EXPECTATIONS[name]["stride"][1]

    def test_expect_length_is_stable(self):
        assert EXPECT_LENGTH == 24_000


class TestRunBank:
    def test_selection_and_groups(self):
        members = bank_members(("suite", "adversarial"))
        names = [n for n, _ in members]
        assert names[:len(BENCHMARKS)] == BENCHMARKS
        assert names[len(BENCHMARKS):] == SCENARIOS
        only = bank_members(("adversarial",), only=[SCENARIOS[1]])
        assert only == [(SCENARIOS[1], "adversarial")]
        with pytest.raises(ValueError):
            bank_members(("nope",))
        with pytest.raises(ValueError):
            bank_members(("suite",), only=["adv-drift"])

    def test_predictor_validation(self):
        assert list(bank_predictors(["stride"])) == ["stride"]
        with pytest.raises(ValueError):
            bank_predictors(["oracle"])

    def test_sweep_rows_and_progress(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seen = []
        rows, checks = run_bank(
            groups=("adversarial",), only=[SCENARIOS[0], SCENARIOS[2]],
            predictors=["stride", "gdiff8"], length=LENGTH,
            on_progress=lambda done, total: seen.append((done, total)))
        assert [r.workload for r in rows] == [SCENARIOS[0], SCENARIOS[2]]
        assert checks == []
        assert seen == [(1, 2), (2, 2)]
        for row in rows:
            assert set(row.accuracy) == {"stride", "gdiff8"}
            assert all(0.0 <= a <= 1.0 for a in row.accuracy.values())
            assert row.value_events > 0

    def test_check_requires_calibrated_length(self):
        with pytest.raises(ValueError):
            run_bank(groups=("adversarial",), length=LENGTH, check=True)

    def test_render_bank_table(self):
        checks = [BankCheck("w", "stride", 0.4, 0.6, 0.5),
                  BankCheck("w", "gdiff8", 0.8, 0.9, 0.1)]
        rows = []
        lines = render_bank(rows, checks, ["stride", "gdiff8"])
        text = "\n".join(lines)
        assert "expectations: 1/2 within band" in text
        assert "FAIL" in text and "PASS" in text
