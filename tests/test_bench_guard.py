"""Unit tests for the benchmark regression guard's comparison logic.

``check_bench_regression.py`` must fail with a clear, actionable message —
never a ``KeyError`` — when a committed BENCH json lacks (or mangles) its
``smoke_baseline`` section, and must flag any guarded metric that drops
more than the tolerance below its committed baseline.  These tests drive
the pure comparison functions directly; the heavy measurement paths are
exercised by the benches themselves in CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import _common  # noqa: E402
import check_bench_regression as guard  # noqa: E402


class TestCheckBaseline:
    def test_missing_smoke_baseline_is_a_clear_failure(self):
        failures = guard.check_baseline(
            "e99", Path("BENCH_e99.json"), {"scatter": []}, {"qps": 100.0},
            tolerance=0.3,
        )
        assert len(failures) == 1
        assert "smoke_baseline" in failures[0]
        assert "--update" in failures[0]
        assert "BENCH_e99.json" in failures[0]

    @pytest.mark.parametrize("bad_section", (None, [], "fast", 7, {}))
    def test_malformed_smoke_baseline_is_a_clear_failure(self, bad_section):
        failures = guard.check_baseline(
            "e99",
            Path("BENCH_e99.json"),
            {"smoke_baseline": bad_section},
            {"qps": 100.0},
            tolerance=0.3,
        )
        assert len(failures) == 1
        assert "smoke_baseline" in failures[0]

    def test_non_dict_payload_never_raises_key_error(self):
        for payload in (None, [], "not-json-object"):
            failures = guard.check_baseline(
                "e99", Path("BENCH_e99.json"), payload, {"qps": 1.0}, 0.3
            )
            assert failures and "smoke_baseline" in failures[0]

    def test_drop_beyond_tolerance_fails_with_metric_name(self):
        payload = {"smoke_baseline": {"bm25_qps": 1000.0, "lm_qps": 500.0}}
        measured = {"bm25_qps": 650.0, "lm_qps": 495.0}  # 35% and 1% drops
        failures = guard.check_baseline(
            "e12", Path("BENCH_e12.json"), payload, measured, tolerance=0.3
        )
        assert len(failures) == 1
        assert "e12.bm25_qps" in failures[0]
        assert "650.0" in failures[0]
        assert "BENCH_e12.json" in failures[0]

    def test_drop_within_tolerance_passes(self):
        payload = {"smoke_baseline": {"bm25_qps": 1000.0, "note": "text is fine"}}
        failures = guard.check_baseline(
            "e12", Path("BENCH_e12.json"), payload, {"bm25_qps": 701.0},
            tolerance=0.3,
        )
        assert failures == []

    def test_measured_value_exactly_at_floor_passes(self):
        payload = {"smoke_baseline": {"qps": 1000.0}}
        assert guard.check_baseline(
            "e16", Path("BENCH_e16.json"), payload, {"qps": 700.0}, 0.3
        ) == []

    def test_guarded_metric_missing_from_baseline_fails(self):
        payload = {"smoke_baseline": {"old_qps": 1000.0}}
        failures = guard.check_baseline(
            "e16", Path("BENCH_e16.json"), payload, {"new_qps": 900.0},
            tolerance=0.3,
        )
        assert len(failures) == 1
        assert "e16.new_qps" in failures[0]
        assert "--update" in failures[0] or "run --update" in failures[0]

    def test_non_numeric_baseline_value_fails_not_raises(self):
        payload = {"smoke_baseline": {"qps": "fast"}}
        failures = guard.check_baseline(
            "e16", Path("BENCH_e16.json"), payload, {"qps": 10.0}, 0.3
        )
        assert len(failures) == 1
        assert "qps" in failures[0]


class TestLoadPayload:
    def test_missing_file_is_a_clear_failure(self, tmp_path):
        payload, failures = guard.load_payload("e99", tmp_path / "BENCH_e99.json")
        assert payload is None
        assert len(failures) == 1
        assert "missing" in failures[0]
        assert "--update" in failures[0]

    def test_invalid_json_is_a_clear_failure(self, tmp_path):
        path = tmp_path / "BENCH_e99.json"
        path.write_text("{not json")
        payload, failures = guard.load_payload("e99", path)
        assert payload is None
        assert len(failures) == 1
        assert "not" in failures[0] and "JSON" in failures[0]

    def test_valid_json_loads_without_failures(self, tmp_path):
        path = tmp_path / "BENCH_e99.json"
        path.write_text(json.dumps({"smoke_baseline": {"qps": 1.0}}))
        payload, failures = guard.load_payload("e99", path)
        assert failures == []
        assert payload["smoke_baseline"]["qps"] == 1.0


def _fake_bench(sanity_check, values):
    """A bench whose n-th run measures ``values[n]`` (no real work)."""
    pending = iter(values)
    return _common.Bench(
        name="e99",
        run_experiment=lambda corpus: {"rows": {"value": next(pending)}},
        smoke={},
        full={},
        tables={"rows": "fake"},
        sanity_check=sanity_check,
        note="",
        guarded=lambda tables: {"value": tables["rows"]["value"]},
    )


class TestMeasureGuarded:
    """What the guard holds every run to, and what only the median."""

    REPEATS = _common.GUARD_REPEATS

    def test_an_assertion_failing_in_one_run_fails_the_measurement(self):
        def sanity_check(tables, smoke):
            assert tables["rows"]["value"] > 0, "nothing was reclaimed"

        values = [5.0] * self.REPEATS
        values[3] = 0.0  # one run in fifteen
        with pytest.raises(AssertionError, match="nothing was reclaimed"):
            _common.measure_guarded([_fake_bench(sanity_check, values)], None)

    def test_a_floor_missed_by_a_minority_is_printed_but_passes(self, capsys):
        def sanity_check(tables, smoke):
            return {"speedup": _common.Floor(tables["rows"]["value"], 2.0)}

        values = [3.0] * self.REPEATS
        values[3] = values[8] = 1.5
        measured = _common.measure_guarded([_fake_bench(sanity_check, values)], None)
        assert measured == {"e99": {"value": 3.0}}
        printed = capsys.readouterr().out
        assert "outside in 2 (run 4: 1.50x, run 9: 1.50x)" in printed

    def test_a_floor_missed_by_the_median_fails(self):
        def sanity_check(tables, smoke):
            return {"parity": _common.Floor(tables["rows"]["value"], 0.7, 1.4)}

        values = [1.0] * (self.REPEATS // 2) + [1.6] * (self.REPEATS // 2 + 1)
        with pytest.raises(AssertionError, match=r"parity 1.60x, must be in \[0.7x"):
            _common.measure_guarded([_fake_bench(sanity_check, values)], None)

    def test_update_never_creates_a_baseline_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "BENCH_DIR", tmp_path)
        monkeypatch.setattr(
            guard, "measure_guarded", lambda benches, corpus: {"e99": {"value": 1.0}}
        )
        monkeypatch.setattr(guard, "BENCHES", (_fake_bench(None, []),))
        assert guard.main(["--update"]) == 1
        assert list(tmp_path.iterdir()) == []


class TestCommittedBaselines:
    """The repo's own BENCH files must satisfy the harness's contract."""

    #: The keys every ``BENCH_eNN.json`` carries (``benchmarks/_common.py``).
    COMMON_KEYS = {"bench", "host", "corpus", "params", "note", "tables"}

    def test_every_committed_bench_json_belongs_to_a_registered_bench(self):
        committed = {path.name for path in BENCH_DIR.glob("BENCH_*.json")}
        registered = {bench.baseline_path.name for bench in guard.BENCHES}
        assert committed == registered

    @pytest.mark.parametrize("bench", guard.BENCHES, ids=lambda bench: bench.name)
    def test_committed_bench_jsons_share_the_one_schema(self, bench):
        payload, failures = guard.load_payload(bench.name, bench.baseline_path)
        assert failures == []
        assert self.COMMON_KEYS <= set(payload)
        assert payload["bench"] == bench.name
        assert set(payload["tables"]) == set(bench.tables)
        # Each recorded section names the host it was measured on.
        recorded = {"tables"} | ({"smoke_baseline"} & set(payload))
        assert set(payload["host"]) == recorded
        assert ("smoke_baseline" in payload) == (bench.guarded is not None)

    @pytest.mark.parametrize(
        "bench",
        [bench for bench in guard.BENCHES if bench.guarded is not None],
        ids=lambda bench: bench.name,
    )
    def test_committed_bench_jsons_carry_usable_smoke_baselines(self, bench):
        payload, failures = guard.load_payload(bench.name, bench.baseline_path)
        assert failures == []
        section = payload["smoke_baseline"]
        assert isinstance(section, dict) and section
        numeric = {
            key
            for key, value in section.items()
            if isinstance(value, (int, float))
        }
        # The committed tables have the shape run_experiment returns, so the
        # bench's own extractor names the guarded metrics.
        assert numeric == set(bench.guarded(payload["tables"]))
