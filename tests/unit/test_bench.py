"""Tests for the benchmark harness (repro.bench) and env fingerprints."""

from __future__ import annotations

import json
import re

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_ROUNDS,
    DEFAULT_TOLERANCE,
    BenchRecord,
    BenchSpec,
    all_benchmarks,
    append_records,
    bench,
    compare_history,
    get_benchmark,
    history_by_name,
    load_history,
    record_measurement,
    render_comparison,
    run_benchmark,
)
from repro.errors import BenchError
from repro.obs import cpu_counts, env_fingerprint, utc_stamp


@pytest.fixture
def scratch_registry(monkeypatch):
    """An empty BENCHMARKS dict so @bench tests cannot pollute the real one."""
    fresh: dict[str, BenchSpec] = {}
    monkeypatch.setattr("repro.bench.registry.BENCHMARKS", fresh)
    return fresh


def _record(name, best, *, tolerance=0.25, env=None, mean=None):
    return BenchRecord(
        name=name,
        best_s=best,
        mean_s=mean if mean is not None else best * 1.1,
        rounds=3,
        tolerance=tolerance,
        recorded="2026-01-01T00:00:00Z",
        env=env or {"machine": "x86_64", "cpu_logical": 1},
    )


# --------------------------------------------------------------- registry


class TestBenchRegistry:
    def test_decorator_registers_spec(self, scratch_registry):
        @bench("demo-case", tolerance=0.5, rounds=2)
        def demo() -> None:
            """First docstring line becomes the description."""

        spec = scratch_registry["demo-case"]
        assert spec.name == "demo-case"
        assert spec.fn is demo
        assert spec.tolerance == 0.5
        assert spec.rounds == 2
        assert spec.description.startswith("First docstring line")

    def test_explicit_description_wins(self, scratch_registry):
        @bench("demo-case", description="explicit")
        def demo() -> None:
            """Docstring."""

        assert scratch_registry["demo-case"].description == "explicit"

    @pytest.mark.parametrize(
        "name", ["Upper", "has.dots", "has_underscore", "-lead", "trail-", ""]
    )
    def test_bad_names_rejected(self, scratch_registry, name):
        with pytest.raises(BenchError, match="hyphenated lowercase"):
            bench(name)(lambda: None)

    def test_duplicate_name_rejected(self, scratch_registry):
        bench("demo-case")(lambda: None)
        with pytest.raises(BenchError, match="already registered"):
            bench("demo-case")(lambda: None)

    def test_bad_tolerance_and_rounds_rejected(self, scratch_registry):
        with pytest.raises(BenchError, match="tolerance"):
            bench("demo-case", tolerance=0.0)
        with pytest.raises(BenchError, match="round"):
            bench("demo-case", rounds=0)

    def test_registered_workloads_present(self):
        names = [spec.name for spec in all_benchmarks()]
        assert names == sorted(names)
        assert {
            "pmf-convolve",
            "pmf-dilate",
            "sim-fac",
            "sim-awf",
            "sim-chaos",
            "sim-grid",
            "stage1-genetic",
            "cli-startup",
        } <= set(names)
        assert all(spec.description for spec in all_benchmarks())

    def test_get_benchmark_unknown_lists_known(self):
        with pytest.raises(BenchError, match="pmf-convolve"):
            get_benchmark("no-such-bench")
        assert get_benchmark("pmf-convolve").name == "pmf-convolve"


class TestRunBenchmark:
    def test_measurement_shape_and_warmup(self):
        calls = []
        spec = BenchSpec(
            name="counted", fn=lambda: calls.append(1), rounds=2,
            tolerance=0.3,
        )
        measurement = run_benchmark(spec)
        assert len(calls) == 3  # 1 warmup + 2 timed rounds
        assert measurement["name"] == "counted"
        assert measurement["rounds"] == 2
        assert measurement["tolerance"] == 0.3
        assert 0.0 <= measurement["best_s"] <= measurement["mean_s"]

    def test_rounds_override(self):
        calls = []
        spec = BenchSpec(name="counted", fn=lambda: calls.append(1))
        measurement = run_benchmark(spec, rounds=1)
        assert len(calls) == 2
        assert measurement["rounds"] == 1
        with pytest.raises(BenchError, match="round"):
            run_benchmark(spec, rounds=0)

    def test_defaults_applied(self):
        spec = BenchSpec(name="defaults", fn=lambda: None)
        assert spec.tolerance == DEFAULT_TOLERANCE
        assert spec.rounds == DEFAULT_ROUNDS


# ------------------------------------------------------------------ store


class TestBenchStore:
    def test_record_measurement_stamps_env_and_time(self):
        record = record_measurement(
            {"name": "x", "best_s": 0.5, "mean_s": 0.6, "rounds": 3,
             "tolerance": 0.25},
            workers=4,
        )
        assert record.schema == BENCH_SCHEMA_VERSION
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", record.recorded
        )
        assert record.env["workers"] == 4
        for key in ("python", "platform", "cpu_logical", "cpu_available"):
            assert key in record.env

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "hist.jsonl"
        first = _record("a", 0.5)
        append_records(path, [first])
        append_records(path, [_record("b", 0.7)])
        loaded = load_history(path)
        assert [r.name for r in loaded] == ["a", "b"]
        assert loaded[0] == first

    def test_load_skips_blank_and_malformed_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = json.dumps(_record("a", 0.5).as_dict())
        path.write_text(
            "\n".join(
                [good, "", "not json", '{"name": "missing-fields"}', "[1]",
                 good]
            )
            + "\n"
        )
        loaded = load_history(path)
        assert [r.name for r in loaded] == ["a", "a"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_from_mapping_rejects_malformed(self):
        with pytest.raises(BenchError, match="malformed"):
            BenchRecord.from_mapping({"name": "x", "best_s": "fast"})

    def test_history_by_name_preserves_order(self):
        records = [_record("a", 0.5), _record("b", 1.0), _record("a", 0.6)]
        grouped = history_by_name(records)
        assert list(grouped) == ["a", "b"]
        assert [r.best_s for r in grouped["a"]] == [0.5, 0.6]


# ---------------------------------------------------------------- compare


class TestCompareHistory:
    def test_single_record_is_new(self):
        comparison = compare_history([_record("a", 0.5)])
        (delta,) = comparison.deltas
        assert delta.status == "new"
        assert delta.baseline is None
        assert delta.ratio is None
        assert not comparison.has_regressions

    def test_within_tolerance_is_ok(self):
        comparison = compare_history(
            [_record("a", 1.0), _record("a", 1.2, tolerance=0.25)]
        )
        (delta,) = comparison.deltas
        assert delta.status == "ok"
        assert delta.ratio == pytest.approx(1.2)
        assert not comparison.has_regressions

    def test_regression_flagged_beyond_tolerance(self):
        comparison = compare_history(
            [_record("a", 1.0), _record("a", 1.3, tolerance=0.25)]
        )
        assert comparison.deltas[0].status == "regression"
        assert comparison.has_regressions
        assert comparison.by_status("regression")[0].name == "a"

    def test_improvement_flagged(self):
        comparison = compare_history(
            [_record("a", 1.0), _record("a", 0.5, tolerance=0.25)]
        )
        assert comparison.deltas[0].status == "improved"
        assert not comparison.has_regressions

    def test_current_tolerance_governs(self):
        # The latest record's tolerance decides, not the baseline's.
        comparison = compare_history(
            [_record("a", 1.0, tolerance=0.01),
             _record("a", 1.2, tolerance=0.5)]
        )
        assert comparison.deltas[0].status == "ok"

    def test_latest_vs_previous_not_first(self):
        comparison = compare_history(
            [_record("a", 4.0), _record("a", 1.0), _record("a", 1.1)]
        )
        delta = comparison.deltas[0]
        assert delta.baseline is not None
        assert delta.baseline.best_s == 1.0
        assert delta.status == "ok"

    def test_env_changes_annotated_git_sha_ignored(self):
        base_env = {"machine": "x86_64", "cpu_logical": 4, "git_sha": "aaa"}
        cur_env = {"machine": "x86_64", "cpu_logical": 2, "git_sha": "bbb"}
        comparison = compare_history(
            [_record("a", 1.0, env=base_env), _record("a", 1.0, env=cur_env)]
        )
        assert comparison.deltas[0].env_changed == ("cpu_logical",)

    def test_multiple_benchmarks_sorted(self):
        comparison = compare_history(
            [_record("b", 1.0), _record("a", 1.0), _record("b", 5.0)]
        )
        assert [d.name for d in comparison.deltas] == ["a", "b"]
        assert [d.status for d in comparison.deltas] == ["new", "regression"]


class TestRenderComparison:
    def test_regression_verdict_and_table(self):
        text = render_comparison(
            compare_history([_record("a", 1.0), _record("a", 2.0)])
        )
        assert "benchmark" in text and "ratio" in text
        assert "2.00x" in text
        assert "REGRESSION: 1 benchmark(s)" in text
        assert "a" in text

    def test_ok_verdict(self):
        text = render_comparison(compare_history([_record("a", 1.0)]))
        assert "ok: 1 benchmark(s) within tolerance" in text
        assert "-" in text  # no baseline column value

    def test_env_change_noted(self):
        text = render_comparison(
            compare_history(
                [_record("a", 1.0, env={"machine": "arm"}),
                 _record("a", 1.0, env={"machine": "x86"})]
            )
        )
        assert "env changed: machine" in text


# ------------------------------------------------------- env fingerprints


class TestEnvFingerprint:
    def test_fingerprint_fields(self):
        env = env_fingerprint()
        for key in (
            "python", "implementation", "platform", "machine",
            "cpu_logical", "cpu_physical", "cpu_available", "git_sha",
            "repro_version",
        ):
            assert key in env
        assert "workers" not in env
        assert env_fingerprint(workers="auto")["workers"] == "auto"

    def test_cpu_counts_sane(self):
        counts = cpu_counts()
        assert counts["cpu_logical"] >= 1
        assert 1 <= counts["cpu_available"] <= counts["cpu_logical"]
        physical = counts["cpu_physical"]
        assert physical is None or physical >= 1

    def test_utc_stamp_format(self):
        assert utc_stamp(0.0) == "1970-01-01T00:00:00Z"
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", utc_stamp()
        )
