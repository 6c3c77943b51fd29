"""Unit tests of the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["tables"],
            ["figure", "fig3"],
            ["scenario", "4"],
            ["robustness"],
            ["techniques"],
            ["heuristics"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "5"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table IV" in out
        assert "Table V" in out
        assert "74.5" in out  # paper phi_1

    def test_techniques(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        for name in ("STATIC", "FAC", "WF", "AWF-B", "AF"):
            assert name in out

    def test_heuristics(self, capsys):
        assert main(["heuristics"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive-optimal" in out
        assert "genetic" in out

    def test_figure_quick(self, capsys):
        assert main(["figure", "fig4", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "STATIC" in out

    def test_scenario_quick(self, capsys):
        assert main(["scenario", "1", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 1" in out
        assert "rho1" in out

    def test_robustness_quick(self, capsys):
        assert main(["robustness", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out
        assert "paper" in out

    def test_robustness_chaos_mode(self, capsys):
        assert main(
            [
                "robustness", "--replications", "2", "--seed", "1",
                "--faults", "--fault-rate", "2e-4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fault-free baseline" in out
        assert "chaos impact" in out

    def test_scenario_with_faults(self, capsys):
        assert main(
            [
                "scenario", "1", "--replications", "2", "--seed", "1",
                "--faults",
            ]
        ) == 0
        assert "rho1" in capsys.readouterr().out

    def test_workers_auto_accepted(self, capsys):
        assert main(["--workers", "auto", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_workers_zero_accepted(self, capsys):
        assert main(["--workers", "0", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestRecommendAndChart:
    def test_recommend_paper(self, capsys):
        assert main(["recommend"]) == 0
        out = capsys.readouterr().out
        assert "Stage I" in out and "Stage II" in out
        assert "branch-and-bound" in out

    def test_recommend_synthetic(self, capsys):
        assert main(["recommend", "--synthetic", "15", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "generated instance" in out

    def test_figure_chart(self, capsys):
        assert main(
            ["figure", "fig6", "--chart", "--replications", "2", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "█" in out
        assert "Delta" in out

    def test_export_instance(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        assert main(["export", str(target)]) == 0
        from repro.io import load_instance

        system, batch, deadline = load_instance(target)
        assert deadline == 3250.0
        assert batch.names == ("app1", "app2", "app3")


class TestObservabilityFlags:
    def test_trace_writes_jsonl(self, capsys, tmp_path):
        import repro.obs as obs
        from repro.obs import read_trace

        path = tmp_path / "run.jsonl"
        assert main(
            ["--trace", str(path), "scenario", "1",
             "--replications", "1", "--seed", "1"]
        ) == 0
        assert not obs.obs_enabled()  # the CLI session was torn down
        out = capsys.readouterr().out
        assert f"wrote trace to {path}" in out
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"cdsf.run", "cdsf.stage_i", "cdsf.stage_ii"} <= names
        counters = {
            r["name"] for r in records if r["type"] == "counter"
        }
        assert "sim.apps" in counters

    def test_metrics_summary(self, capsys):
        assert main(
            ["--metrics", "robustness", "--replications", "1", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Observability: counters" in out
        assert "sim.apps" in out
        assert "Observability: histograms" in out

    def test_plain_run_leaves_obs_disabled(self, capsys):
        import repro.obs as obs

        assert main(["techniques"]) == 0
        assert not obs.obs_enabled()

    def test_log_level_flag(self, capsys):
        import logging

        from repro.obs import get_logger

        logger = get_logger()
        before = logger.handlers[:]
        try:
            assert main(["--log-level", "debug", "techniques"]) == 0
            assert logger.level == logging.DEBUG
        finally:
            for handler in logger.handlers[:]:
                if handler not in before:
                    logger.removeHandler(handler)


class TestRunStoreCommands:
    @pytest.fixture
    def recorded(self, tmp_path, capsys):
        """Two recorded scenario runs (fault-free and faulted) in one store."""
        base = tmp_path / "runs"
        for extra in ([], ["--faults", "--fault-rate", "3e-4"]):
            assert main(
                ["--run-dir", str(base), "scenario", "1",
                 "--replications", "1", "--seed", "1", *extra]
            ) == 0
        capsys.readouterr()
        from repro.obs import RunStore

        ids = RunStore(base).run_ids()
        assert len(ids) == 2
        return base, ids

    def test_run_dir_records_invocation(self, recorded, capsys):
        import repro.obs as obs

        base, ids = recorded
        assert not obs.obs_enabled()
        run = obs.RunStore(base).load(ids[0])
        assert run.manifest["command"] == "scenario"
        assert run.manifest["scenario"] == 1
        assert run.manifest["seed"] == 1
        assert run.manifest["exit_code"] == 0
        assert "scenario" in run.results()
        assert run.timelines(), "run dir should rebuild worker timelines"

    def test_env_var_enables_recording(self, tmp_path, capsys, monkeypatch):
        from repro.obs import ENV_RUN_DIR, RunStore

        base = tmp_path / "envruns"
        monkeypatch.setenv(ENV_RUN_DIR, str(base))
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        assert len(RunStore(base).run_ids()) == 1

    def test_runs_lists_store(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "runs"]) == 0
        out = capsys.readouterr().out
        for rid in ids:
            assert rid in out
        assert "scenario" in out

    def test_runs_empty_store(self, tmp_path, capsys):
        assert main(["--run-dir", str(tmp_path / "none"), "runs"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_runs_without_base_errors(self, capsys, monkeypatch):
        from repro.obs import ENV_RUN_DIR

        monkeypatch.delenv(ENV_RUN_DIR, raising=False)
        assert main(["runs"]) == 2
        assert "--run-dir" in capsys.readouterr().out

    def test_report_by_id_and_path(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "report", ids[0]]) == 0
        by_id = capsys.readouterr().out
        assert f"# repro run `{ids[0]}`" in by_id
        assert "## Worker timelines" in by_id
        assert main(["report", str(base / ids[0])]) == 0
        by_path = capsys.readouterr().out
        assert f"# repro run `{ids[0]}`" in by_path

    def test_report_output_and_chrome_trace(self, recorded, capsys, tmp_path):
        import json

        base, ids = recorded
        md = tmp_path / "report.md"
        chrome = tmp_path / "chrome.json"
        assert main(
            ["report", str(base / ids[0]),
             "-o", str(md), "--chrome-trace", str(chrome)]
        ) == 0
        out = capsys.readouterr().out
        assert str(md) in out
        assert "perfetto" in out.lower()
        assert md.read_text().startswith("# repro run")
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    def test_report_unknown_run_errors(self, recorded, capsys):
        base, _ = recorded
        assert main(["--run-dir", str(base), "report", "nope"]) == 2
        assert "neither a run" in capsys.readouterr().out

    def test_compare_two_runs(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "compare", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert f"# repro compare `{ids[0]}` vs `{ids[1]}`" in out
        assert "## Robustness" in out
        assert "## Largest counter deltas" in out

    def test_analysis_commands_are_not_recorded(self, recorded, capsys):
        """report/compare/runs read the store; they must not add runs."""
        from repro.obs import RunStore

        base, ids = recorded
        assert main(["--run-dir", str(base), "runs"]) == 0
        assert main(["--run-dir", str(base), "report", ids[0]]) == 0
        assert RunStore(base).run_ids() == ids

    def test_runs_format_json(self, recorded, capsys):
        import json

        base, ids = recorded
        assert main(["--run-dir", str(base), "runs", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in payload] == list(ids)
        assert all(row["command"] == "scenario" for row in payload)
        assert all(row["exit_code"] == 0 for row in payload)

    def test_runs_format_json_empty_store(self, tmp_path, capsys):
        import json

        assert main(
            ["--run-dir", str(tmp_path / "none"), "runs", "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_manifest_env_fingerprint(self, recorded):
        from repro.obs import RunStore

        base, ids = recorded
        env = RunStore(base).load(ids[0]).manifest["env"]
        for key in ("python", "platform", "cpu_logical", "cpu_available"):
            assert key in env


class TestBenchCommands:
    def test_bench_list_text(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("pmf-convolve", "sim-fac", "stage1-genetic"):
            assert name in out

    def test_bench_list_json(self, capsys):
        import json

        assert main(["bench", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in payload]
        assert "pmf-dilate" in names
        assert all(
            set(row) == {"name", "rounds", "tolerance", "description"}
            for row in payload
        )

    def test_bench_run_unknown_name_errors(self, tmp_path, capsys):
        assert main(
            ["bench", "run", "no-such-bench",
             "--history", str(tmp_path / "h.jsonl")]
        ) == 2
        assert "no benchmark" in capsys.readouterr().out

    def test_bench_compare_without_history_errors(self, tmp_path, capsys):
        assert main(
            ["bench", "compare", "--history", str(tmp_path / "h.jsonl")]
        ) == 2
        assert "no benchmark history" in capsys.readouterr().out

    def test_bench_run_compare_regression_cycle(self, tmp_path, capsys):
        """The full CI-gate story: run, re-run, inject a slowdown."""
        import json

        from repro.bench import load_history

        hist = tmp_path / "hist.jsonl"
        run = ["bench", "run", "pmf-convolve", "--rounds", "1",
               "--history", str(hist)]
        compare = ["bench", "compare", "--history", str(hist)]

        assert main(run) == 0
        out = capsys.readouterr().out
        assert "pmf-convolve: best" in out
        assert "appended 1 record(s)" in out
        assert main(compare) == 0  # single record -> "new", no gate
        assert "new" in capsys.readouterr().out

        assert main(run) == 0
        capsys.readouterr()
        records = load_history(hist)
        assert len(records) == 2
        assert all(r.env.get("cpu_available") for r in records)

        # Two timed runs can differ by more than the tolerance on a noisy
        # host; a copy of the latest record is an exactly comparable rerun.
        with hist.open("a") as fh:
            fh.write(json.dumps(records[-1].as_dict()) + "\n")
        assert main(compare) == 0
        assert "ok:" in capsys.readouterr().out

        # Inject a synthetic 10x slowdown as the next record: the gate
        # must trip with a nonzero exit.
        slow = records[-1].as_dict()
        slow["best_s"] = float(slow["best_s"]) * 10.0
        slow["mean_s"] = float(slow["mean_s"]) * 10.0
        with hist.open("a") as fh:
            fh.write(json.dumps(slow) + "\n")
        assert main(compare) == 1
        assert "REGRESSION" in capsys.readouterr().out

        assert main([*compare, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (row,) = [r for r in payload if r["name"] == "pmf-convolve"]
        assert row["status"] == "regression"
        assert row["ratio"] > 1.0


class TestProfileFlag:
    _run = ["scenario", "1", "--replications", "1", "--seed", "1"]

    def _profile_doc(self, base):
        from repro.obs import RunStore

        (run_id,) = RunStore(base).run_ids()
        return RunStore(base).load(run_id).profile()

    def test_profile_writes_speedscope_document(self, tmp_path, capsys):
        from repro.obs import PROFILE_SCHEMA_URL

        base = tmp_path / "runs"
        assert main(
            ["--profile", "--run-dir", str(base), *self._run]
        ) == 0
        doc = self._profile_doc(base)
        assert doc["$schema"] == PROFILE_SCHEMA_URL
        assert doc["shared"]["frames"]
        names = [p["name"] for p in doc["profiles"]]
        assert any("spans" in n for n in names)
        assert any("sampled" in n for n in names)
        span_profile = doc["profiles"][0]
        assert span_profile["samples"] and span_profile["weights"]

    def test_no_profile_without_flag(self, tmp_path, capsys):
        base = tmp_path / "runs"
        assert main(["--run-dir", str(base), *self._run]) == 0
        assert self._profile_doc(base) == {}  # absent: empty like metrics()

    def test_env_var_enables_profiling(self, tmp_path, capsys, monkeypatch):
        from repro.obs import ENV_PROF

        base = tmp_path / "runs"
        monkeypatch.setenv(ENV_PROF, "0.002")
        assert main(["--run-dir", str(base), *self._run]) == 0
        assert self._profile_doc(base).get("profiles")

    def test_profile_without_run_dir_writes_file(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["--profile", *self._run]) == 0
        assert "speedscope" in capsys.readouterr().out
        doc = json.loads((tmp_path / "repro-profile.json").read_text())
        assert doc["profiles"]


@pytest.mark.parametrize(
    "module", ["scipy.stats", "http.server", "urllib.request"]
)
def test_cli_import_leaves_scipy_stats_unloaded(module):
    """Start-up stays lean: no paper command needs these modules.

    ``scipy.stats`` costs about a second to import, and any ``scipy``
    module pulls in the package's start-up; the HTTP modules pull in
    ``ssl`` and ``email`` besides.
    """
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        f"import sys, repro.cli; print({module!r} in sys.modules, "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False []"
