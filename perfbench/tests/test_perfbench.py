"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import check
import layers
from workloads import PREDICTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == ["chaos", "static"] and set(gated) <= set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_every_layer_metric_has_a_prediction():
    assert set(PREDICTIONS) == {m["name"] for m in SPEC["per_layer"]}


def test_wrappers_restore_the_originals():
    targets = layers._targets()
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    layers.install()
    assert all(
        vars(owner)[attr] is not orig
        for (owner, attr, _), orig in zip(targets, before)
    )
    assert layers.uninstall() == []
    assert [vars(owner)[attr] for owner, attr, _ in targets] == before


def test_self_time_subtracts_direct_children():
    rec = layers.Recorder()
    for name, parent, start, end in (
        ("framework.study", -1, 0.0, 10.0),
        ("exec.run_tasks", 0, 1.0, 9.0),
        ("sim.app", 1, 2.0, 5.0),
    ):
        rec.names.append(layers.SPAN_NAMES.index(name))
        rec.parents.append(parent)
        rec.starts.append(start)
        rec.ends.append(end)
    metrics, table = layers.analyse(rec, wall_s=12.0)
    assert metrics["framework.study_self_s"][0] == pytest.approx(2.0)
    assert metrics["exec.run_tasks_s"][0] == pytest.approx(8.0)
    assert metrics["sim.app_self_s"][0] == pytest.approx(3.0)
    assert metrics["trace.unattributed_s"][0] == pytest.approx(2.0)
    shares = {row[0]: row[2] for row in table}
    assert shares["exec"] == pytest.approx(5.0 / 12.0)


def _stored(refs: dict, seed: str = "2012") -> tuple[str, dict]:
    entry = refs["seeds"][seed]["robustness"]
    return entry["stdout"], entry


def test_checker_accepts_the_reference_output():
    refs = check.load_references()
    stdout, _ = _stored(refs)
    assert check.check_output("robustness", 2012, 0, stdout, refs) == []
    # Unreferenced seed: only the seed-free checks apply.
    assert check.check_output("robustness", 987654, 0, stdout, refs) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r["seeds"]["2012"]["robustness"]["verdicts"].__setitem__(0, "app1/case1=WF"),
        lambda r: r["seeds"]["2012"]["robustness"].__setitem__("rho", ["74.47", "20.00"]),
        lambda r: r.__setitem__("rho1", 0.70),
        lambda r: r["cells"].__setitem__("robustness", 13),
    ],
    ids=["verdict", "rho2", "analytic-rho1", "cell-count"],
)
def test_checker_rejects_a_doctored_reference(doctor):
    refs = check.load_references()
    stdout, _ = _stored(refs)
    doctored = copy.deepcopy(refs)
    doctor(doctored)
    assert check.check_output("robustness", 2012, 0, stdout, doctored)


def test_checker_rejects_a_failed_or_truncated_run():
    refs = check.load_references()
    stdout, _ = _stored(refs)
    assert check.check_output("robustness", 2012, 1, stdout, refs)
    assert check.check_output("robustness", 2012, 0, stdout.splitlines()[0], refs)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_end_to_end_output_schema():
    proc = _run("--workload", "static", "--seed", "3", "--seconds", "0", "--trace", "0")
    result = _result(proc)
    _assert_schema(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_schema_and_counts():
    proc = _run("--workload", "static", "--seed", "3", "--trace", "1")
    result = _result(proc)
    _assert_schema(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.simulations"] == 360
    assert metrics["sim.chunks"] == 1800
    assert metrics["ra.evaluations"] == 153
    assert "layers of static" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("--workload", "static", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_slowness_is_the_mean_of_the_jobs_around_a_command(monkeypatch):
    jobs = iter([9.0, 1.0, 2.0, 1.5])
    monkeypatch.setattr(calibrate, "job_s", lambda: next(jobs))
    host = calibrate.HostSpeed()
    ref = calibrate.REF_JOB_S
    assert host.after_command() == pytest.approx(1.5 / ref)
    assert host.after_command() == pytest.approx(1.75 / ref)


def test_reference_job_runs_in_isolated_mode():
    assert calibrate.job_s() > 0
