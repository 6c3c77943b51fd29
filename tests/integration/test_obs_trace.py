"""Integration: a traced CDSF run emits the full observability picture.

This is the ISSUE's acceptance scenario: running scenario 4 (robust IM +
robust RAs) under an observation session must produce a JSONL trace with
nested stage-I/stage-II spans, per-technique chunk counters, and PMF
support-size histograms.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.framework import Scenario, run_scenario
from repro.obs import read_trace
from repro.paper import paper_cases, paper_cdsf


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "cdsf.jsonl"
    with obs.observed(trace_path=path) as session:
        result = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            paper_cdsf(replications=2, seed=1),
            paper_cases(),
        )
        snapshot = session.metrics.snapshot()
    return result, read_trace(path), snapshot


class TestTracedRun:
    def test_session_closed(self, traced_run):
        assert not obs.obs_enabled()

    def test_meta_header(self, traced_run):
        _, records, _ = traced_run
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == obs.TRACE_SCHEMA_VERSION
        assert meta["open_spans"] == 0
        assert meta["records"] == len(records) - 1

    def test_stage_spans_nested_under_run(self, traced_run):
        _, records, _ = traced_run
        spans = {
            r["id"]: r for r in records if r["type"] == "span"
        }
        by_name: dict[str, list[dict]] = {}
        for span in spans.values():
            by_name.setdefault(span["name"], []).append(span)
        (run,) = by_name["cdsf.run"]
        (stage_i,) = by_name["cdsf.stage_i"]
        (stage_ii,) = by_name["cdsf.stage_ii"]
        assert run["parent"] is None
        assert stage_i["parent"] == run["id"]
        assert stage_ii["parent"] == run["id"]
        # stage I before stage II, both inside the run's interval
        assert run["start"] <= stage_i["start"] <= stage_i["end"]
        assert stage_i["end"] <= stage_ii["start"]
        assert stage_ii["end"] <= run["end"]

    def test_simulation_spans_nest_to_apps(self, traced_run):
        _, records, _ = traced_run
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        cases = [s for s in spans.values() if s["name"] == "study.case"]
        apps = [s for s in spans.values() if s["name"] == "sim.app"]
        assert len(cases) == 4  # one per availability case
        assert apps, "expected per-application simulation spans"
        for app in apps:
            replicate = spans[app["parent"]]
            assert replicate["name"] == "sim.replicate"
            case = spans[replicate["parent"]]
            assert case["name"] == "study.case"
            techniques = replicate["attrs"]["techniques"].split(",")
            assert app["attrs"]["technique"] in techniques

    def test_per_technique_chunk_counters(self, traced_run):
        _, records, snapshot = traced_run
        counters = snapshot["counters"]
        for technique in ("FAC", "WF", "AWF-B", "AF"):
            name = f"dls.chunks.{technique}"
            assert counters.get(name, 0) > 0, name
        trace_counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert trace_counters["dls.chunks.FAC"] == counters["dls.chunks.FAC"]

    def test_pmf_support_histogram(self, traced_run):
        _, records, snapshot = traced_run
        hist = snapshot["histograms"]["pmf.support"]
        assert hist["count"] > 0
        assert hist["min"] >= 1.0
        (record,) = [
            r
            for r in records
            if r["type"] == "histogram" and r["name"] == "pmf.support"
        ]
        assert record["count"] == hist["count"]

    def test_pipeline_gauges(self, traced_run):
        result, _, snapshot = traced_run
        gauges = snapshot["gauges"]
        assert gauges["cdsf.rho1"]["last"] == result.robustness.rho1
        assert gauges["cdsf.rho2"]["last"] == result.robustness.rho2
        assert gauges["cdsf.stage_i_seconds"]["last"] > 0
        assert gauges["cdsf.stage_ii_seconds"]["last"] > 0

    def test_tracing_does_not_change_results(self, traced_run):
        traced_result, _, _ = traced_run
        plain = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            paper_cdsf(replications=2, seed=1),
            paper_cases(),
        )
        assert plain.robustness == traced_result.robustness


class TestTimelineRoundTrip:
    """The persisted trace is enough to rebuild exact worker timelines."""

    def test_file_timelines_match_span_attributes(self, traced_run):
        from repro.obs import timelines_from_records

        _, records, _ = traced_run
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        timelines = timelines_from_records(records)
        assert timelines, "no timelines reconstructed from the trace"
        for timeline in timelines:
            attrs = spans[timeline.span_id]["attrs"]
            # The sim.app span records its result post-hoc; the timeline
            # rebuilt from chunk events must agree with it exactly.
            assert timeline.app == attrs["app"]
            assert timeline.technique == attrs["technique"]
            assert timeline.start == pytest.approx(attrs["serial_time"])
            assert timeline.makespan == pytest.approx(attrs["makespan"])
            assert timeline.stats().n_chunks == attrs["chunks"]
            assert timeline.case is not None  # study.case ancestor found

    def test_faulted_run_round_trips_requeues(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.obs import timeline_from_result, timelines_from_records
        from repro.sim import LoopSimConfig, simulate_application
        from repro.apps import Application, normal_exectime_model
        from repro.dls import make_technique
        from repro.system import HeterogeneousSystem, ProcessorType

        system = HeterogeneousSystem([ProcessorType("t", 4)])
        app = Application(
            "fapp", 20, 400, normal_exectime_model({"t": 420.0}, cv=0.1)
        )
        config = LoopSimConfig(faults=FaultPlan.chaos(3e-3))
        path = tmp_path / "faulted.jsonl"
        results = []
        with obs.observed(trace_path=path):
            for seed in range(6):
                results.append(
                    simulate_application(
                        app, system.group("t", 4), make_technique("FAC"),
                        seed=seed, config=config,
                    )
                )
        timelines = timelines_from_records(read_trace(path))
        assert len(timelines) == len(results)
        assert any(r.rescheduled_iterations > 0 for r in results), (
            "chaos plan never requeued work; raise the rate"
        )
        for timeline, result in zip(timelines, results):
            expected = timeline_from_result(result)
            assert timeline.worker_finish_times() == pytest.approx(
                expected.worker_finish_times()
            )
            assert timeline.load_imbalance() == result.load_imbalance()
            stats = timeline.stats()
            assert stats.crashes == len(result.crashed_workers)
            assert stats.requeued == result.rescheduled_iterations

    def test_pool_adopted_chunk_events_rebuild_timelines(self, tmp_path):
        from repro.dls import make_technique
        from repro.exec import ProcessPoolBackend
        from repro.obs import timelines_from_records
        from repro.sim import replicate_application
        from repro.apps import Application, normal_exectime_model
        from repro.system import HeterogeneousSystem, ProcessorType

        system = HeterogeneousSystem([ProcessorType("t", 4)])
        app = Application(
            "papp", 10, 200, normal_exectime_model({"t": 210.0}, cv=0.1)
        )
        path = tmp_path / "pool.jsonl"
        backend = ProcessPoolBackend(2)
        try:
            with obs.observed(trace_path=path):
                serial = replicate_application(
                    app, system.group("t", 4), make_technique("FAC"),
                    replications=4, seed=3,
                )
                pooled = replicate_application(
                    app, system.group("t", 4), make_technique("FAC"),
                    replications=4, seed=3, backend=backend,
                )
        finally:
            backend.close()
        assert pooled.makespans == serial.makespans
        records = read_trace(path)
        timelines = timelines_from_records(records)
        # 4 serial replicates + 4 adopted from pool workers.
        assert len(timelines) == 8
        serial_tl, pooled_tl = timelines[:4], timelines[4:]
        assert sorted(t.makespan for t in pooled_tl) == pytest.approx(
            sorted(t.makespan for t in serial_tl)
        )
        assert sorted(t.load_imbalance() for t in pooled_tl) == pytest.approx(
            sorted(t.load_imbalance() for t in serial_tl)
        )
        chunk_events = [
            r for r in records
            if r["type"] == "event" and r["name"] == "sim.chunk"
        ]
        stamped = [e for e in chunk_events if "worker" in e["attrs"]]
        assert len(stamped) == len(chunk_events)
