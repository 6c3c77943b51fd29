"""Tests for worker-timeline reconstruction (repro.obs.timeline)."""

from __future__ import annotations

import itertools
import json

import pytest

import repro.obs as obs
from repro.apps import Application, normal_exectime_model
from repro.dls import make_technique
from repro.obs import (
    AppTimeline,
    ChunkInterval,
    TimelineEvent,
    WorkerTimeline,
    chrome_trace_events,
    timeline_from_result,
    timelines_from_records,
    write_chrome_trace,
)
from repro.pmf import percent_availability
from repro.sim import LoopSimConfig, simulate_application
from repro.system import HeterogeneousSystem, ProcessorType


@pytest.fixture(autouse=True)
def _no_leaked_session():
    if obs.obs_enabled():
        obs.stop(export=False)
    yield
    if obs.obs_enabled():
        obs.stop(export=False)


def _paper_like_setup():
    system = HeterogeneousSystem(
        [
            ProcessorType(
                "t", 4,
                availability=percent_availability([(50, 30), (100, 70)]),
            )
        ]
    )
    app = Application(
        "app1", 20, 420,
        normal_exectime_model({"t": 440.0}, cv=0.2),
        iteration_cv=0.2,
    )
    return app, system.group("t", 4)


def _simulate(technique_name: str, *, seed: int = 7, faults=None):
    app, group = _paper_like_setup()
    config = LoopSimConfig(faults=faults)
    return simulate_application(
        app, group, make_technique(technique_name), seed=seed, config=config
    )


# ----------------------------------------------------- from AppRunResult


class TestTimelineFromResult:
    def test_matches_result_accessors(self):
        result = _simulate("FAC")
        timeline = timeline_from_result(result)
        assert timeline.app == "app1"
        assert timeline.technique == "FAC"
        assert timeline.group_size == 4
        assert timeline.start == result.serial_time
        assert timeline.makespan == pytest.approx(result.makespan)
        assert timeline.worker_finish_times() == pytest.approx(
            result.worker_finish_times
        )
        assert timeline.load_imbalance() == result.load_imbalance()

    def test_iterations_and_chunks_conserved(self):
        result = _simulate("FAC")
        timeline = timeline_from_result(result)
        stats = timeline.stats()
        assert stats.iterations == result.iterations_executed
        assert stats.n_chunks == len(result.chunks)
        assert 0.0 < stats.utilization <= 1.0
        assert 0.0 <= stats.idle_fraction < 1.0

    def test_critical_worker_is_last_finisher(self):
        result = _simulate("FAC")
        timeline = timeline_from_result(result)
        expected = max(
            result.worker_finish_times,
            key=lambda w: result.worker_finish_times[w],
        )
        assert timeline.critical_worker() == expected

    def test_static_more_imbalanced_than_fac(self):
        """STATIC has no runtime feedback, so under stochastic availability
        its finish-time balance is worse than FAC's (the paper's DLS
        quality ordering) — averaged over seeds on this fixed setup."""
        static_cv = []
        fac_cv = []
        for seed in range(5):
            static_cv.append(
                timeline_from_result(
                    _simulate("STATIC", seed=seed)
                ).load_imbalance()
            )
            fac_cv.append(
                timeline_from_result(
                    _simulate("FAC", seed=seed)
                ).load_imbalance()
            )
        assert sum(static_cv) > sum(fac_cv)


# --------------------------------------------------------- from records


class TestTimelinesFromRecords:
    def _traced(self, technique: str, *, faults=None, seed: int = 7):
        with obs.observed() as session:
            result = _simulate(technique, seed=seed, faults=faults)
            records = session.tracer.records()
        return result, records

    def test_round_trip_equals_in_memory(self):
        result, records = self._traced("FAC")
        (timeline,) = timelines_from_records(records)
        expected = timeline_from_result(result)
        assert timeline.app == expected.app
        assert timeline.technique == expected.technique
        assert timeline.group_size == expected.group_size
        assert timeline.start == pytest.approx(expected.start)
        assert timeline.makespan == pytest.approx(expected.makespan)
        assert timeline.worker_finish_times() == pytest.approx(
            expected.worker_finish_times()
        )
        assert timeline.load_imbalance() == pytest.approx(
            expected.load_imbalance()
        )
        for got, want in zip(timeline.workers, expected.workers):
            assert got.worker_id == want.worker_id
            assert got.intervals == want.intervals

    def test_no_chunk_events_yields_no_timelines(self):
        records = [
            {"type": "span", "id": 1, "parent": None, "name": "sim.app",
             "start": 0.0, "end": 1.0, "duration": 1.0, "attrs": {}},
        ]
        assert timelines_from_records(records) == []

    def test_case_attribute_comes_from_ancestor_span(self):
        with obs.observed() as session:
            with obs.span("study.case", case="case2"):
                self_result = _simulate("FAC")
            records = session.tracer.records()
        (timeline,) = timelines_from_records(records)
        assert timeline.case == "case2"
        assert self_result.app_name == timeline.app

    def test_requeued_chunks_under_chaos(self):
        from repro.faults import FaultPlan

        # A rate high enough to crash workers on this ~10^3-unit run.
        plan = FaultPlan.chaos(3e-3)
        found = False
        for seed in range(8):
            result, records = self._traced("FAC", faults=plan, seed=seed)
            (timeline,) = timelines_from_records(records)
            expected = timeline_from_result(result)
            stats = timeline.stats()
            assert stats.crashes == len(result.crashed_workers)
            assert stats.requeued == result.rescheduled_iterations
            assert stats.iterations == result.iterations_executed
            assert timeline.makespan == pytest.approx(result.makespan)
            assert timeline.load_imbalance() == pytest.approx(
                expected.load_imbalance()
            )
            if result.rescheduled_iterations > 0:
                found = True
        assert found, "chaos plan never requeued a chunk across 8 seeds"


# -------------------------------------------------------- chrome export


class TestChromeTrace:
    def _timelines(self):
        with obs.observed() as session:
            _simulate("FAC")
            _simulate("AWF-B")
            records = session.tracer.records()
        return timelines_from_records(records)

    def test_events_sorted_and_monotone_per_track(self):
        events = chrome_trace_events(self._timelines())
        timed = [e for e in events if e["ph"] != "M"]
        assert timed, "no trace events emitted"
        assert all(
            a["ts"] <= b["ts"] for a, b in itertools.pairwise(timed)
        )
        tracks: dict[tuple, list[dict]] = {}
        for e in timed:
            if e["ph"] == "X":
                tracks.setdefault((e["pid"], e["tid"]), []).append(e)
        for track in tracks.values():
            for a, b in itertools.pairwise(track):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-9

    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace_events(self._timelines())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert process_names == {"app1/FAC", "app1/AWF-B"}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        target = write_chrome_trace(
            tmp_path / "trace.json", self._timelines()
        )
        payload = json.loads(target.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]


# ------------------------------------------------------- dataclass maths


class TestTimelineMaths:
    def _timeline(self):
        workers = (
            WorkerTimeline(
                worker_id=0,
                intervals=(
                    ChunkInterval(0, 4, request=10.0, start=11.0, finish=15.0),
                    ChunkInterval(0, 2, request=15.0, start=16.0, finish=20.0),
                ),
            ),
            WorkerTimeline(
                worker_id=1,
                intervals=(
                    ChunkInterval(1, 6, request=10.0, start=11.0, finish=21.0),
                ),
            ),
            WorkerTimeline(worker_id=2, intervals=()),
        )
        return AppTimeline(
            app="a",
            technique="FAC",
            case=None,
            group_size=3,
            start=10.0,
            workers=workers,
            events=(
                TimelineEvent(
                    name="sim.requeue", time=12.0, worker_id=None,
                    attributes={"size": 3},
                ),
                TimelineEvent(name="sim.crash", time=12.0, worker_id=2),
            ),
        )

    def test_basic_stats(self):
        t = self._timeline()
        assert t.makespan == 21.0
        # Worker 2 never worked: finish = loop start.
        assert t.worker_finish_times() == {0: 20.0, 1: 21.0, 2: 10.0}
        stats = t.stats()
        assert stats.iterations == 12
        assert stats.n_chunks == 3
        assert stats.crashes == 1
        assert stats.requeued == 3
        assert stats.critical_worker == 1

    def test_busy_idle_overhead_partition(self):
        t = self._timeline()
        loop_time = t.makespan - t.start  # 11
        for w in t.workers:
            busy = w.busy_time
            overhead = w.overhead_time
            idle = w.idle_time(t.start, t.makespan)
            assert busy + overhead + idle == pytest.approx(loop_time)

    def test_load_imbalance_matches_cv(self):
        import math

        t = self._timeline()
        finishes = [20.0, 21.0, 10.0]
        mean = sum(finishes) / 3
        var = sum((f - mean) ** 2 for f in finishes) / 3
        assert t.load_imbalance() == pytest.approx(math.sqrt(var) / mean)

    def test_single_worker_imbalance_zero(self):
        t = AppTimeline(
            app="a", technique="FAC", case=None, group_size=1,
            start=0.0,
            workers=(
                WorkerTimeline(
                    worker_id=0,
                    intervals=(ChunkInterval(0, 1, 0.0, 1.0, 2.0),),
                ),
            ),
        )
        assert t.load_imbalance() == 0.0
