"""Tests for the profilers (repro.obs.prof)."""

from __future__ import annotations

import json
import sys

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    ENV_PROF,
    PROFILE_SCHEMA_URL,
    Profile,
    SamplingProfiler,
    Tracer,
    best_of,
    perf_now,
    profile_from_spans,
    profiling_env_interval,
    span_self_times,
    speedscope_document,
)
from repro.obs.prof import (
    DEFAULT_SAMPLING_INTERVAL,
    OTHER_FRAME,
    stack_from_frame,
)


class FakeClock:
    """Deterministic clock ticking by a fixed step per read."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _span(id, name, start, end, parent=None, attrs=None):
    return {
        "type": "span",
        "id": id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "duration": end - start,
        "attrs": attrs or {},
    }


# -------------------------------------------------------- span self times


class TestSpanSelfTimesNested:
    def test_three_level_nesting_decomposes_exactly(self):
        records = [
            _span(1, "root", 0.0, 20.0),
            _span(2, "mid", 2.0, 18.0, parent=1),
            _span(3, "leaf", 4.0, 10.0, parent=2),
            _span(4, "leaf", 11.0, 16.0, parent=2),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["root"].self_time == pytest.approx(4.0)
        assert by_name["mid"].self_time == pytest.approx(5.0)
        assert by_name["leaf"].self_time == pytest.approx(11.0)
        total = sum(a.self_time for a in span_self_times(records))
        assert total == pytest.approx(20.0)

    def test_grandchild_does_not_subtract_from_grandparent(self):
        # leaf is a *grandchild* of root: only mid's duration may be
        # deducted from root, or root's self time double-discounts.
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "mid", 0.0, 8.0, parent=1),
            _span(3, "leaf", 0.0, 8.0, parent=2),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["root"].self_time == pytest.approx(2.0)
        assert by_name["mid"].self_time == pytest.approx(0.0)
        assert by_name["leaf"].self_time == pytest.approx(8.0)

    def test_real_tracer_nested_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {a.name: a for a in span_self_times(tracer.records())}
        # FakeClock: outer 0..3 (duration 3), inner 1..2 (duration 1).
        assert by_name["outer"].self_time == pytest.approx(2.0)
        assert by_name["inner"].self_time == pytest.approx(1.0)


class TestSpanSelfTimesAdopted:
    """Worker span trees grafted via adopt_records (the pool path)."""

    def _adopted_tracer(self):
        """Parent tracer that adopted a worker subtree under a graft span."""
        worker = Tracer(clock=FakeClock(start=100.0))
        with worker.span("sim.app"):
            with worker.span("sim.chunking"):
                pass
        parent = Tracer(clock=FakeClock())
        with parent.span("cdsf.run"):
            with parent.span("pool.collect") as collect:
                parent.adopt_records(
                    worker.records(), attributes={"worker": 3}
                )
        return parent, collect

    def test_adopted_subtree_subtracts_from_graft_parent_once(self):
        parent, collect = self._adopted_tracer()
        by_name = {a.name: a for a in span_self_times(parent.records())}
        # Worker clock: sim.app 100..103 (3s), sim.chunking 101..102 (1s).
        assert by_name["sim.app"].total == pytest.approx(3.0)
        assert by_name["sim.app"].self_time == pytest.approx(2.0)
        assert by_name["sim.chunking"].self_time == pytest.approx(1.0)
        # Only sim.app (the adopted root) deducts from pool.collect;
        # sim.chunking must not be double-counted against it.
        expected = collect.duration - 3.0
        assert by_name["pool.collect"].self_time == pytest.approx(
            max(0.0, expected)
        )

    def test_adoption_does_not_change_worker_aggregates(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("sim.app"):
            with worker.span("sim.chunking"):
                pass
        solo = {a.name: a for a in span_self_times(worker.records())}

        parent, _ = self._adopted_tracer()
        merged = {a.name: a for a in span_self_times(parent.records())}
        for name in ("sim.app", "sim.chunking"):
            assert merged[name].count == solo[name].count
            assert merged[name].self_time == pytest.approx(
                solo[name].self_time
            )

    def test_two_workers_adopted_both_counted(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("pool.collect"):
            for start in (50.0, 80.0):
                worker = Tracer(clock=FakeClock(start=start))
                with worker.span("sim.app"):
                    pass
                parent.adopt_records(worker.records())
        by_name = {a.name: a for a in span_self_times(parent.records())}
        assert by_name["sim.app"].count == 2
        assert by_name["sim.app"].total == pytest.approx(2.0)


# ------------------------------------------------------------ Profile core


class TestProfile:
    def test_add_accumulates_weight_and_count(self):
        p = Profile("p")
        p.add(("a", "b"), 0.5)
        p.add(("a", "b"), 0.25, count=3)
        p.add(("a",), 1.0)
        assert len(p) == 2
        assert p.stacks[("a", "b")] == pytest.approx(0.75)
        assert p.counts[("a", "b")] == 4
        assert p.total_weight == pytest.approx(1.75)

    def test_empty_stack_ignored(self):
        p = Profile("p")
        p.add((), 1.0)
        assert len(p) == 0

    def test_collapsed_format(self):
        p = Profile("p")
        p.add(("root", "leaf"), 0.002)
        p.add(("root",), 1e-9)  # floors at 1 microsecond
        lines = p.collapsed()
        assert lines == ["root 1", "root;leaf 2000"]


class TestProfileFromSpans:
    def test_stacks_are_name_paths_weighted_by_self_time(self):
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "mid", 2.0, 8.0, parent=1),
            _span(3, "leaf", 3.0, 7.0, parent=2),
        ]
        profile = profile_from_spans(records)
        assert profile.stacks == {
            ("root",): pytest.approx(4.0),
            ("root", "mid"): pytest.approx(2.0),
            ("root", "mid", "leaf"): pytest.approx(4.0),
        }
        assert profile.total_weight == pytest.approx(10.0)

    def test_repeated_spans_fold_into_one_stack(self):
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "chunk", 0.0, 3.0, parent=1),
            _span(3, "chunk", 4.0, 9.0, parent=1),
        ]
        profile = profile_from_spans(records)
        assert profile.stacks[("root", "chunk")] == pytest.approx(8.0)
        assert profile.counts[("root", "chunk")] == 2

    def test_unknown_parent_roots_its_own_stack(self):
        records = [_span(5, "orphan", 0.0, 2.0, parent=999)]
        profile = profile_from_spans(records)
        assert profile.stacks == {("orphan",): pytest.approx(2.0)}

    def test_open_spans_skipped(self):
        records = [
            _span(1, "root", 0.0, 4.0),
            {"type": "span", "id": 2, "parent": 1, "name": "open",
             "start": 1.0, "attrs": {}},
        ]
        profile = profile_from_spans(records)
        assert set(profile.stacks) == {("root",)}


class TestSpeedscopeDocument:
    def test_document_shape(self):
        p = Profile("spans")
        p.add(("a", "b"), 0.5)
        p.add(("a",), 0.5)
        doc = speedscope_document([p], name="test")
        assert doc["$schema"] == PROFILE_SCHEMA_URL
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert set(frames) == {"a", "b"}
        (entry,) = doc["profiles"]
        assert entry["type"] == "sampled"
        assert entry["unit"] == "seconds"
        assert entry["endValue"] == pytest.approx(1.0)
        index = {name: i for i, name in enumerate(frames)}
        assert [index["a"]] in entry["samples"]
        assert [index["a"], index["b"]] in entry["samples"]
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_frames_shared_across_profiles(self):
        p1, p2 = Profile("one"), Profile("two")
        p1.add(("a",), 1.0)
        p2.add(("a", "b"), 1.0)
        doc = speedscope_document([p1, p2])
        assert len(doc["shared"]["frames"]) == 2
        assert len(doc["profiles"]) == 2

    def test_empty_profiles_dropped(self):
        doc = speedscope_document([Profile("empty")])
        assert doc["profiles"] == []
        assert doc["shared"]["frames"] == []


# ------------------------------------------------------- sampling profiler


def _make_repro_frames(depth_cb):
    """Call ``depth_cb`` under two fake ``repro.*`` frames."""
    ns = {"__name__": "repro._proftest"}
    exec(
        "def outer(cb):\n"
        "    return inner(cb)\n"
        "def inner(cb):\n"
        "    return cb()\n",
        ns,
    )
    return ns["outer"](depth_cb)


class TestStackFromFrame:
    def test_keeps_repro_frames_drops_others(self):
        stack = _make_repro_frames(lambda: stack_from_frame(sys._getframe()))
        # The lambda and the pytest machinery are non-repro and dropped.
        assert stack == (
            "repro._proftest.outer",
            "repro._proftest.inner",
        )

    def test_no_repro_frames_collapses_to_other(self):
        assert stack_from_frame(sys._getframe()) == (OTHER_FRAME,)
        assert stack_from_frame(None) == (OTHER_FRAME,)


class TestProfilingEnvInterval:
    @pytest.mark.parametrize("value", [None, "", "  ", "0", "false", "off"])
    def test_disabled_values(self, value):
        assert profiling_env_interval(value) is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "ON"])
    def test_flag_values_use_default(self, value):
        assert profiling_env_interval(value) == DEFAULT_SAMPLING_INTERVAL

    def test_float_value_is_interval_seconds(self):
        assert profiling_env_interval("0.02") == pytest.approx(0.02)

    @pytest.mark.parametrize("value", ["soon", "-0.5", "1e"])
    def test_junk_and_nonpositive_raise(self, value):
        with pytest.raises(ObservabilityError, match=ENV_PROF):
            profiling_env_interval(value)


class TestSamplingProfiler:
    def test_context_manager_collects_samples(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            assert profiler.running
            while profiler.samples < 3:
                sum(range(200))
        assert not profiler.running
        assert profiler.samples >= 3

    def test_stop_returns_weighted_profile(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        # Poll the plain attribute: the ``samples`` property is a repro
        # frame, so a sample could land in it instead of OTHER_FRAME.
        while profiler._samples < 3:
            sum(range(500))
        profile = profiler.stop()
        assert profile.total_weight == pytest.approx(
            profiler.samples * profiler.interval
        )
        # All work here is outside repro, so samples land on OTHER_FRAME.
        assert set(profile.stacks) == {(OTHER_FRAME,)}

    def test_samples_attribute_repro_frames(self):
        profiler = SamplingProfiler(interval=0.001)

        def spin():
            while profiler.samples < 5:
                sum(range(200))

        profiler.start()
        _make_repro_frames(spin)
        profile = profiler.stop()
        repro_stacks = [
            s for s in profile.stacks if s and s[0].startswith("repro.")
        ]
        assert repro_stacks, "expected samples inside the repro frames"
        assert any("repro._proftest.inner" in s for s in repro_stacks)

    def test_double_start_raises(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        try:
            with pytest.raises(ObservabilityError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_before_start_raises(self):
        with pytest.raises(ObservabilityError, match="never started"):
            SamplingProfiler().stop()

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ObservabilityError, match="positive"):
            SamplingProfiler(interval=0.0)

    def test_restart_after_stop_allowed(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        profiler.stop()
        profiler.start()
        profiler.stop()


# --------------------------------------------------------- timing helpers


class TestTimingHelpers:
    def test_perf_now_monotonic(self):
        a = perf_now()
        b = perf_now()
        assert b >= a

    def test_best_of_counts_calls_and_orders_stats(self):
        calls = []
        best, mean = best_of(lambda: calls.append(1), rounds=4)
        assert len(calls) == 4
        assert 0.0 <= best <= mean

    def test_best_of_rejects_zero_rounds(self):
        with pytest.raises(ObservabilityError, match="round"):
            best_of(lambda: None, rounds=0)
