"""The availability hot path equals the reference integration bit for bit.

:meth:`AvailabilityProcess.finish_times` returns early when a chunk
completes inside the segment holding its start, and ``level_at`` /
``finish_time`` locate segments with :func:`bisect.bisect_right`. Each is
compared with the plain ``np.searchsorted`` reference in
``tests/reference_availability.py`` using exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.pmf import PMF
from repro.rng import ensure_rng
from repro.system import (
    ConstantAvailability,
    ResampledAvailability,
    TraceAvailability,
)
from tests.reference_availability import (
    reference_finish_time,
    reference_finish_times,
    reference_level_at,
)

levels = st.floats(0.05, 1.0)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["constant", "resampled", "trace"]))
    if kind == "constant":
        return ConstantAvailability(draw(levels))
    if kind == "resampled":
        n = draw(st.integers(1, 4))
        values = draw(st.lists(levels, min_size=n, max_size=n, unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        total = sum(weights)
        pmf = PMF(values, [w / total for w in weights], normalize=True)
        return ResampledAvailability(pmf, interval=draw(st.floats(0.5, 50.0)))
    n = draw(st.integers(1, 6))
    return TraceAvailability(
        tuple((draw(st.floats(0.5, 20.0)), draw(levels)) for _ in range(n))
    )


def twins(model, seed, capacity=1.0):
    """Two processes realizing the same trajectory."""
    return (
        model.spawn(seed, capacity=capacity),
        model.spawn(seed, capacity=capacity),
    )


cumulative = st.lists(st.floats(0.0, 40.0), min_size=1, max_size=25).map(
    lambda xs: np.cumsum(xs)
)


@settings(max_examples=80, deadline=None)
@given(
    models(),
    st.integers(0, 2**31),
    st.sampled_from([1.0, 0.5, 2.0, 3]),
    st.lists(st.tuples(st.floats(0.0, 30.0), cumulative), min_size=1, max_size=6),
)
def test_chunk_sequence_matches_reference(model, seed, capacity, chunks):
    """Back-to-back chunks, as the simulator issues them."""
    fast, ref = twins(model, seed, capacity)
    t = 0.0
    for gap, works in chunks:
        start = t + gap
        got = fast.finish_times(start, works)
        want = reference_finish_times(ref, start, works)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        t = float(got[-1])


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(0, 2**31), st.integers(0, 5), cumulative)
def test_start_on_segment_end(model, seed, which, works):
    fast, ref = twins(model, seed)
    fast._extend_to(200.0)
    ends = [e for e in fast._ends if np.isfinite(e)]
    if not ends:  # constant: one infinite segment, no finite end
        return
    start = ends[min(which, len(ends) - 1)]
    assert np.array_equal(
        fast.finish_times(start, works), reference_finish_times(ref, start, works)
    )


@settings(max_examples=100, deadline=None)
@given(
    models(),
    st.integers(0, 2**31),
    st.floats(0.0, 100.0),
    st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10),
)
def test_total_exactly_fills_segment(model, seed, start, fractions):
    """A chunk whose total equals the segment's capacity takes the fast path."""
    fast, ref = twins(model, seed)
    fast._extend_to(start)
    k = int(np.searchsorted(fast._ends, start, side="right"))
    capacity = fast.capacity * fast._levels[k] * (fast._ends[k] - start)
    if not np.isfinite(capacity):
        return
    works = np.array(sorted(f * capacity for f in fractions) + [capacity])
    assert np.array_equal(
        fast.finish_times(start, works), reference_finish_times(ref, start, works)
    )
    # One ulp more work crosses into the next segment.
    over = works.copy()
    over[-1] = np.nextafter(capacity, np.inf)
    fast2, ref2 = twins(model, seed)
    assert np.array_equal(
        fast2.finish_times(start, over), reference_finish_times(ref2, start, over)
    )


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(0, 2**31), st.floats(0.0, 300.0), st.floats(0.0, 80.0))
def test_single_iteration_chunk(model, seed, start, work):
    fast, ref = twins(model, seed)
    works = np.array([work])
    assert np.array_equal(
        fast.finish_times(start, works), reference_finish_times(ref, start, works)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.5, 20.0), levels), min_size=1, max_size=4),
    st.floats(0.0, 50.0),
    cumulative,
)
def test_last_trace_level_persists(segments, beyond, works):
    """Past the end of a trace its last level runs in one infinite segment."""
    model = TraceAvailability(tuple(segments))
    fast, ref = twins(model, 0)
    start = sum(d for d, _ in segments) + beyond
    got = fast.finish_times(start, works)
    assert np.array_equal(got, reference_finish_times(ref, start, works))
    assert np.array_equal(got, start + works / segments[-1][1])


@settings(max_examples=100, deadline=None)
@given(
    models(),
    st.integers(0, 2**31),
    st.lists(st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 80.0)), max_size=10),
)
def test_level_at_and_finish_time_match_searchsorted(model, seed, queries):
    fast, ref = twins(model, seed)
    for t, work in queries:
        assert fast.level_at(t) == reference_level_at(ref, t)
        assert fast.finish_time(t, work) == reference_finish_time(ref, t, work)
    fast._extend_to(100.0)
    for end in fast._ends[:5]:
        if np.isfinite(end):
            assert fast.level_at(end) == reference_level_at(ref, end)


@pytest.mark.parametrize(
    "start, works, match",
    [
        (-1.0, [1.0], "start time"),
        (float("nan"), [1.0], "start time"),
        (0.0, [-1.0], "non-negative"),
        (0.0, [2.0, 1.0], "non-decreasing"),
    ],
)
def test_fast_path_keeps_input_checks(start, works, match):
    proc = ConstantAvailability(0.5).spawn()
    with pytest.raises(SimulationError, match=match):
        proc.finish_times(start, np.array(works))


@st.composite
def availability_pmfs(draw):
    n = draw(st.integers(1, 8))
    values = draw(st.lists(levels, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return PMF(values, [w / total for w in weights], normalize=True)


@settings(max_examples=100, deadline=None)
@given(availability_pmfs(), st.integers(0, 2**64), st.floats(0.5, 50.0))
def test_resampled_levels_are_pmf_sample_draws(pmf, seed, interval):
    """The cached-CDF draw equals ``pmf.sample`` (``Generator.choice``)."""
    process = ResampledAvailability(pmf, interval=interval).spawn(seed)
    rng = ensure_rng(seed)
    for k in range(40):
        want = min(float(pmf.sample(rng)), 1.0)
        assert process.level_at((k + 0.5) * interval) == want
