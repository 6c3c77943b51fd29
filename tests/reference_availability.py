"""Reference implementations of the availability integration.

These are the straightforward ``np.searchsorted`` versions of
:meth:`AvailabilityProcess.level_at`, :meth:`~AvailabilityProcess.finish_time`
and the fully vectorized :meth:`~AvailabilityProcess.finish_times`, with no
fast path. Tests compare the library's hot path against them bit for bit;
``reference_finish_times`` has the method's signature, so it can also be
monkeypatched onto :class:`AvailabilityProcess`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.system import AvailabilityProcess

_EPS = 1e-12


def reference_level_at(proc: AvailabilityProcess, t: float) -> float:
    if t < 0:
        raise SimulationError(f"time must be non-negative, got {t}")
    proc._extend_to(t)
    idx = int(np.searchsorted(proc._ends, t, side="right"))
    idx = min(idx, len(proc._levels) - 1)
    return proc._levels[idx]


def reference_finish_time(
    proc: AvailabilityProcess, start: float, work: float
) -> float:
    if start < 0:
        raise SimulationError(f"start time must be non-negative, got {start}")
    if work < 0:
        raise SimulationError(f"work must be non-negative, got {work}")
    if work == 0:
        return start
    t = start
    remaining = work
    proc._extend_to(t)
    idx = int(np.searchsorted(proc._ends, t, side="right"))
    while True:
        if idx >= len(proc._levels):
            proc._extend_to(proc._ends[-1] if proc._ends else 0.0)
        seg_end = proc._ends[idx]
        rate = proc._capacity * proc._levels[idx]
        span = seg_end - t
        capacity_here = rate * span
        if capacity_here >= remaining - _EPS * max(1.0, work):
            return t + remaining / rate
        remaining -= capacity_here
        t = seg_end
        idx += 1


def reference_finish_times(
    proc: AvailabilityProcess, start: float, cumulative_works: np.ndarray
) -> np.ndarray:
    works = np.asarray(cumulative_works, dtype=np.float64)
    if works.size == 0:
        return np.empty(0)
    if np.any(np.diff(works) < 0):
        raise SimulationError("cumulative_works must be non-decreasing")
    if works[0] < 0:
        raise SimulationError("cumulative work must be non-negative")
    total = float(works[-1])
    overall_finish = reference_finish_time(proc, start, total)
    proc._extend_to(overall_finish)
    ends, levels = proc._as_arrays()
    rates = proc._capacity * levels
    first = int(np.searchsorted(ends, start, side="right"))
    seg_ends = ends[first:]
    seg_rates = rates[first:]
    starts = np.concatenate(([start], seg_ends[:-1]))
    seg_work = seg_rates * (seg_ends - starts)
    cum_work = np.concatenate(([0.0], np.cumsum(seg_work)))
    idx = np.searchsorted(cum_work[1:], works, side="left")
    idx = np.minimum(idx, len(seg_rates) - 1)
    return starts[idx] + (works - cum_work[idx]) / seg_rates[idx]
