"""Benchmark: disabled-mode cost of the observability layer.

Not a paper artifact — the performance contract of :mod:`repro.obs`. The
instrumentation stays in the code permanently, so its cost while
observation is *off* must be negligible. There is no uninstrumented build
to diff against, so the overhead is bounded from measurements we can
make:

1. time a representative stage-II workload with observation disabled;
2. micro-benchmark each disabled hook (``span``/``incr``/``observe_value``
   resolve to one global load + identity check);
3. count how many hook events that same workload actually fires (from an
   enabled run's own metrics);
4. bound: overhead <= events x per-hook cost, asserted < 5% of the
   workload's wall time.

An enabled-vs-disabled wall-clock comparison is reported alongside for
context (enabled mode is allowed to cost more; it is not gated). Results
are archived as ``benchmarks/results/obs_overhead.json``.
"""

from __future__ import annotations

import json
import time

import repro.obs as obs
from repro.apps import Application, normal_exectime_model
from repro.dls import make_technique
from repro.pmf import percent_availability
from repro.sim import LoopSimConfig, simulate_application
from repro.system import HeterogeneousSystem, ProcessorType

CONFIG = LoopSimConfig(overhead=1.0, availability_interval=500.0)

#: The disabled-mode overhead budget from the issue: < 5% of wall time.
BUDGET = 0.05


def make_case(n_parallel: int = 8192, p: int = 8):
    system = HeterogeneousSystem(
        [
            ProcessorType(
                "t", 16,
                availability=percent_availability([(50, 50), (100, 50)]),
            )
        ]
    )
    app = Application(
        "obs-bench", 0, n_parallel,
        normal_exectime_model({"t": float(n_parallel)}),
        iteration_cv=0.1,
    )
    return app, system.group("t", p)


def workload():
    app, group = make_case()
    return simulate_application(
        app, group, make_technique("FAC"), seed=1, config=CONFIG
    )


def timeit(fn, rounds: int = 3) -> float:
    """Best-of-N wall time (best-of suppresses scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def disabled_hook_cost(calls: int = 200_000) -> float:
    """Mean seconds per disabled hook invocation (span + counter + histo)."""
    assert not obs.obs_enabled()
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench"):
            pass
        obs.incr("bench.counter")
        obs.observe_value("bench.histogram", 1.0)
    elapsed = time.perf_counter() - t0
    return elapsed / (3 * calls)


def count_hook_events() -> int:
    """How many hook invocations one workload run fires (measured live)."""
    with obs.observed() as session:
        workload()
        snapshot = session.metrics.snapshot()
    spans = len(session.tracer.finished)
    counter_events = len(snapshot["counters"])  # one incr per counter name
    histogram_events = sum(
        h["count"] for h in snapshot["histograms"].values()
    )
    gauge_events = sum(g["updates"] for g in snapshot["gauges"].values())
    return spans + counter_events + histogram_events + gauge_events


def test_bench_obs_disabled_overhead(results_dir, benchmark):
    if obs.obs_enabled():  # pragma: no cover - REPRO_OBS leaking into bench
        obs.stop(export=False)

    disabled_wall = timeit(workload)
    per_hook = disabled_hook_cost()
    events = count_hook_events()
    bound = events * per_hook / disabled_wall

    def observed_workload():
        with obs.observed():
            workload()

    enabled_wall = timeit(observed_workload)

    result = {
        "workload": "simulate_application(FAC, 8192 iterations, 8 workers)",
        "disabled_wall_s": disabled_wall,
        "enabled_wall_s": enabled_wall,
        "hook_events_per_run": events,
        "disabled_cost_per_hook_s": per_hook,
        "disabled_overhead_bound": bound,
        "budget": BUDGET,
    }
    (results_dir / "obs_overhead.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print()
    print(
        f"obs overhead: {events} hook events x {per_hook * 1e9:.0f} ns "
        f"= {100 * bound:.3f}% of {disabled_wall * 1e3:.1f} ms "
        f"(budget {100 * BUDGET:.0f}%)"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert bound < BUDGET, (
        f"disabled observability costs {100 * bound:.2f}% of the workload "
        f"({events} events x {per_hook * 1e9:.0f} ns); budget is "
        f"{100 * BUDGET:.0f}%"
    )
