"""Per-layer tracing of one in-process CLI run, from outside the program.

:func:`install` replaces the functions each layer exposes with timing
wrappers, at the names their callers resolve: module globals of
``repro.sim.loopsim`` (``simulate_application``, ``run_parallel_loop``,
``degraded_boundaries``) and class attributes (``CDSF.run_stage_i``,
``AvailabilityProcess.finish_times``, ...). :func:`uninstall` puts every
original back and reports any attribute it could not restore. No file of
the program changes.

A span is (layer name, parent span, start, end), kept in memory in compact
arrays. Spans recorded in pool workers travel back with each task's result
(see :class:`TimedTask`) and are kept per process. A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import pickle
from array import array
from pathlib import Path
from time import perf_counter

#: Span names, in layer order; a span's layer is the part before the dot.
SPAN_NAMES = (
    "ra.stage1",
    "framework.study",
    "exec.run_tasks",
    "exec.task",
    "sim.app",
    "sim.loop",
    "sim.execute_chunk",
    "sim.eventq",
    "apps.draw",
    "system.finish_times",
    "dls.next_chunk",
    "dls.record",
    "faults.realize",
    "faults.degraded",
)
_NID = {name: i for i, name in enumerate(SPAN_NAMES)}
LAYERS = ("ra", "framework", "exec", "sim", "apps", "system", "dls", "faults")


class Recorder:
    """The spans and boundary counts of one process."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        #: (worker count, tasks, results) of every ``run_tasks`` call, for
        #: the pickled sizes computed after the run.
        self.batches: list[tuple[int, list, list]] = []
        #: Exported recorders of pool workers, one per task.
        self.foreign: list[dict] = []

    def open(self, nid: int) -> int:
        i = len(self.names)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def export(self) -> dict:
        return {
            "pid": os.getpid(),
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counts": self.counts,
        }


_active = Recorder()
_installed: list[tuple[object, str, object]] = []


def _wrap(fn, name: str, observe=None):
    nid = _NID[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _active
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if observe is not None:
            observe(rec, args, kwargs, result)
        return result

    return wrapper


class TimedTask:
    """A pool task that ships the worker's spans back with its result.

    The worker's wrappers are inherited through ``fork``; :func:`install`
    makes them under other start methods.
    """

    def __init__(self, task) -> None:
        self.task = task

    def run(self):
        global _active
        install()
        _active = Recorder()
        result = self.task.run()
        return result, _active.export()


def _wrap_run_tasks(fn, pooled: bool):
    nid = _NID["exec.run_tasks"]

    @functools.wraps(fn)
    def run_tasks(self, tasks):
        rec = _active
        tasks = list(tasks)
        shipped = [TimedTask(t) for t in tasks] if pooled else tasks
        i = rec.open(nid)
        try:
            out = fn(self, shipped)
        finally:
            rec.close(i)
        if pooled:
            rec.foreign += [spans for _, spans in out]
            out = [result for result, _ in out]
        rec.batches.append((self.workers, tasks, out))
        return out

    return run_tasks


def _on_stage1(rec, args, kwargs, result) -> None:
    rec.add("ra.evaluations", result.evaluations)


def _on_study(rec, args, kwargs, result) -> None:
    rec.add(
        "framework.cells",
        len(result.case_ids) * len(result.technique_names) * len(result.app_names),
    )


def _on_loop(rec, args, kwargs, result) -> None:
    rec.add("sim.executed_iters", result.executed)
    rec.add("faults.crashes", len(result.crashed))
    rec.add("faults.degradations", result.degradations)
    rec.add("faults.rescheduled_iters", result.rescheduled)


def _on_draw(rec, args, kwargs, result) -> None:
    rec.add("apps.iterations_drawn", len(result))


def _targets():
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from repro.apps.exectime import IterationTimeModel
    from repro.dls.base import SchedulingSession
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.exec.tasks import CandidateEvalTask, ReplicateTask
    from repro.faults.plan import FaultPlan
    from repro.framework.cdsf import CDSF
    from repro.framework.study import DLSStudy
    from repro.sim import loopsim
    from repro.sim.events import EventQueue
    from repro.sim.worker import SimWorker
    from repro.system.availability import AvailabilityProcess

    def span(name, observe=None):
        return lambda fn: _wrap(fn, name, observe)

    targets = [
        (CDSF, "run_stage_i", span("ra.stage1", _on_stage1)),
        (DLSStudy, "run", span("framework.study", _on_study)),
        (SerialBackend, "run_tasks", lambda fn: _wrap_run_tasks(fn, False)),
        (ProcessPoolBackend, "run_tasks", lambda fn: _wrap_run_tasks(fn, True)),
        (ReplicateTask, "run", span("exec.task")),
        (CandidateEvalTask, "run", span("exec.task")),
        (loopsim, "simulate_application", span("sim.app")),
        (loopsim, "run_parallel_loop", span("sim.loop", _on_loop)),
        (loopsim, "degraded_boundaries", span("faults.degraded")),
        (SimWorker, "execute_chunk", span("sim.execute_chunk")),
        (EventQueue, "push", span("sim.eventq")),
        (EventQueue, "pop", span("sim.eventq")),
        (FaultPlan, "realize", span("faults.realize")),
    ]
    # Overrides are wrapped too (STATIC's ``next_chunk`` calls the base
    # one, so its spans nest; self times stay exact).
    for base, attr, name, observe in (
        (SchedulingSession, "next_chunk", "dls.next_chunk", None),
        (SchedulingSession, "record", "dls.record", None),
        (AvailabilityProcess, "finish_times", "system.finish_times", None),
        (IterationTimeModel, "draw", "apps.draw", _on_draw),
    ):
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                targets.append((cls, attr, span(name, observe)))
    return targets


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    if _installed:
        return
    for owner, attr, factory in _targets():
        original = vars(owner)[attr]
        _installed.append((owner, attr, original))
        setattr(owner, attr, factory(original))


def uninstall() -> list[str]:
    """Restore every original; returns the attributes left wrapped."""
    for owner, attr, original in _installed:
        setattr(owner, attr, original)
    left = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in _installed
        if vars(owner)[attr] is not original
    ]
    _installed.clear()
    return left


def reset() -> Recorder:
    """Start a fresh in-memory recording and return it."""
    global _active
    _active = Recorder()
    return _active


# ------------------------------------------------------------------ analysis


def _process_stats(spans: dict) -> dict:
    """Per span name: count, outermost count, self-time sum, durations."""
    names, parents = spans["names"], spans["parents"]
    dur = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    stats = {
        name: {"count": 0, "outer": 0, "self": 0.0, "durations": []}
        for name in SPAN_NAMES
    }
    for i, nid in enumerate(names):
        st = stats[SPAN_NAMES[nid]]
        st["count"] += 1
        st["self"] += dur[i] - child[i]
        p = parents[i]
        if p < 0 or names[p] != nid:
            st["outer"] += 1
            st["durations"].append(dur[i])
    return stats


def _merge(into: dict, stats: dict) -> None:
    for name, st in stats.items():
        acc = into[name]
        acc["count"] += st["count"]
        acc["outer"] += st["outer"]
        acc["self"] += st["self"]
        acc["durations"] += st["durations"]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def analyse(rec: Recorder, wall_s: float) -> tuple[dict, list[tuple]]:
    """Per-layer metrics and the layer table of one traced run.

    Times summed over processes: in a pool run a layer's self time can
    exceed the run's wall time.
    """
    stats = _process_stats(rec.export())
    attributed = sum(st["self"] for st in stats.values())
    counts = dict(rec.counts)
    for spans in rec.foreign:
        _merge(stats, _process_stats(spans))
        for key, value in spans["counts"].items():
            counts[key] = counts.get(key, 0.0) + value

    def total(name):
        return sum(stats[name]["durations"])

    def self_s(name):
        return stats[name]["self"]

    sims = stats["sim.app"]["outer"]
    chunks = float(stats["sim.execute_chunk"]["count"])
    executed = counts.get("sim.executed_iters", 0.0)
    run_tasks = total("exec.run_tasks")
    busy = total("exec.task")
    workers = max((w for w, _, _ in rec.batches), default=1)
    capacity = workers * run_tasks
    app_ms = [d * 1e3 for d in stats["sim.app"]["durations"]]
    metrics = {
        "ra.stage1_s": (total("ra.stage1"), "s"),
        "ra.evaluations": (counts.get("ra.evaluations", 0.0), "count"),
        "framework.study_self_s": (self_s("framework.study"), "s"),
        "framework.cells": (counts.get("framework.cells", 0.0), "count"),
        "exec.run_tasks_s": (run_tasks, "s"),
        "exec.tasks": (float(sum(len(t) for _, t, _ in rec.batches)), "count"),
        "exec.task_bytes": (
            float(sum(len(pickle.dumps(x)) for _, t, _ in rec.batches for x in t)),
            "bytes",
        ),
        "exec.result_bytes": (
            float(sum(len(pickle.dumps(x)) for _, _, r in rec.batches for x in r)),
            "bytes",
        ),
        "exec.worker_busy_s": (busy, "s"),
        "exec.idle_frac": (1.0 - busy / capacity if capacity > 0 else 0.0, "ratio"),
        "sim.simulations": (float(sims), "count"),
        "sim.app_self_s": (self_s("sim.app"), "s"),
        "sim.app_p50_ms": (_percentile(app_ms, 0.50), "ms"),
        "sim.app_p99_ms": (_percentile(app_ms, 0.99), "ms"),
        "sim.loop_self_s": (self_s("sim.loop"), "s"),
        "sim.chunks": (chunks, "count"),
        "sim.chunks_per_sim": (chunks / sims if sims else 0.0, "count"),
        "sim.execute_chunk_self_s": (self_s("sim.execute_chunk"), "s"),
        "sim.eventq_ops": (float(stats["sim.eventq"]["count"]), "count"),
        "sim.eventq_s": (self_s("sim.eventq"), "s"),
        "apps.draw_s": (self_s("apps.draw"), "s"),
        "apps.iterations_drawn": (counts.get("apps.iterations_drawn", 0.0), "count"),
        "system.finish_times_s": (self_s("system.finish_times"), "s"),
        "system.finish_times_calls": (
            float(stats["system.finish_times"]["count"]), "count",
        ),
        "dls.next_chunk_s": (self_s("dls.next_chunk"), "s"),
        "dls.record_s": (self_s("dls.record"), "s"),
        "dls.chunk_rule_calls": (float(stats["dls.next_chunk"]["outer"]), "count"),
        "faults.realize_s": (self_s("faults.realize"), "s"),
        "faults.degraded_s": (self_s("faults.degraded"), "s"),
        "faults.crashes": (counts.get("faults.crashes", 0.0), "count"),
        "faults.degradations": (counts.get("faults.degradations", 0.0), "count"),
        "faults.rescheduled_iters": (
            counts.get("faults.rescheduled_iters", 0.0), "count",
        ),
        "faults.wasted_frac": (
            counts.get("faults.rescheduled_iters", 0.0) / executed
            if executed
            else 0.0,
            "ratio",
        ),
        "trace.unattributed_s": (wall_s - attributed, "s"),
    }
    table = []
    for layer in LAYERS:
        names = [n for n in SPAN_NAMES if n.startswith(layer + ".")]
        layer_self = sum(stats[n]["self"] for n in names)
        calls = sum(stats[n]["count"] for n in names)
        table.append((layer, layer_self, layer_self / wall_s, calls))
    rest = wall_s - attributed
    table.append(("(unattributed)", rest, rest / wall_s, 0))
    return metrics, table


def write_spans(rec: Recorder, path: Path) -> None:
    """Write the recorded spans of every process as gzipped JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        for spans in [rec.export(), *rec.foreign]:
            pid = spans["pid"]
            for nid, parent, start, end in zip(
                spans["names"], spans["parents"], spans["starts"], spans["ends"]
            ):
                out.write(
                    json.dumps([pid, SPAN_NAMES[nid], parent, start, end]) + "\n"
                )
