"""The benchmark's workloads: which paper command each runs.

Every workload is one ``python -m repro`` invocation; the benchmark seed is
passed to it as ``--seed``. Why each was chosen is its ``why`` in
``BENCHMARK.json``. ``PREDICTIONS`` records, before any change is
measured, which end-to-end metric each per-layer metric should move and on
which workload, so a later speed claim can be checked against the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2012


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``python -m repro`` arguments before the seed is appended.
    argv: tuple[str, ...]
    #: Workload whose stdout this one must reproduce byte for byte; its
    #: stored reference (see ``check.py``) also checks this one.
    same_stdout_as: str | None = None
    #: CPUs the command may use; the benchmark keeps to the first ones.
    cpus: int = 1

    @property
    def reference(self) -> str:
        return self.same_stdout_as or self.name

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


#: All four run with ``--workload`` and ``--all``; only ``chaos`` and
#: ``static`` are in ``BENCHMARK.json``, so only they are gated. On the
#: 2-vCPU host the benchmark was built on, host speed drifted by up to 2x
#: over seconds to minutes; times are divided by the host's slowness
#: measured between commands (``calibrate.py``), and a run reports the
#: median over its commands. So ``chaos`` runs 10 replications, not the
#: paper's 30, which fits six commands in a 40 s run instead of two: the
#: same per-chunk path as ``robustness`` (plus faults), covering every
#: layer but the pool; ``static`` bypasses that path.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="robustness",
            argv=("robustness",),
        ),
        Workload(
            name="chaos",
            argv=("scenario", "4", "--replications", "10", "--faults",
                  "--fault-rate", "3e-4"),
        ),
        Workload(
            name="pool",
            argv=("--workers", "2", "robustness"),
            same_stdout_as="robustness",
            cpus=2,
        ),
        Workload(
            name="static",
            argv=("scenario", "2"),
        ),
    )
}

#: Snippet a fresh interpreter runs to time set-up: import the CLI and
#: build the workload's inputs, run no stage. ``{seed}`` and ``{chaos}``
#: are filled in per workload.
SETUP_SNIPPET = """\
import repro.cli
from dataclasses import replace
from repro.faults import FaultPlan
from repro.paper import paper_cases, paper_cdsf
from repro.paper.example import PAPER_SIM_CONFIG
sim = PAPER_SIM_CONFIG
if {chaos}:
    sim = replace(PAPER_SIM_CONFIG, faults=FaultPlan.chaos(3e-4))
paper_cdsf(seed={seed}, sim=sim)
paper_cases()
"""


def setup_code(workload: str, seed: int) -> str:
    return SETUP_SNIPPET.format(seed=int(seed), chaos=workload == "chaos")


#: layer metric -> (end-to-end metric it should move, workloads where it
#: should show). Written before any optimisation is measured.
PREDICTIONS: dict[str, tuple[str, str]] = {
    "cli.import_s": ("setup_s", "all; wall_s mostly on static"),
    "ra.stage1_s": ("wall_s", "static (about 0.01 s today)"),
    "ra.evaluations": ("wall_s", "static"),
    "framework.study_self_s": ("wall_s", "all, small"),
    "framework.cells": ("wall_s", "all, small"),
    "exec.run_tasks_s": ("wall_s, cpu_s", "pool; none on serial workloads"),
    "exec.tasks": ("wall_s, cpu_s", "pool"),
    "exec.task_bytes": ("wall_s, cpu_s", "pool"),
    "exec.result_bytes": ("wall_s, cpu_s", "pool"),
    "exec.worker_busy_s": ("wall_s, cpu_s", "pool"),
    "exec.idle_frac": ("wall_s", "pool"),
    "sim.simulations": ("wall_s", "robustness, chaos, pool; little on static"),
    "sim.app_self_s": ("wall_s", "robustness, chaos, pool; little on static"),
    "sim.app_p50_ms": ("wall_s", "robustness, chaos, pool"),
    "sim.app_p99_ms": ("wall_s", "robustness, chaos, pool"),
    "sim.loop_self_s": ("wall_s", "robustness, chaos, pool"),
    "sim.chunks": ("wall_s", "robustness, chaos, pool"),
    "sim.chunks_per_sim": ("wall_s", "robustness, chaos, pool"),
    "sim.execute_chunk_self_s": ("wall_s", "robustness, chaos, pool"),
    "sim.eventq_ops": ("wall_s", "robustness, chaos, pool"),
    "sim.eventq_s": ("wall_s", "robustness, chaos, pool"),
    "apps.draw_s": ("wall_s", "robustness, chaos, pool"),
    "apps.iterations_drawn": ("wall_s", "robustness, chaos, pool"),
    "system.finish_times_s": ("wall_s", "robustness (about 45% in-process)"),
    "system.finish_times_calls": ("wall_s", "robustness"),
    "dls.next_chunk_s": ("wall_s", "robustness, chaos, pool"),
    "dls.record_s": ("wall_s", "robustness, chaos, pool"),
    "dls.chunk_rule_calls": ("wall_s", "robustness, chaos, pool"),
    "faults.realize_s": ("wall_s", "chaos only"),
    "faults.degraded_s": ("wall_s", "chaos only"),
    "faults.crashes": ("wall_s", "chaos only"),
    "faults.degradations": ("wall_s", "chaos only"),
    "faults.rescheduled_iters": ("wall_s", "chaos only"),
    "faults.wasted_frac": ("wall_s", "chaos only"),
    "trace.wall_s": ("none", "checks the traced run itself"),
    "trace.overhead_frac": ("none", "checks the traced run itself"),
    "trace.unattributed_s": ("none", "checks the traced run itself"),
}
