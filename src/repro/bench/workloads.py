"""The registered benchmark workloads.

Each workload is a seconds-scale slice of one subsystem the performance
roadmap targets — small enough that ``repro bench run`` finishes in CI
smoke time, large enough that a real kernel regression moves the number:

* ``pmf-convolve`` / ``pmf-dilate`` — the stage-I PMF algebra kernels
  (the outer-product combine the vectorization work will rewrite);
* ``sim-fac`` / ``sim-awf`` / ``sim-chaos`` — the stage-II loop-simulator
  inner loop, non-adaptive, adaptive, and under fault injection;
* ``sim-grid`` — the stage-II grid path: four techniques run against each
  replication's shared world under fault injection;
* ``stage1-genetic`` — the genetic stage-I search over the paper
  instance, dominated by the memoized evaluator;
* ``cli-startup`` — ``python -m repro tables`` in a fresh interpreter,
  so a heavy import on the start-up path shows.

Workloads must be **deterministic** (fixed seeds) so history records
measure the machine, not the workload, and **zero-argument** (the
registry calls them cold). Importing this module populates
:data:`repro.bench.registry.BENCHMARKS`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ..apps import Application, normal_exectime_model
from ..dls import make_technique
from ..faults import FaultPlan
from ..pmf import PMF, convolve_many, effective_completion_pmf, percent_availability
from ..sim import (
    LoopSimConfig,
    replicate_application,
    replication_seeds,
    run_replication_grid,
)
from ..system import HeterogeneousSystem, ProcessorGroup, ProcessorType
from .registry import bench

__all__ = ["make_sim_workload"]

_SEED = 2012

_SIM_CONFIG = LoopSimConfig(overhead=1.0, availability_interval=500.0)


def make_sim_workload(
    *, iterations: int = 2048, workers: int = 4
) -> tuple[Application, ProcessorGroup]:
    """A small FAC-scale simulation workload (shared by the sim benches)."""
    system = HeterogeneousSystem(
        [
            ProcessorType(
                "t", 16,
                availability=percent_availability([(50, 50), (100, 50)]),
            )
        ]
    )
    app = Application(
        "bench", 0, iterations,
        normal_exectime_model({"t": float(iterations)}),
        iteration_cv=0.1,
    )
    return app, system.group("t", workers)


def _sim_config(faults: FaultPlan | None) -> LoopSimConfig:
    if faults is None:
        return _SIM_CONFIG
    return LoopSimConfig(overhead=1.0, availability_interval=500.0, faults=faults)


def _replicate(technique: str, *, faults: FaultPlan | None = None) -> None:
    app, group = make_sim_workload()
    config = _sim_config(faults)
    replicate_application(
        app,
        group,
        make_technique(technique),
        replications=8,
        seed=_SEED,
        config=config,
    )


@bench(
    "pmf-convolve",
    description="chain of 6 outer-product convolutions, 64-point operands",
)
def pmf_convolve() -> None:
    values = np.linspace(50.0, 150.0, 64)
    probs = np.full(64, 1.0 / 64)
    operand = PMF(values, probs)
    for _ in range(4):
        convolve_many([operand] * 6)


@bench(
    "pmf-dilate",
    description="Amdahl transform + availability dilation, 128-point PMF",
)
def pmf_dilate() -> None:
    values = np.linspace(800.0, 1200.0, 128)
    probs = np.full(128, 1.0 / 128)
    time_pmf = PMF(values, probs)
    avail = percent_availability([(25, 10), (50, 40), (75, 30), (100, 20)])
    for _ in range(24):
        for n in (4, 8, 16, 32):
            effective_completion_pmf(time_pmf, 0.05, n, avail)


@bench(
    "sim-fac",
    description="8 FAC replications, 2048 iterations on 4 workers",
)
def sim_fac() -> None:
    _replicate("FAC")


@bench(
    "sim-awf",
    description="8 AWF-C replications (adaptive weighting inner loop)",
)
def sim_awf() -> None:
    _replicate("AWF-C")


@bench(
    "sim-chaos",
    tolerance=0.35,
    description="8 FAC replications under chaos-mode fault injection",
)
def sim_chaos() -> None:
    _replicate("FAC", faults=FaultPlan.chaos(1e-3))


@bench(
    "sim-grid",
    tolerance=0.35,
    description="8 replications of FAC/WF/AWF-B/AF on shared worlds, chaos mode",
)
def sim_grid() -> None:
    app, group = make_sim_workload()
    run_replication_grid(
        app,
        group,
        [make_technique(name) for name in ("FAC", "WF", "AWF-B", "AF")],
        replication_seeds(_SEED, 8),
        config=_sim_config(FaultPlan.chaos(1e-3)),
    )


@bench(
    "stage1-genetic",
    description="genetic stage-I search on the paper instance (memoized)",
)
def stage1_genetic() -> None:
    from ..paper import data, paper_batch, paper_system
    from ..ra import GeneticAllocator, StageIEvaluator

    evaluator = StageIEvaluator(
        paper_batch(), paper_system("case1"), data.DEADLINE
    )
    GeneticAllocator(population=16, generations=30, rng=_SEED).allocate(
        evaluator
    )


@bench(
    "cli-startup",
    tolerance=0.35,
    description="`python -m repro tables` as a subprocess (start-up included)",
)
def cli_startup() -> None:
    # The child imports this checkout's package and sees no REPRO_*
    # setting, so it neither traces nor records a run directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2])
    subprocess.run(
        [sys.executable, "-m", "repro", "tables"],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
