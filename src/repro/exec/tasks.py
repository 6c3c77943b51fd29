"""Picklable task descriptions for the execution backends.

A task is a frozen, self-contained description of one unit of work: it
carries everything needed to compute its result (model objects, derived
seeds, configuration) and nothing about *where* it runs. ``task.run()``
in the parent process and ``task.run()`` in a pool worker are the same
pure function of the task's fields, which is what makes backend choice
invisible in the results.

Two task families cover the pipeline's embarrassingly parallel hot
loops:

* :class:`ReplicateTask` — a chunk of one application's stage-II
  replications: every DLS technique of the grid run on each of
  ``len(seeds)`` realized worlds of one application on one group;
* :class:`CandidateEvalTask` — a chunk of stage-I candidate
  allocations scored against a (batch, system, deadline) triple.

Imports of the simulator / evaluator are deferred into ``run()`` so the
:mod:`repro.exec` package stays import-light and cycle-free (the
simulator itself imports :mod:`repro.exec.seeds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apps import Application, Batch
    from ..dls import DLSTechnique
    from ..sim import LoopSimConfig
    from ..system import HeterogeneousSystem, ProcessorGroup

__all__ = [
    "Task",
    "ReplicateTask",
    "CandidateEvalTask",
    "split_seeds",
    "Assignment",
    "encode_assignments",
]

#: One encoded stage-I assignment: (application, type name, group size).
Assignment = tuple[str, str, int]


@runtime_checkable
class Task(Protocol):
    """Anything a backend can execute: picklable, with a pure ``run()``."""

    def run(self) -> Any:
        """Compute the task's result (deterministic in the task fields)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ReplicateTask:
    """Replicated simulations of one application under several techniques.

    ``seeds`` carries one pre-derived integer seed per replication (from
    the :mod:`repro.exec.seeds` tree), so the task is deterministic no
    matter which process executes it and replication ``r`` never depends
    on how the replications were split across tasks. Each seed's world is
    realized once and run by every technique in ``techniques``.

    ``tag`` is an opaque routing key the submitter uses to place the
    result back into its grid (e.g. ``(case, app)``).
    """

    app: "Application"
    group: "ProcessorGroup"
    techniques: "tuple[DLSTechnique, ...]"
    seeds: tuple[int, ...]
    config: "LoopSimConfig | None" = None
    tag: tuple[str, ...] = ()

    def run(self) -> tuple[tuple[float, ...], ...]:
        """Makespans per technique (in ``techniques`` order), in seed order."""
        from ..sim.loopsim import run_replication_grid

        return run_replication_grid(
            self.app, self.group, self.techniques, self.seeds,
            config=self.config,
        )


def split_seeds(
    seeds: tuple[int, ...], workers: int
) -> list[tuple[int, ...]]:
    """Split replication seeds into consecutive chunks, one task each.

    One chunk for a single worker; otherwise ``min(len(seeds), 2 * workers)``
    near-equal chunks, so a pool has work to balance without paying one
    task per replication.
    """
    n_chunks = 1 if workers <= 1 else min(len(seeds), 2 * workers)
    bounds = [(len(seeds) * k) // n_chunks for k in range(n_chunks + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class CandidateEvalTask:
    """A chunk of stage-I candidate allocations to score.

    Candidates are encoded as assignment tuples rather than live
    ``Allocation`` objects to keep the payload small and the worker-side
    group construction identical to the evaluator's own
    (``system.group(type, size)``). ``run()`` rebuilds a local
    :class:`~repro.ra.robustness.StageIEvaluator`, whose per-assignment
    memoization is shared across the whole chunk.
    """

    batch: "Batch"
    system: "HeterogeneousSystem"
    deadline: float
    candidates: tuple[tuple[Assignment, ...], ...] = field(default=())

    def run(self) -> tuple[float, ...]:
        """phi_1 of each candidate, in candidate order."""
        from ..ra.robustness import StageIEvaluator

        evaluator = StageIEvaluator(self.batch, self.system, self.deadline)
        scores = []
        for candidate in self.candidates:
            groups = {
                app: self.system.group(type_name, size)
                for app, type_name, size in candidate
            }
            scores.append(evaluator.joint_probability(groups))
        return tuple(scores)


def encode_assignments(
    groups: "dict[str, ProcessorGroup]",
) -> tuple[Assignment, ...]:
    """Encode an app->group mapping as picklable assignment tuples."""
    return tuple(
        (app, group.ptype.name, group.size)
        for app, group in sorted(groups.items())
    )
