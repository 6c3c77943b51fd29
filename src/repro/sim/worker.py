"""Simulated workers: processors executing chunks under varying availability.

A :class:`SimWorker` couples a realized availability process with a seeded
RNG stream. Executing a chunk of ``k`` iterations draws ``k`` dedicated
iteration times, converts their sum into wall-clock time via the
availability work-integral, and reports per-iteration *wall* times back for
the adaptive DLS techniques (the measurement they adapt on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps import IterationTimeModel
from ..errors import SimulationError
from ..system import AvailabilityProcess

__all__ = ["SimWorker", "ChunkExecution"]


@dataclass(frozen=True)
class ChunkExecution:
    """Result of executing one chunk on one worker."""

    finish_time: float
    dedicated_time: float  # sum of drawn iteration times (availability-free)
    iteration_wall_times: np.ndarray  # per-iteration wall-clock equivalents


class SimWorker:
    """One simulated processor of an application's group."""

    def __init__(
        self,
        worker_id: int,
        availability: AvailabilityProcess,
        rng: np.random.Generator,
    ) -> None:
        self.worker_id = worker_id
        self.availability = availability
        self.rng = rng

    def execute_chunk(
        self, start: float, n_iterations: int, model: IterationTimeModel
    ) -> ChunkExecution:
        """Execute ``n_iterations`` starting at wall-clock ``start``.

        The drawn iteration times are *dedicated* times (fully available
        processor at reference capacity); the availability process converts
        them into wall-clock time iteration by iteration, so iterations that
        run while availability is low take proportionally longer — exactly
        the signal the adaptive DLS techniques measure.
        """
        if n_iterations < 1:
            raise SimulationError(
                f"chunk must contain at least one iteration, got {n_iterations}"
            )
        dedicated = model.draw(n_iterations, self.rng)
        dedicated_total = float(dedicated.sum())
        boundaries = self.availability.finish_times(start, np.cumsum(dedicated))
        finish = float(boundaries[-1])
        wall = np.empty_like(boundaries)
        wall[0] = boundaries[0] - start
        np.subtract(boundaries[1:], boundaries[:-1], out=wall[1:])
        return ChunkExecution(
            finish_time=finish,
            dedicated_time=dedicated_total,
            iteration_wall_times=wall,
        )
