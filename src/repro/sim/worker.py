"""Simulated workers: processors executing chunks under varying availability.

A :class:`SimWorker` couples a realized availability process with a cursor
into an :class:`IterationStream`, the worker's seeded sequence of dedicated
iteration times. Executing a chunk of ``k`` iterations reads the next ``k``
times, converts their sum into wall-clock time via the availability
work-integral, and reports per-iteration *wall* times back for the adaptive
DLS techniques (the measurement they adapt on).

Several workers may share one stream (and one availability process), each
with its own cursor: that is how every DLS technique of a replication runs
against the same realized world without drawing it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps import IterationTimeModel
from ..errors import SimulationError
from ..system import AvailabilityProcess

__all__ = ["SimWorker", "ChunkExecution", "IterationStream"]


@dataclass(frozen=True)
class ChunkExecution:
    """Result of executing one chunk on one worker."""

    finish_time: float
    dedicated_time: float  # sum of drawn iteration times (availability-free)
    iteration_wall_times: np.ndarray  # per-iteration wall-clock equivalents


class IterationStream:
    """One worker's dedicated iteration times, drawn lazily and kept.

    Position ``i`` holds the ``i``-th time drawn from ``rng``. :meth:`take`
    draws only the shortfall past the positions already kept, so every
    reader sees the same values at the same positions, however many
    readers share the stream and in whatever order they read it, and the
    stream never draws past the furthest position any reader asked for.
    This rests on :meth:`IterationTimeModel.draw` being split-invariant
    (draws of ``k1`` then ``k2`` times are the bits of one draw of
    ``k1 + k2``); readers must pass the same model for the same positions.
    """

    __slots__ = ("_rng", "_times", "_filled")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._times = np.empty(0)
        self._filled = 0

    @property
    def filled(self) -> int:
        """Number of times drawn so far."""
        return self._filled

    def take(self, start: int, n: int, model: IterationTimeModel) -> np.ndarray:
        """Times at positions ``start .. start + n - 1``, as a read-only view."""
        end = start + n
        if end > self._filled:
            if end > len(self._times):
                grown = np.empty(max(end, 2 * len(self._times)))
                grown[: self._filled] = self._times[: self._filled]
                self._times = grown
            times = self._times
            times.flags.writeable = True
            times[self._filled : end] = model.draw(end - self._filled, self._rng)
            # Views taken from here on are read-only: readers share them.
            times.flags.writeable = False
            self._filled = end
        return self._times[start:end]


class SimWorker:
    """One simulated processor of an application's group.

    ``stream`` is the worker's :class:`IterationStream` (a bare generator
    gets a private one); the worker reads it from position ``cursor`` on.
    """

    def __init__(
        self,
        worker_id: int,
        availability: AvailabilityProcess,
        stream: IterationStream | np.random.Generator,
        *,
        cursor: int = 0,
    ) -> None:
        self.worker_id = worker_id
        self.availability = availability
        self.stream = (
            stream if isinstance(stream, IterationStream) else IterationStream(stream)
        )
        self.cursor = cursor

    def fork(self) -> SimWorker:
        """A fresh worker on the same availability and stream, from here on."""
        return SimWorker(
            self.worker_id, self.availability, self.stream, cursor=self.cursor
        )

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
        dedicated = self.stream.take(self.cursor, n_iterations, model)
        self.cursor += n_iterations
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
