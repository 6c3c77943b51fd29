"""Event queue primitives for the discrete-event simulator.

A tiny, dependency-free DES core: events are ``(time, seq, payload)``
triples kept in a binary heap; ``seq`` is a monotonically increasing
tie-breaker so simultaneous events fire in scheduling order (deterministic
replay is a hard requirement for reproducible experiments).
"""

from __future__ import annotations

import heapq
from typing import Any, NamedTuple

from ..errors import SimulationError

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled occurrence. Ordering: time, then insertion sequence.

    A plain tuple, so the heap compares events in C. ``seq`` is unique per
    queue, so two events never tie on ``(time, seq)`` and ``payload`` is
    never compared.
    """

    time: float
    seq: int
    payload: Any = None


class EventQueue:
    """Binary-heap event queue with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def push(self, time: float, payload: Any = None) -> Event:
        """Schedule ``payload`` at ``time``; returns the created event."""
        if time < 0:
            raise SimulationError(f"event time must be >= 0, got {time}")
        event = Event(time, self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Earliest event without removing it."""
        if not self._heap:
            raise SimulationError("peek at an empty event queue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
