"""Unit tests of the DES substrate (events, worker)."""

import numpy as np
import pytest

from repro.apps import IterationTimeModel
from repro.errors import SimulationError
from repro.sim import Event, EventQueue, IterationStream, SimWorker
from repro.system import ConstantAvailability, TraceAvailability


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "c", "b"]

    def test_fifo_tiebreak(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek(self):
        q = EventQueue()
        q.push(2.0, "x")
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_empty_errors(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()
        with pytest.raises(SimulationError):
            q.peek()
        assert not q

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0)

    def test_event_ordering_dataclass(self):
        assert Event(1.0, 0) < Event(2.0, 0)
        assert Event(1.0, 0) < Event(1.0, 1)

    def test_payloads_never_compared(self):
        """Equal-time events pop FIFO even if their payloads refuse to compare."""

        class Opaque:
            def __init__(self, name):
                self.name = name

            def __eq__(self, other):
                raise AssertionError("payload compared")

            __lt__ = __le__ = __gt__ = __ge__ = __ne__ = __eq__
            __hash__ = object.__hash__

        q = EventQueue()
        for name in "abcde":
            q.push(1.0, Opaque(name))
        q.push(0.5, Opaque("first"))
        q.push(2.0, Opaque("last"))
        popped = [q.pop().payload.name for _ in range(len(q))]
        assert popped == ["first", "a", "b", "c", "d", "e", "last"]


class TestSimWorker:
    def test_deterministic_chunk(self):
        worker = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=2.0, cv=0.0)
        result = worker.execute_chunk(10.0, 5, model)
        assert result.finish_time == pytest.approx(20.0)
        assert result.dedicated_time == pytest.approx(10.0)
        assert np.allclose(result.iteration_wall_times, 2.0)

    def test_availability_stretches_wall_times(self):
        worker = SimWorker(0, ConstantAvailability(0.5).spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        result = worker.execute_chunk(0.0, 4, model)
        assert result.finish_time == pytest.approx(8.0)
        assert np.allclose(result.iteration_wall_times, 2.0)

    def test_mid_chunk_availability_change(self):
        # 10 units at alpha=1 then alpha=0.5: iterations in the slow segment
        # must report longer wall times.
        trace = TraceAvailability(((10.0, 1.0), (100.0, 0.5)))
        worker = SimWorker(0, trace.spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        result = worker.execute_chunk(0.0, 20, model)
        # 10 iterations in the fast segment, 10 at half speed.
        assert result.finish_time == pytest.approx(30.0)
        walls = result.iteration_wall_times
        assert np.allclose(walls[:10], 1.0)
        assert np.allclose(walls[10:], 2.0)
        assert walls.sum() == pytest.approx(30.0)

    def test_capacity_speeds_up(self):
        proc = ConstantAvailability(1.0).spawn(capacity=2.0)
        worker = SimWorker(0, proc, np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        result = worker.execute_chunk(0.0, 10, model)
        assert result.finish_time == pytest.approx(5.0)

    def test_empty_chunk_rejected(self):
        worker = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(0))
        with pytest.raises(SimulationError):
            worker.execute_chunk(0.0, 0, IterationTimeModel(mean=1.0))

    def test_stochastic_chunk_reproducible(self):
        model = IterationTimeModel(mean=1.0, cv=0.5)
        a = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(3))
        b = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(3))
        ra = a.execute_chunk(0.0, 50, model)
        rb = b.execute_chunk(0.0, 50, model)
        assert ra.finish_time == rb.finish_time
        assert np.array_equal(ra.iteration_wall_times, rb.iteration_wall_times)

    def test_forks_replay_the_shared_stream(self):
        model = IterationTimeModel(mean=1.0, cv=0.5)
        origin = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(3))
        origin.execute_chunk(0.0, 7, model)
        first, second = origin.fork(), origin.fork()
        ra = first.execute_chunk(0.0, 30, model)
        rb = second.execute_chunk(0.0, 30, model)
        assert (first.cursor, second.cursor, origin.cursor) == (37, 37, 7)
        assert origin.stream.filled == 37
        assert np.array_equal(ra.iteration_wall_times, rb.iteration_wall_times)


class TestIterationStream:
    def test_taken_times_are_read_only(self):
        stream = IterationStream(np.random.default_rng(0))
        times = stream.take(0, 5, IterationTimeModel(mean=1.0, cv=0.5))
        with pytest.raises(ValueError):
            times[0] = 0.0
        # Extending the stream afterwards still works.
        assert len(stream.take(3, 10, IterationTimeModel(mean=1.0, cv=0.5))) == 10
