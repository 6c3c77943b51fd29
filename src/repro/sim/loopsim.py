"""Master–worker loop-scheduling simulation of one application (stage II).

The execution model follows the paper's §III-B: an application's serial
iterations run first on the group's master processor; the parallel loop is
then scheduled across the whole group by a DLS technique — each time a
processor becomes free, the technique's session computes "a new size for the
next chunk of ready-to-be-executed loop iterations ... offered for execution
to the first processor that finished executing other assigned chunks".

Every dispatch pays a wall-clock scheduling ``overhead`` (master round-trip)
before the chunk starts computing; each processor's compute rate is
modulated by its realized availability process, so a chunk started under
full availability slows down if availability drops mid-chunk.

Stage II compares techniques under one realized availability (common random
numbers), so the randomness of a replication is realized once as a
:class:`ReplicationWorld` and every technique runs against it:
:func:`run_replication_grid` loops over seeds, then techniques, and each
run is one :func:`simulate_application` call on the shared world.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..apps import Application
from ..contracts import (
    check_event_monotone,
    check_iteration_conservation,
    contracts_enabled,
)
from ..dls import DLSTechnique, SchedulingSession, WorkerState
from ..errors import SimulationError
from ..exec.backends import ExecutionBackend, SerialBackend
from ..exec.seeds import SeedTree
from ..exec.tasks import ReplicateTask, split_seeds
from ..faults import FaultInjector, FaultPlan, degraded_boundaries
from ..obs import event as obs_event
from ..obs import incr, obs_enabled, observe_value, span
from ..rng import spawn_rngs
from ..system import (
    AvailabilityModel,
    ProcessorGroup,
    ResampledAvailability,
)
from .events import EventQueue
from .results import AppRunResult, ChunkRecord, MasterFailover, ReplicatedAppStats
from .worker import SimWorker

__all__ = [
    "LoopSimConfig",
    "ParallelLoopResult",
    "ReplicationWorld",
    "run_parallel_loop",
    "simulate_application",
    "replicate_application",
    "replication_seeds",
    "run_replication_grid",
    "run_seeded_replications",
]

#: Default wall-clock cost of dispatching one chunk (master round-trip).
DEFAULT_OVERHEAD = 1.0

#: Default re-sampling interval of the runtime availability processes.
DEFAULT_AVAIL_INTERVAL = 100.0


@dataclass(frozen=True)
class LoopSimConfig:
    """Simulator knobs shared by all stage-II experiments.

    ``availability_interval`` is the piecewise-constant re-sampling period
    of the runtime availability processes (in the application's time units);
    ``overhead`` the per-chunk dispatch cost. Both default to values that
    are small relative to the paper example's ~10^3-unit makespans.

    ``master_policy`` selects the group processor executing the serial
    iterations: ``"first"`` uses processor 0 (an arbitrary coordinator);
    ``"best-available"`` models a resource manager that designates the
    currently least-loaded processor as coordinator.

    ``faults`` attaches a :class:`~repro.faults.FaultPlan`: crash /
    blackout / slowdown events drawn deterministically from the run's
    seed. A zero-rate plan (``FaultPlan()``, the inert default) takes
    the exact no-faults code path, so results are bit-for-bit identical
    to ``faults=None``.
    """

    overhead: float = DEFAULT_OVERHEAD
    availability_interval: float = DEFAULT_AVAIL_INTERVAL
    include_serial: bool = True
    master_policy: str = "first"
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.overhead < 0:
            raise SimulationError(f"overhead must be >= 0, got {self.overhead}")
        if self.availability_interval <= 0:
            raise SimulationError(
                f"availability interval must be > 0, got {self.availability_interval}"
            )
        if self.master_policy not in ("first", "best-available"):
            raise SimulationError(
                f"unknown master_policy {self.master_policy!r}; "
                "expected 'first' or 'best-available'"
            )


def _build_workers(
    group: ProcessorGroup,
    availability: AvailabilityModel | list[AvailabilityModel] | None,
    config: LoopSimConfig,
    seed: int | None,
) -> list[SimWorker]:
    """Spawn one SimWorker per group processor with independent streams."""
    n = group.size
    if availability is None:
        availability = ResampledAvailability(
            group.availability, interval=config.availability_interval
        )
    if isinstance(availability, AvailabilityModel):
        models = [availability] * n
    else:
        models = list(availability)
        if len(models) != n:
            raise SimulationError(
                f"got {len(models)} availability models for {n} workers"
            )
    # Two streams per worker: availability realization and iteration draws.
    streams = spawn_rngs(seed, 2 * n)
    return [
        SimWorker(
            worker_id=i,
            availability=models[i].spawn(
                streams[2 * i], capacity=group.ptype.capacity
            ),
            stream=streams[2 * i + 1],
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class ParallelLoopResult:
    """Outcome of one parallel-loop phase (:func:`run_parallel_loop`).

    The fault fields are all zero/empty when no injector is active, so
    fault-free callers can ignore them.
    """

    chunks: list[ChunkRecord]
    finish_times: dict[int, float]
    executed: int
    crashed: tuple[int, ...] = ()
    rescheduled: int = 0
    degradations: int = 0
    failovers: tuple[MasterFailover, ...] = ()
    master_id: int | None = None


@dataclass
class _InFlight:
    """One dispatched chunk awaiting its completion (or crash) event."""

    size: int
    wall_times: np.ndarray
    chunk_time: float
    finish: float
    record: ChunkRecord
    lost: bool = field(default=False)


def _chunk_event(record: ChunkRecord) -> None:
    """Emit the ``sim.chunk`` trace event for one completed dispatch.

    The event carries the full interval (request/start/finish, in
    simulated time) under the enclosing ``sim.app`` span, which is what
    :mod:`repro.obs.timeline` rebuilds worker timelines from. Callers
    guard on :func:`~repro.obs.obs_enabled`.
    """
    obs_event(
        "sim.chunk",
        record.finish_time,
        worker=record.worker_id,
        size=record.size,
        request=record.request_time,
        start=record.start_time,
        finish=record.finish_time,
    )


def _pick_master(
    candidates: list[SimWorker], policy: str, at: float
) -> SimWorker:
    """The coordinator among ``candidates`` per the master policy."""
    if policy == "best-available":
        return max(candidates, key=lambda w: w.availability.level_at(at))
    return min(candidates, key=lambda w: w.worker_id)


def run_parallel_loop(
    workers: list[SimWorker],
    session: SchedulingSession,
    par_model,
    start_time: float,
    config: LoopSimConfig,
    *,
    injector: FaultInjector | None = None,
    master_id: int | None = None,
) -> ParallelLoopResult:
    """Drive one scheduling session to completion on the given workers.

    Measurements become visible to the scheduling session only when a
    chunk *finishes* (the worker's next request) — recording at dispatch
    time would leak future knowledge into other workers' chunk decisions.

    With a fault ``injector``, the loop additionally models worker
    failure: a crashed worker's in-flight chunk is re-queued through
    :meth:`~repro.dls.SchedulingSession.requeue` and re-dispatched to the
    survivors (idle workers are parked, not released, so late re-queued
    work always finds a taker); blackouts and slowdowns stretch chunk
    timelines; a crashed master triggers failover per
    ``config.master_policy``, charging the plan's ``failover_delay``
    before the lost work is re-offered. The group's last surviving
    worker never crashes — a run always completes — and iteration
    conservation (``executed == n_parallel``) is contract-checked by the
    caller after recovery.
    """
    queue = EventQueue()
    for w in workers:
        queue.push(start_time, w)

    chunks: list[ChunkRecord] = []
    finish_times: dict[int, float] = {w.worker_id: start_time for w in workers}
    executed = 0
    pending: dict[int, _InFlight] = {}
    # Fault bookkeeping (all inert when injector is None).
    parked: dict[int, float] = {}  # idle workers that may yet see re-queued work
    dead: set[int] = set()
    immortal: set[int] = set()  # designated survivors: crash suppressed
    crashed: list[int] = []
    failovers: list[MasterFailover] = []
    rescheduled = 0
    degradations = 0

    def _others_alive(wid: int) -> bool:
        return any(
            w.worker_id != wid and w.worker_id not in dead for w in workers
        )

    def _handle_crash(wid: int, now: float, lost_size: int) -> None:
        """Retire a worker; fail the master over and wake parked workers."""
        nonlocal master_id, rescheduled
        dead.add(wid)
        crashed.append(wid)
        wake = now
        if obs_enabled():
            obs_event("sim.crash", now, worker=wid, lost=lost_size)
        if lost_size > 0:
            session.requeue(lost_size)
            rescheduled += lost_size
            if obs_enabled():
                obs_event("sim.requeue", now, worker=wid, size=lost_size)
        session.retire(wid)
        if wid == master_id and injector is not None:
            alive = [w for w in workers if w.worker_id not in dead]
            new_master = _pick_master(alive, config.master_policy, now)
            failovers.append(
                MasterFailover(
                    time=now, old_master=wid, new_master=new_master.worker_id
                )
            )
            master_id = new_master.worker_id
            wake = now + injector.failover_delay
            if obs_enabled():
                obs_event(
                    "sim.failover",
                    now,
                    worker=new_master.worker_id,
                    old=wid,
                    delay=injector.failover_delay,
                )
        if session.remaining > 0:
            # Orphaned iterations need takers — both a lost in-flight
            # chunk just re-queued and a reservation the retirement
            # released: wake every parked worker.
            for pid, parked_at in parked.items():
                queue.push(max(parked_at, wake), by_id[pid])
            parked.clear()

    by_id = {w.worker_id: w for w in workers}
    loop_events = 0
    now = start_time
    # Read once: with contracts off the hot loop pays no extra call.
    validate = contracts_enabled()
    while queue:
        event = queue.pop()
        if validate:
            check_event_monotone(now, event.time)
        loop_events += 1
        worker: SimWorker = event.payload
        now = event.time
        wid = worker.worker_id
        if wid in dead:  # pragma: no cover - defensive; no events outlive death
            continue
        inflight = pending.pop(wid, None)
        crash_at = (
            injector.crash_time(wid)
            if injector is not None and wid not in immortal
            else None
        )
        if inflight is not None and inflight.lost:
            # This event *is* the worker's crash, mid-chunk.
            if not _others_alive(wid):
                # Last worker standing: suppress the crash and let the
                # chunk complete at its true finish time.
                immortal.add(wid)
                inflight.lost = False
                pending[wid] = inflight
                chunks.append(inflight.record)
                executed += inflight.size
                finish_times[wid] = inflight.finish
                if obs_enabled():
                    _chunk_event(inflight.record)
                queue.push(inflight.finish, worker)
                continue
            _handle_crash(wid, now, inflight.size)
            continue
        if inflight is not None:
            session.record(
                wid, inflight.size, inflight.wall_times,
                chunk_time=inflight.chunk_time,
            )
        if crash_at is not None and crash_at <= now:
            # Crash between assignments (idle, parked, or exactly at a
            # chunk boundary): nothing in flight is lost.
            if _others_alive(wid):
                _handle_crash(wid, now, 0)
                continue
            immortal.add(wid)
        size = session.next_chunk(wid)
        if size == 0:
            # Every worker id was pre-seeded into `finish_times` at
            # `start_time`, so a worker that never receives a chunk
            # deliberately reports the loop start as its finish (it was
            # never busy) — no update is needed here. Under fault
            # injection the worker is parked instead of released: a
            # later crash may re-queue iterations it must pick up.
            if injector is not None:
                parked[wid] = now
            continue
        start = now + config.overhead
        execution = worker.execute_chunk(start, size, par_model)
        finish = execution.finish_time
        wall_times = execution.iteration_wall_times
        if injector is not None:
            boundaries = start + np.cumsum(wall_times)
            adjusted, applied = degraded_boundaries(
                injector, wid, start, boundaries
            )
            if applied:
                degradations += applied
                finish = float(adjusted[-1])
                wall_times = np.diff(np.concatenate(([start], adjusted)))
                if obs_enabled():
                    obs_event("sim.degraded", start, worker=wid, applied=applied)
        record = ChunkRecord(
            worker_id=wid,
            size=size,
            request_time=now,
            start_time=start,
            finish_time=finish,
        )
        inflight = _InFlight(
            size=size,
            wall_times=wall_times,
            chunk_time=finish - now,
            finish=finish,
            record=record,
        )
        if crash_at is not None and now <= crash_at < finish:
            # The worker dies while this chunk is in flight: surface the
            # crash at its own time so re-dispatch starts immediately,
            # and defer the completion accounting (it may be suppressed
            # if every other worker dies first).
            inflight.lost = True
            pending[wid] = inflight
            queue.push(crash_at, worker)
            continue
        pending[wid] = inflight
        chunks.append(record)
        executed += size
        finish_times[wid] = finish
        if obs_enabled():
            _chunk_event(record)
        queue.push(finish, worker)
    if obs_enabled():
        # One bulk increment per loop, not one per event: the inner loop
        # is the hot path the <5% disabled-overhead budget protects.
        incr("sim.loop.events", float(loop_events))
    return ParallelLoopResult(
        chunks=chunks,
        finish_times=finish_times,
        executed=executed,
        crashed=tuple(crashed),
        rescheduled=rescheduled,
        degradations=degradations,
        failovers=tuple(failovers),
        master_id=master_id,
    )


@dataclass(frozen=True)
class ReplicationWorld:
    """The randomness of one replication, realized once for every technique.

    A world holds what does not depend on the DLS technique: each worker's
    availability process and iteration stream (``workers``, positioned
    after the serial phase), the realized faults (``injector``) and the
    serial phase itself (its master and ``serial_end``). It is read-only
    apart from lazy extension, and every extension is a pure function of
    the seed, so runs sharing a world see exactly the bits a fresh
    realization would give them, in any order. A run owns only its forks
    of the workers (its cursors), its worker states and its session.
    """

    workers: tuple[SimWorker, ...]
    injector: FaultInjector | None
    serial_end: float
    master_id: int | None

    @classmethod
    def realize(
        cls,
        app: Application,
        group: ProcessorGroup,
        *,
        seed: int | None,
        config: LoopSimConfig,
        availability: AvailabilityModel | list[AvailabilityModel] | None = None,
    ) -> ReplicationWorld:
        """Realize the world of ``app`` on ``group`` for one seed."""
        workers = _build_workers(group, availability, config, seed)
        # A zero-rate plan realizes no injector at all, so it takes exactly
        # the fault-free code path (bit-for-bit identical results).
        injector: FaultInjector | None = None
        if config.faults is not None and not config.faults.is_zero:
            injector = config.faults.realize(seed, group.size)
        serial_end = 0.0
        master_id: int | None = None
        if config.include_serial and app.n_serial > 0:
            serial_model = app.serial_iteration_model(group.ptype.name)
            if serial_model is not None:
                master = _pick_master(workers, config.master_policy, 0.0)
                master_id = master.worker_id
                execution = master.execute_chunk(0.0, app.n_serial, serial_model)
                serial_end = execution.finish_time
        return cls(tuple(workers), injector, serial_end, master_id)


def simulate_application(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    *,
    seed: int | None = None,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
    world: ReplicationWorld | None = None,
) -> AppRunResult:
    """Simulate one execution of ``app`` on ``group`` under ``technique``.

    ``availability`` overrides the runtime availability model (default: the
    group's availability PMF re-sampled every ``config.availability_interval``
    time units). Pass per-worker ``TraceAvailability`` models to replay a
    frozen realization across techniques.

    ``world`` runs the technique against a world already realized for
    this ``app``, ``group`` and ``config`` (see
    :meth:`ReplicationWorld.realize`); ``seed`` and ``availability`` are
    then unused. Without it the world is realized from ``seed``.

    Returns an :class:`~repro.sim.results.AppRunResult`; its ``makespan``
    includes the serial phase (if enabled) and the full parallel loop.
    """
    config = config or LoopSimConfig()
    faulty = config.faults is not None and not config.faults.is_zero
    with span(
        "sim.app",
        app=app.name,
        technique=technique.name,
        group_type=group.ptype.name,
        group_size=group.size,
        faults=faulty,
    ) as sp:
        if world is None:
            world = ReplicationWorld.realize(
                app, group, seed=seed, config=config, availability=availability
            )
        result = _run_technique(app, group, technique, world, config)
        # Post-hoc attributes: the timeline builder needs the loop start
        # (serial_time) to reproduce worker finish times exactly.
        sp.set(
            serial_time=result.serial_time,
            makespan=result.makespan,
            chunks=len(result.chunks),
        )
    if obs_enabled():
        incr("sim.apps")
        incr("sim.iterations", float(result.iterations_executed))
        incr(f"dls.chunks.{technique.name}", float(len(result.chunks)))
        observe_value("sim.makespan", result.makespan)
        observe_value(f"sim.makespan.{technique.name}", result.makespan)
        observe_value(
            f"sim.imbalance.{technique.name}", result.load_imbalance()
        )
    return result


def _run_technique(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    world: ReplicationWorld,
    config: LoopSimConfig,
) -> AppRunResult:
    """One technique's parallel loop on fresh forks of the world's workers."""
    if len(world.workers) != group.size:
        raise SimulationError(
            f"world has {len(world.workers)} workers, group has {group.size}"
        )
    workers = [w.fork() for w in world.workers]
    type_name = group.ptype.name
    injector = world.injector
    par_model = app.parallel_iteration_model(type_name)
    states = [
        WorkerState(
            worker_id=w.worker_id,
            relative_power=group.ptype.capacity
            * group.ptype.expected_availability,
        )
        for w in workers
    ]
    session = technique.session(app.n_parallel, states)
    session.label = technique.name
    loop = run_parallel_loop(
        workers, session, par_model, world.serial_end, config,
        injector=injector, master_id=world.master_id,
    )

    if loop.executed != app.n_parallel:
        raise SimulationError(
            f"simulated {loop.executed} parallel iterations, "
            f"expected {app.n_parallel}"
        )
    if contracts_enabled():
        check_iteration_conservation(
            loop.executed, app.n_parallel, loop.rescheduled
        )
    if injector is not None and obs_enabled():
        incr("faults.injected", float(len(loop.crashed) + loop.degradations))
        incr("faults.rescheduled", float(loop.rescheduled))
    makespan = max([world.serial_end, *(c.finish_time for c in loop.chunks)])
    return AppRunResult(
        app_name=app.name,
        technique=technique.name,
        group_type=type_name,
        group_size=group.size,
        serial_time=world.serial_end,
        makespan=makespan,
        chunks=tuple(loop.chunks),
        worker_finish_times=loop.finish_times,
        iterations_executed=loop.executed,
        master_id=loop.master_id if injector is not None else world.master_id,
        crashed_workers=loop.crashed,
        rescheduled_iterations=loop.rescheduled,
        degradations_applied=loop.degradations,
        master_failovers=loop.failovers,
    )


def replication_seeds(seed: int | None, replications: int) -> tuple[int, ...]:
    """One independent derived seed per replication, in replication order.

    Seeds come from the :class:`~repro.exec.seeds.SeedTree` path
    ``("rep", r)``, so replication ``r`` is the same no matter how the
    replications are later split across tasks or processes, and adding
    replications never perturbs earlier ones. ``seed=None`` draws fresh
    OS entropy (a genuinely new experiment); pass an explicit seed for
    reproducibility.
    """
    if replications < 1:
        raise SimulationError(f"need >= 1 replication, got {replications}")
    tree = SeedTree(seed)
    return tuple(tree.child("rep", r).seed() for r in range(replications))


def run_replication_grid(
    app: Application,
    group: ProcessorGroup,
    techniques: Sequence[DLSTechnique],
    seeds: tuple[int, ...],
    *,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """Makespans of every technique on every seed: ``[technique][seed]``.

    Each seed's :class:`ReplicationWorld` is realized once and every
    technique runs against it, so all techniques see the same availability,
    faults and iteration times (common random numbers) at the cost of one
    realization. Seeds are the outer loop: one world is alive at a time.
    This is the body of the serial path of :func:`replicate_application`
    and of :meth:`repro.exec.tasks.ReplicateTask.run`, which is what
    guarantees backends agree bit for bit.
    """
    config = config or LoopSimConfig()
    makespans: list[list[float]] = [[] for _ in techniques]
    with span(
        "sim.replicate",
        app=app.name,
        techniques=",".join(t.name for t in techniques),
        replications=len(seeds),
    ):
        for s in seeds:
            world = ReplicationWorld.realize(
                app, group, seed=s, config=config, availability=availability
            )
            for technique, out in zip(techniques, makespans):
                result = simulate_application(
                    app, group, technique, config=config, world=world
                )
                out.append(result.makespan)
    return tuple(tuple(m) for m in makespans)


def run_seeded_replications(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    seeds: tuple[int, ...],
    *,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
) -> tuple[float, ...]:
    """Makespans of one simulation per pre-derived seed, in seed order.

    The one-technique case of :func:`run_replication_grid`.
    """
    (makespans,) = run_replication_grid(
        app, group, (technique,), seeds, config=config, availability=availability
    )
    return makespans


def replicate_application(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    *,
    replications: int = 10,
    seed: int | None = None,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
    backend: ExecutionBackend | None = None,
) -> ReplicatedAppStats:
    """Run ``replications`` independent simulations; aggregate makespans.

    Per-replication seeds come from :func:`replication_seeds`:
    ``seed=None`` means fresh entropy, an explicit seed is fully
    reproducible. With a parallel ``backend`` (and the default runtime
    availability model) the replications are split into
    :class:`~repro.exec.tasks.ReplicateTask` seed chunks
    (:func:`~repro.exec.tasks.split_seeds`); because every replication
    carries its own pre-derived seed, the results are identical to the
    serial loop.
    """
    seeds = replication_seeds(seed, replications)
    if (
        backend is None
        or isinstance(backend, SerialBackend)
        or backend.workers <= 1
        or replications < 2
        or availability is not None
    ):
        makespans = run_seeded_replications(
            app, group, technique, seeds,
            config=config, availability=availability,
        )
    else:
        tasks = [
            ReplicateTask(
                app=app,
                group=group,
                techniques=(technique,),
                seeds=chunk,
                config=config,
            )
            for chunk in split_seeds(seeds, backend.workers)
        ]
        makespans = tuple(
            m for (chunk,) in backend.run_tasks(tasks) for m in chunk
        )
    return ReplicatedAppStats(
        app_name=app.name,
        technique=technique.name,
        makespans=makespans,
    )
