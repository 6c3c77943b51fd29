"""Reference per-technique simulation of one stage-II replication.

This is the simulator as it was before a replication's random world was
shared: every call spawns its own availability processes and iteration
generators, realizes its own faults and runs its own serial phase, then
the technique's parallel loop. Tests compare the shared-world path
(:class:`repro.sim.ReplicationWorld`) against it result for result.
"""

from __future__ import annotations

from repro.dls import WorkerState
from repro.errors import SimulationError
from repro.rng import spawn_rngs
from repro.sim import AppRunResult, LoopSimConfig, SimWorker, run_parallel_loop
from repro.system import AvailabilityModel, ResampledAvailability


def reference_simulate(
    app, group, technique, *, seed: int, config: LoopSimConfig, availability=None
) -> AppRunResult:
    n = group.size
    if availability is None:
        availability = ResampledAvailability(
            group.availability, interval=config.availability_interval
        )
    if isinstance(availability, AvailabilityModel):
        models = [availability] * n
    else:
        models = list(availability)
    streams = spawn_rngs(seed, 2 * n)
    workers = [
        SimWorker(
            i,
            models[i].spawn(streams[2 * i], capacity=group.ptype.capacity),
            streams[2 * i + 1],
        )
        for i in range(n)
    ]
    injector = None
    if config.faults is not None and not config.faults.is_zero:
        injector = config.faults.realize(seed, n)

    type_name = group.ptype.name
    serial_end = 0.0
    master_id = None
    if config.include_serial and app.n_serial > 0:
        serial_model = app.serial_iteration_model(type_name)
        if serial_model is not None:
            if config.master_policy == "best-available":
                master = max(workers, key=lambda w: w.availability.level_at(0.0))
            else:
                master = workers[0]
            master_id = master.worker_id
            serial_end = master.execute_chunk(
                0.0, app.n_serial, serial_model
            ).finish_time

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
        workers, session, app.parallel_iteration_model(type_name), serial_end,
        config, injector=injector, master_id=master_id,
    )
    if loop.executed != app.n_parallel:
        raise SimulationError(
            f"simulated {loop.executed} of {app.n_parallel} iterations"
        )
    return AppRunResult(
        app_name=app.name,
        technique=technique.name,
        group_type=type_name,
        group_size=n,
        serial_time=serial_end,
        makespan=max([serial_end, *(c.finish_time for c in loop.chunks)]),
        chunks=tuple(loop.chunks),
        worker_finish_times=loop.finish_times,
        iterations_executed=loop.executed,
        master_id=loop.master_id if injector is not None else master_id,
        crashed_workers=loop.crashed,
        rescheduled_iterations=loop.rescheduled,
        degradations_applied=loop.degradations,
        master_failovers=loop.failovers,
    )
