"""Techniques sharing one realized world get the reference's results.

Every DLS technique runs against one :class:`ReplicationWorld` per seed,
forward and in reverse order, and each :class:`AppRunResult` must equal
the per-technique rebuild in ``tests/reference_loopsim.py`` exactly:
makespan, chunks, worker finish times, crashes, failovers, degradations
and re-scheduled iterations. Running the techniques in both orders shows
that what one technique materializes lazily (availability segments, fault
events, iteration times) cannot change what another sees.
"""

from dataclasses import replace

import pytest

from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.faults import FaultEvent, FaultPlan
from repro.pmf import percent_availability
from repro.sim import (
    LoopSimConfig,
    ReplicationWorld,
    run_replication_grid,
    simulate_application,
)
from repro.system import HeterogeneousSystem, ProcessorType, TraceAvailability
from tests.reference_loopsim import reference_simulate

SEEDS = (2, 4)  # seed 4 crashes three workers, seed 2 the master
TECHNIQUES = tuple(make_technique(name) for name in sorted(ALL_TECHNIQUES))

SCRIPTED = FaultPlan(
    events=(
        FaultEvent(time=900.0, worker=3, kind="slowdown", duration=300.0, factor=2.5),
        FaultEvent(time=1100.0, worker=2, kind="blackout", duration=150.0),
        FaultEvent(time=1300.0, worker=1, kind="crash"),
        FaultEvent(time=1600.0, worker=0, kind="crash"),
    ),
    failover_delay=5.0,
)
FAULTS = {"none": None, "chaos": FaultPlan.chaos(3e-4), "scripted": SCRIPTED}

TRACES = [
    TraceAvailability(((300.0, 0.5), (200.0, 1.0), (500.0, 0.25))),
    TraceAvailability(((100.0, 1.0), (400.0, 0.75))),
    TraceAvailability(((250.0, 0.25), (250.0, 1.0), (250.0, 0.5))),
    TraceAvailability(((1000.0, 1.0),)),
]


@pytest.fixture(scope="module")
def instance():
    app = Application(
        "world", 32, 256, normal_exectime_model({"t": 4000.0}), iteration_cv=0.5
    )
    availability = percent_availability([(25, 25), (50, 25), (100, 50)])
    system = HeterogeneousSystem([ProcessorType("t", 4, availability=availability)])
    return app, system.group("t", 4)


def _config(faults, master_policy, include_serial):
    return replace(
        LoopSimConfig(overhead=0.5, availability_interval=10.0),
        faults=FAULTS[faults],
        master_policy=master_policy,
        include_serial=include_serial,
    )


@pytest.mark.parametrize("availability", [None, TRACES], ids=["resampled", "trace"])
@pytest.mark.parametrize("include_serial", [True, False], ids=["serial", "noserial"])
@pytest.mark.parametrize("master_policy", ["first", "best-available"])
@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_shared_world_matches_per_technique_rebuild(
    instance, faults, master_policy, include_serial, availability
):
    app, group = instance
    config = _config(faults, master_policy, include_serial)
    for seed in SEEDS:
        expected = {
            t.name: reference_simulate(
                app, group, t, seed=seed, config=config, availability=availability
            )
            for t in TECHNIQUES
        }
        for order in (TECHNIQUES, TECHNIQUES[::-1]):
            world = ReplicationWorld.realize(
                app, group, seed=seed, config=config, availability=availability
            )
            for technique in order:
                got = simulate_application(
                    app, group, technique, config=config, world=world
                )
                assert got == expected[technique.name], (seed, technique.name)


def test_fault_cases_exercise_recovery(instance):
    """The fault configurations above do crash, fail over and degrade."""
    app, group = instance
    for faults in ("chaos", "scripted"):
        config = _config(faults, "first", True)
        results = [
            reference_simulate(app, group, t, seed=seed, config=config)
            for seed in SEEDS
            for t in TECHNIQUES
        ]
        assert any(r.crashed_workers for r in results)
        assert any(r.degradations_applied for r in results)
        assert any(r.rescheduled_iterations for r in results)
    scripted = _config("scripted", "first", True)
    assert all(
        reference_simulate(app, group, t, seed=2, config=scripted).master_failovers
        for t in TECHNIQUES
    )


@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_replication_grid_matches_reference_in_any_order(instance, faults):
    app, group = instance
    config = _config(faults, "first", True)
    expected = [
        tuple(
            reference_simulate(app, group, t, seed=s, config=config).makespan
            for s in SEEDS
        )
        for t in TECHNIQUES
    ]
    assert run_replication_grid(app, group, TECHNIQUES, SEEDS, config=config) == (
        tuple(expected)
    )
    reverse = run_replication_grid(
        app, group, TECHNIQUES[::-1], SEEDS, config=config
    )
    assert reverse == tuple(expected[::-1])
