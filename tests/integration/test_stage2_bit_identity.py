"""Stage II gives the same bits on the fast availability path as on the reference.

Every technique simulates the paper's three applications on one paper
case, with and without injected faults, twice: once as shipped and once
with :meth:`AvailabilityProcess.finish_times` replaced by the plain
vectorized reference. Makespans and every chunk record must be exactly
equal; no golden values are involved, so the test holds on any platform.
"""

from dataclasses import astuple, replace

import pytest

from repro.dls import ALL_TECHNIQUES, make_technique
from repro.faults import FaultPlan
from repro.paper import PAPER_SIM_CONFIG, paper_batch, paper_system
from repro.sim import simulate_application
from repro.system import AvailabilityProcess
from tests.reference_availability import reference_finish_times

SEED = 2012


def run_grid():
    system = paper_system("case3")
    groups = {
        "app1": system.group("type1", 4),
        "app2": system.group("type2", 4),
        "app3": system.group("type2", 4),
    }
    out = {}
    for plan in (None, FaultPlan.chaos(3e-4)):
        config = replace(PAPER_SIM_CONFIG, faults=plan)
        for name in sorted(ALL_TECHNIQUES):
            for app in paper_batch():
                result = simulate_application(
                    app, groups[app.name], make_technique(name),
                    seed=SEED, config=config,
                )
                out[plan is not None, name, app.name] = (
                    result.makespan,
                    result.serial_time,
                    [astuple(c) for c in result.chunks],
                )
    return out


@pytest.fixture(scope="module")
def fast_grid():
    return run_grid()


@pytest.fixture(scope="module")
def reference_grid():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AvailabilityProcess, "finish_times", reference_finish_times)
        return run_grid()


def test_grid_covers_every_technique_with_and_without_faults(fast_grid):
    assert {(f, t) for f, t, _ in fast_grid} == {
        (f, t) for f in (False, True) for t in ALL_TECHNIQUES
    }


def test_makespans_and_chunk_records_bit_identical(fast_grid, reference_grid):
    assert fast_grid.keys() == reference_grid.keys()
    for key, (makespan, serial, chunks) in fast_grid.items():
        ref_makespan, ref_serial, ref_chunks = reference_grid[key]
        assert makespan == ref_makespan, key
        assert serial == ref_serial, key
        assert chunks == ref_chunks, key
