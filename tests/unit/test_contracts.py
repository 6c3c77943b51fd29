"""Tests for the runtime contract checks (repro.contracts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contracts import (
    ContractViolation,
    check_allocation_feasible,
    check_event_monotone,
    check_pmf_canonical,
    check_span_monotone,
    contracts_enabled,
    require,
    validation,
)
from repro.dls import make_technique
from repro.pmf import PMF, convolve
from repro.ra import Allocation, StageIEvaluator
from repro.sim import EventQueue, simulate_application
from repro.system import ProcessorGroup


def frozen(values):
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class TestFlag:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert not contracts_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "YES"])
    def test_env_flag_enables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert contracts_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no", "false"])
    def test_env_flag_falsey(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not contracts_enabled()

    def test_validation_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        with validation(False):
            assert not contracts_enabled()
        assert contracts_enabled()
        monkeypatch.delenv("REPRO_VALIDATE")
        with validation(True):
            assert contracts_enabled()
        assert not contracts_enabled()

    def test_require(self):
        require(True, "fine")
        with pytest.raises(ContractViolation, match="broken"):
            require(False, "broken")


class TestPmfCanonical:
    def test_canonical_arrays_pass(self):
        check_pmf_canonical(frozen([1.0, 2.0]), frozen([0.25, 0.75]))

    def test_unsorted_support_rejected(self):
        with pytest.raises(ContractViolation, match="increasing"):
            check_pmf_canonical(frozen([2.0, 1.0]), frozen([0.5, 0.5]))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ContractViolation, match="non-positive"):
            check_pmf_canonical(frozen([1.0, 2.0]), frozen([1.0, 0.0]))

    def test_bad_total_rejected(self):
        with pytest.raises(ContractViolation, match="sum"):
            check_pmf_canonical(frozen([1.0, 2.0]), frozen([0.3, 0.3]))

    def test_writable_arrays_rejected(self):
        writable = np.asarray([0.5, 0.5])
        with pytest.raises(ContractViolation, match="frozen"):
            check_pmf_canonical(frozen([1.0, 2.0]), writable)

    def test_every_constructed_pmf_passes_hot(self):
        with validation(True):
            pmf = PMF([3.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.3, 0.4])
            assert len(pmf) == 3
            convolve(pmf, pmf).mean()  # algebra keeps the contract


class TestEventMonotone:
    def test_forward_time_passes(self):
        check_event_monotone(1.0, 1.0)
        check_event_monotone(1.0, 2.0)

    def test_backward_time_rejected(self):
        with pytest.raises(ContractViolation, match="monotone"):
            check_event_monotone(2.0, 1.0)


class TestSpanMonotone:
    def test_forward_span_passes(self):
        check_span_monotone("s", 1.0, 1.0)
        check_span_monotone("s", 1.0, 2.0)
        check_span_monotone(
            "child", 1.5, 2.0, parent_name="root", parent_start=1.0
        )

    def test_end_before_start_rejected(self):
        with pytest.raises(ContractViolation, match="before it starts"):
            check_span_monotone("s", 2.0, 1.0)

    def test_child_before_parent_rejected(self):
        with pytest.raises(ContractViolation, match="before its parent"):
            check_span_monotone(
                "child", 0.5, 2.0, parent_name="root", parent_start=1.0
            )

    def test_tracer_runs_hot(self):
        from repro.obs import Tracer

        ticks = iter([0.0, 1.0, 2.0, 3.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with validation(True):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert tracer.open_spans == 0

    def test_tracer_trips_on_backwards_clock(self):
        from repro.obs import Tracer

        ticks = iter([1.0, 0.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with validation(True):
            with pytest.raises(ContractViolation, match="before it starts"):
                with tracer.span("outer"):
                    pass

    def test_loop_simulation_runs_hot(self, tiny_app, dedicated_system):
        group = dedicated_system.group("fast", 4)
        fac = make_technique("FAC")
        cold = simulate_application(tiny_app, group, fac, seed=0)
        with validation(True):
            hot = simulate_application(tiny_app, group, fac, seed=0)
        assert hot.makespan == cold.makespan
        assert hot.chunks == cold.chunks

    def test_loop_trips_on_backwards_event(
        self, tiny_app, dedicated_system, monkeypatch
    ):
        real_pop = EventQueue.pop

        def backwards_pop(queue):
            event = real_pop(queue)
            return event._replace(time=event.time - 1.0)

        monkeypatch.setattr(EventQueue, "pop", backwards_pop)
        group = dedicated_system.group("fast", 4)
        with validation(True):
            with pytest.raises(ContractViolation, match="clock must be monotone"):
                simulate_application(tiny_app, group, make_technique("FAC"), seed=0)


class TestAllocationFeasible:
    @pytest.fixture
    def evaluator(self, paper_like_batch, paper_like_system):
        return StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)

    def make_alloc(self, system, mapping):
        return Allocation(
            {
                app: ProcessorGroup(system.type(t), n)
                for app, (t, n) in mapping.items()
            }
        )

    def test_feasible_allocation_passes(
        self, evaluator, paper_like_batch, paper_like_system
    ):
        alloc = self.make_alloc(
            paper_like_system,
            {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)},
        )
        check_allocation_feasible(alloc, paper_like_system, paper_like_batch)
        with validation(True):
            assert 0.0 <= evaluator.robustness(alloc) <= 1.0

    def test_oversubscription_rejected(
        self, evaluator, paper_like_batch, paper_like_system
    ):
        # type1 has 4 processors; this asks for 8 in total.
        alloc = self.make_alloc(
            paper_like_system,
            {"app1": ("type1", 4), "app2": ("type1", 4), "app3": ("type2", 8)},
        )
        with pytest.raises(ContractViolation, match="oversubscribed"):
            check_allocation_feasible(
                alloc, paper_like_system, paper_like_batch
            )
        with validation(True):
            with pytest.raises(ContractViolation, match="oversubscribed"):
                evaluator.robustness(alloc)
        # Cold: the evaluator trusts its caller and still scores it.
        with validation(False):
            evaluator.robustness(alloc)

    def test_unassigned_application_rejected(
        self, paper_like_batch, paper_like_system
    ):
        alloc = self.make_alloc(paper_like_system, {"app1": ("type1", 2)})
        with pytest.raises(ContractViolation, match="unassigned"):
            check_allocation_feasible(
                alloc, paper_like_system, paper_like_batch
            )

    def test_batch_optional(self, paper_like_system):
        alloc = self.make_alloc(paper_like_system, {"app1": ("type1", 2)})
        check_allocation_feasible(alloc, paper_like_system, None)
