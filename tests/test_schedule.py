"""Tests for the concurrent test-session scheduler (repro.schedule)."""

import pytest

from repro.errors import ScheduleError
from repro.rtl import CircuitBuilder
from repro.schedule import (
    ScheduledTest,
    TestItem,
    TestSchedule,
    build_test_items,
    conflict_pairs,
    get_scheduler,
    render_gantt,
    resource_set,
    schedule_plan,
)
from repro.soc import Core, Soc, plan_soc_test


def passthrough_core(name, width=8, depth=1):
    b = CircuitBuilder(name)
    din = b.input("IN", width)
    previous = din
    for i in range(depth):
        reg = b.register(f"R{i}", width)
        b.drive(reg, previous)
        previous = reg
    b.output("OUT", previous)
    return b.build()


def chain_soc(pairs=(("A", "B"),)):
    """Independent two-core chains: PI -> X(depth 2) -> Y(depth 1) -> PO."""
    soc = Soc("chains")
    for first, second in pairs:
        a = Core.from_circuit(passthrough_core(first, depth=2), test_vectors=10)
        b = Core.from_circuit(passthrough_core(second, depth=1), test_vectors=10)
        soc.add_core(a)
        soc.add_core(b)
        soc.add_input(f"PIN_{first}", 8)
        soc.add_output(f"POUT_{second}", 8)
        soc.wire(None, f"PIN_{first}", first, "IN")
        soc.wire(first, "OUT", second, "IN")
        soc.wire(second, "OUT", None, f"POUT_{second}")
    return soc


def parallel_soc(names=("A", "B", "C")):
    """Fully independent pin-attached cores."""
    soc = Soc("parallel")
    for name in names:
        soc.add_core(Core.from_circuit(passthrough_core(name), test_vectors=8))
        soc.add_input(f"PIN_{name}", 8)
        soc.add_output(f"POUT_{name}", 8)
        soc.wire(None, f"PIN_{name}", name, "IN")
        soc.wire(name, "OUT", None, f"POUT_{name}")
    return soc


class TestConflictModel:
    def test_chain_cores_conflict(self):
        plan = plan_soc_test(chain_soc())
        items = build_test_items(plan)
        assert conflict_pairs(items) == [("A", "B")]

    def test_resource_set_contents(self):
        plan = plan_soc_test(chain_soc())
        res_b = resource_set(plan, plan.core_plans["B"])
        # B is justified through A's transparency and observed at the PO
        assert ("core", "B") in res_b
        assert ("core", "A") in res_b
        assert ("pin", "in", "PIN_A") in res_b
        assert ("pin", "out", "POUT_B") in res_b
        assert any(r[0] == "xfer" and r[1] == "A" for r in res_b)

    def test_independent_chains_do_not_conflict(self):
        plan = plan_soc_test(chain_soc(pairs=(("A", "B"), ("C", "D"))))
        pairs = conflict_pairs(build_test_items(plan))
        assert pairs == [("A", "B"), ("C", "D")]

    def test_shared_pin_conflicts(self):
        soc = Soc("sharedpin")
        for name in ("A", "B"):
            soc.add_core(Core.from_circuit(passthrough_core(name), test_vectors=5))
            soc.add_output(f"POUT_{name}", 8)
            soc.wire(name, "OUT", None, f"POUT_{name}")
        soc.add_input("PIN", 8)
        soc.wire(None, "PIN", "A", "IN")
        soc.wire(None, "PIN", "B", "IN")  # one ATE channel, two cores
        plan = plan_soc_test(soc)
        assert conflict_pairs(build_test_items(plan)) == [("A", "B")]

    def test_test_mux_is_private_resource(self):
        plan = plan_soc_test(chain_soc())
        items = build_test_items(plan)
        mux_resources = {
            r for item in items for r in item.resources if r[0] == "tmux"
        }
        # chain A->B has full pin access: no muxes at all
        assert mux_resources == set()


class TestSchedulers:
    @pytest.mark.parametrize("algorithm", ["greedy", "sessions"])
    def test_parallel_cores_overlap(self, algorithm):
        plan = plan_soc_test(parallel_soc())
        schedule = plan.schedule(algorithm=algorithm)
        assert schedule.makespan < plan.total_tat
        assert schedule.makespan == max(p.tat for p in plan.core_plans.values())
        assert len(schedule.sessions()) == 1

    @pytest.mark.parametrize("algorithm", ["greedy", "sessions"])
    def test_chain_serializes(self, algorithm):
        plan = plan_soc_test(chain_soc())
        schedule = plan.schedule(algorithm=algorithm)
        assert schedule.makespan == plan.total_tat

    def test_two_chains_halve_the_time(self):
        plan = plan_soc_test(chain_soc(pairs=(("A", "B"), ("C", "D"))))
        schedule = plan.schedule()
        # the chains are identical, so they overlap perfectly
        assert schedule.makespan == plan.total_tat // 2
        assert schedule.speedup == pytest.approx(2.0)

    def test_greedy_never_worse_than_sessions(self):
        plan = plan_soc_test(chain_soc(pairs=(("A", "B"), ("C", "D"))))
        greedy = plan.schedule(algorithm="greedy")
        packed = plan.schedule(algorithm="sessions")
        assert greedy.makespan <= packed.makespan

    def test_all_cores_scheduled_once(self):
        plan = plan_soc_test(parallel_soc())
        schedule = plan.schedule()
        assert sorted(e.core for e in schedule.entries) == sorted(plan.core_plans)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ScheduleError, match="unknown scheduler"):
            get_scheduler("quantum")


class TestPowerBudget:
    def test_budget_forces_staggering(self):
        plan = plan_soc_test(parallel_soc(names=("A", "B")))
        free = plan.schedule()
        activity = max(i.activity for i in build_test_items(plan))
        capped = plan.schedule(power_budget=activity)  # one core at a time
        assert capped.makespan == plan.total_tat > free.makespan
        assert capped.peak_activity <= activity

    def test_budget_below_single_core_raises(self):
        plan = plan_soc_test(parallel_soc(names=("A",)))
        with pytest.raises(ScheduleError, match="power budget"):
            plan.schedule(power_budget=1)

    @pytest.mark.parametrize("algorithm", ["greedy", "sessions"])
    def test_budget_respected_by_both_schedulers(self, algorithm):
        plan = plan_soc_test(parallel_soc())
        budget = 2 * max(i.activity for i in build_test_items(plan))
        schedule = plan.schedule(algorithm=algorithm, power_budget=budget)
        assert schedule.peak_activity <= budget


class TestValidator:
    def test_validator_catches_resource_overlap(self):
        plan = plan_soc_test(chain_soc())
        schedule = plan.schedule()
        entries = [ScheduledTest(item=e.item, start=0) for e in schedule.entries]
        bad = TestSchedule(soc_name="x", algorithm="manual", entries=entries)
        with pytest.raises(ScheduleError, match="share"):
            bad.validate()

    def test_validator_catches_power_violation(self):
        plan = plan_soc_test(parallel_soc(names=("A", "B")))
        schedule = plan.schedule()
        bad = TestSchedule(
            soc_name="x",
            algorithm="manual",
            entries=list(schedule.entries),
            power_budget=1,
        )
        with pytest.raises(ScheduleError, match="power budget"):
            bad.validate()

    def test_valid_schedule_passes(self):
        plan = plan_soc_test(chain_soc(pairs=(("A", "B"), ("C", "D"))))
        assert plan.schedule().validate() is not None


class TestBistSessions:
    def _soc_with_memory(self):
        soc = parallel_soc(names=("A",))
        ram = Core.from_circuit(passthrough_core("MEM"), test_vectors=0, is_memory=True)
        soc.add_core(ram)
        ram2 = Core.from_circuit(passthrough_core("MEM2"), test_vectors=0, is_memory=True)
        soc.add_core(ram2)
        return soc

    def test_bist_items_included(self):
        plan = plan_soc_test(self._soc_with_memory())
        items = build_test_items(plan, include_bist=True)
        kinds = {i.core: i.kind for i in items}
        assert kinds["MEM"] == "bist" and kinds["MEM2"] == "bist"
        assert kinds["A"] == "logic"

    def test_bist_sessions_share_one_controller(self):
        plan = plan_soc_test(self._soc_with_memory())
        schedule = plan.schedule(include_bist=True)
        mem = schedule.entry("MEM")
        mem2 = schedule.entry("MEM2")
        assert not mem.overlaps(mem2)  # serialized on the BIST controller
        # but BIST overlaps the (resource-disjoint) logic test
        logic = schedule.entry("A")
        assert logic.overlaps(mem) or logic.overlaps(mem2)


class TestGantt:
    def test_render_mentions_every_core(self):
        plan = plan_soc_test(parallel_soc())
        text = render_gantt(plan.schedule())
        for core in plan.core_plans:
            assert core in text
        assert "makespan" in text
        assert "session 1" in text


class TestRegisteredDesigns:
    """The acceptance check: scheduling beats the serial order on the
    parallel-topology systems and leaves the paper's chains unchanged."""

    @pytest.mark.parametrize("system", ["System3", "System4"])
    def test_makespan_strictly_below_serial(self, system):
        from repro.designs import system_builders

        plan = plan_soc_test(system_builders()[system]())
        schedule = plan.schedule().validate()
        assert schedule.makespan < plan.total_tat

    def test_system4_fully_concurrent(self):
        from repro.designs import build_system4

        plan = plan_soc_test(build_system4())
        schedule = plan.schedule()
        assert len(schedule.sessions()) == 1
        assert schedule.makespan == max(p.tat for p in plan.core_plans.values())


class TestScheduleCli:
    def test_schedule_subcommand(self, capsys):
        from repro.cli import main

        assert main(["schedule", "System4", "-p", "120"]) == 0
        out = capsys.readouterr().out
        assert "serial TAT" in out
        assert "scheduled TAT" in out
        assert "peak scan activity" in out
