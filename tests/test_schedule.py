"""Tests for the concurrent test-session scheduler (repro.schedule)."""

import pytest

from repro.errors import ScheduleError
from repro.rtl import CircuitBuilder
from repro.schedule import (
    ScheduledTest,
    TestSchedule,
    build_test_items,
    conflict_pairs,
    render_gantt,
    resource_set,
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

    def test_pins_behind_a_test_mux_are_not_resources(self):
        """Every route from chip pin NUM to the DISPLAY rides the mux forced
        on PREPROCESSOR.NUM, so the DISPLAY test does not hold pin NUM."""
        from repro.designs import build_system1

        plan = plan_soc_test(build_system1(), forced_muxes={("PREPROCESSOR", "NUM")})
        resources = resource_set(plan, plan.core_plans["DISPLAY"])
        assert ("core", "PREPROCESSOR") in resources
        assert ("pin", "in", "NUM") not in resources
        assert ("pin", "out", "PORT1") in resources

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
        plan = plan_soc_test(parallel_soc())
        with pytest.raises(ScheduleError, match="unknown scheduler 'quantum'"):
            plan.schedule(algorithm="quantum")


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
        entry = {e.core: e for e in schedule.entries}
        mem, mem2, logic = entry["MEM"], entry["MEM2"], entry["A"]

        def overlaps(a, b):
            return a.start < b.end and b.start < a.end

        assert not overlaps(mem, mem2)  # serialized on the BIST controller
        # but BIST overlaps the (resource-disjoint) logic test
        assert overlaps(logic, mem) or overlaps(logic, mem2)


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


class TestDesignSpaceOracle:
    """Every design point of Systems 1-4: its plan passes the plan-scope
    lint rules, and both placements, with and without a power budget,
    place every core once within the budget (``validate()`` runs on
    each schedule as it is built)."""

    @pytest.mark.parametrize("system, points, budget", [
        ("System1", 27, 132), ("System2", 18, 100),
        ("System3", 54, 132), ("System4", 54, 132),
    ])
    def test_every_point_plans_and_schedules(self, system, points, budget):
        """``budget`` is twice the system's largest core flip-flop count."""
        from repro.designs import system_builders
        from repro.lint import LintContext, Severity, run_rules
        from repro.soc import design_space

        soc = system_builders()[system]()
        assert budget == 2 * max(core.flip_flops for core in soc.testable_cores())
        space = design_space(soc)
        assert len(space) == points
        certificate = None
        for point in space:
            context = LintContext(
                system=soc.name, soc=soc, plan=point.plan, certificate=certificate
            )
            report = run_rules(context, scopes=("plan",))
            certificate = context.certificate
            assert report.errors == [], report.render()
            assert report.of_severity(Severity.WARNING) == [], report.render()
            cores = sorted(point.plan.core_plans)
            for algorithm in ("greedy", "sessions"):
                for power_budget in (None, budget):
                    schedule = point.plan.schedule(
                        algorithm=algorithm, power_budget=power_budget
                    )
                    assert sorted(e.core for e in schedule.entries) == cores
                    if power_budget is not None:
                        assert schedule.peak_activity <= power_budget


class TestScheduleCli:
    def test_schedule_subcommand(self, capsys):
        from repro.cli import main

        assert main(["schedule", "System4", "-p", "120"]) == 0
        out = capsys.readouterr().out
        assert "serial TAT" in out
        assert "scheduled TAT" in out
        assert "peak scan activity" in out

    @pytest.mark.parametrize("argv, line", [
        (["System3"], "scheduled TAT: 921 cycles"),
        (["System4", "-a", "sessions", "-p", "120", "--bist"],
         "peak scan activity: 111 FFs (budget 120)"),
    ])
    def test_schedule_prints(self, argv, line, capsys):
        from repro.cli import main

        assert main(["schedule", *argv]) == 0
        assert line in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["-p", "1"], "> power budget 1"),
        (["-a", "quantum"], "unknown scheduler 'quantum'"),
    ])
    def test_bad_arguments_exit_2(self, argv, message, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["schedule", "System4", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
