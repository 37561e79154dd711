"""Detailed tests for planner internals and routes, controller, and reports."""

import pytest

from repro.designs import build_system1, build_system2, system_builders
from repro.errors import SocError
from repro.flow.report import (
    AreaRow,
    TestabilityRow as ResultRow,
    render_area_table,
    render_testability_table,
)
from repro.soc import plan_soc_test, synthesize_controller
from repro.soc.controller import clock_enable_trace, estimate_controller_area
from repro.soc.plan import TestMux as SystemTestMux
from repro.soc.optimizer import SocetOptimizer, design_space
from repro.soc.system import PortRef

SYSTEMS = sorted(system_builders())


@pytest.fixture(scope="module")
def system1():
    return build_system1()


@pytest.fixture(scope="module")
def system1_plan(system1):
    return plan_soc_test(system1)


class TestPlanInvariants:
    def test_every_selection_plans_successfully(self, system1):
        """All 27 version combinations must produce a consistent plan."""
        import itertools

        cores = system1.testable_cores()
        for combo in itertools.product(*[range(c.version_count) for c in cores]):
            selection = {core.name: index for core, index in zip(cores, combo)}
            plan = plan_soc_test(system1, selection)
            for core_plan in plan.core_plans.values():
                assert core_plan.cadence >= 1
                assert core_plan.tat == core_plan.scan_steps * core_plan.cadence + core_plan.flush
                for delivery in core_plan.deliveries:
                    assert delivery.latency >= 0
            assert plan.total_tat == sum(p.tat for p in plan.core_plans.values())
            assert plan.chip_dft_cells == (
                plan.version_cells + plan.test_mux_cells + plan.controller_cells
            )

    def test_faster_versions_never_slow_a_single_core(self, system1):
        """Upgrading one core's version must not slow that same core's own test
        beyond the baseline plan (its deliveries/observations can only improve
        or stay)."""
        base = plan_soc_test(system1)
        for core in system1.testable_cores():
            for index in range(1, core.version_count):
                selection = dict(base.selection)
                selection[core.name] = index
                upgraded = plan_soc_test(system1, selection)
                # other cores' tests can only get faster when this core's
                # transparency improves
                for other in system1.testable_cores():
                    if other.name == core.name:
                        continue
                    assert (
                        upgraded.core_plans[other.name].tat
                        <= base.core_plans[other.name].tat
                    ), (core.name, index, other.name)

    def test_usage_counts_are_positive(self, system1_plan):
        for key, count in system1_plan.usage_counts().items():
            assert count > 0
            assert key[1] in ("justify", "propagate")

    def test_test_mux_costs(self):
        mux = SystemTestMux("input", "X", "P", 0, 8)
        assert mux.cost == 2 * 8 + 2
        assert "P" in str(mux)


class TestFigure9Routes:
    """Figure 9's CCG, read off the planner's routes (PREPROCESSOR at V2)."""

    @pytest.fixture(scope="class")
    def plan(self, system1):
        return plan_soc_test(system1, {"CPU": 0, "PREPROCESSOR": 1, "DISPLAY": 0})

    def test_chip_pins_match_paper_structure(self, system1):
        assert sorted(system1.chip_inputs) == ["NUM", "Reset", "Video"]
        assert sorted(system1.chip_outputs) == [f"PORT{i}" for i in range(1, 7)]

    def test_display_delivery_route(self, plan):
        """Figure 9's highlighted path: NUM -> DB -> Data -> Address -> A."""
        delivery = next(d for d in plan.core_plans["DISPLAY"].deliveries if d.port == "A")
        assert not delivery.via_test_mux
        assert dict(delivery.usages) == {
            ("CPU", "justify", ("Address", 0, 8)): 1,
            ("CPU", "justify", ("Address", 8, 4)): 1,
            ("PREPROCESSOR", "justify", ("DB", 0, 8)): 1,
        }
        assert delivery.latency == 9

    def test_db_path_starts_at_chip_pin_num(self, system1, plan):
        version = system1.cores["PREPROCESSOR"].version(plan.selection["PREPROCESSOR"])
        assert version.justify_paths[("DB", 0, 8)].terminal_ports == ["NUM"]
        drivers = list(system1.drivers_of("PREPROCESSOR", "NUM"))
        assert [(n.source.core, n.source.port) for n in drivers] == [(None, "NUM")]

    def test_memory_cores_absent_from_plan(self, plan):
        assert not {"RAM", "ROM"} & set(plan.core_plans)
        assert not {"RAM", "ROM"} & {core for core, _, _ in plan.usage_counts()}


class TestControllerDetails:
    def test_mux_select_signals_enumerated(self, system1_plan):
        controller = synthesize_controller(system1_plan)
        selects = [s for s in controller.signals if s.purpose == "mux-select"]
        # the CPU's paths steer at least DR_MUX/AC_MUX/PC_MUX/M
        named = {s.name for s in selects}
        assert any("CPU_M" in name for name in named)
        assert controller.counter_bits >= system1_plan.total_tat.bit_length() - 1

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_area_estimate_equals_synthesized_controller(self, system):
        """Counting the controller's signals prices it exactly as listing them.

        Every design point, every plan on both optimizers' trajectories,
        and a sweep with a test mux forced on one core's first input.
        """
        soc = system_builders()[system]()
        points = design_space(soc)
        optimizer = SocetOptimizer(soc)
        fast, fast_steps = optimizer.minimize_tat(max(p.chip_cells for p in points))
        tat_budget = fast.total_tat + (points[0].tat - fast.total_tat) // 2
        _, small_steps = optimizer.minimize_area(tat_budget)
        first = min(soc.testable_cores(), key=lambda core: core.name)
        forced_muxes = {(first.name, first.circuit.inputs[0].name)}
        forced = [plan_soc_test(soc, p.selection, forced_muxes=forced_muxes) for p in points]
        plans = [p.plan for p in points + fast_steps + small_steps] + forced
        assert all(plan.test_muxes for plan in forced)
        for plan in plans:
            assert estimate_controller_area(plan) == synthesize_controller(plan).area
            assert plan.controller_cells == synthesize_controller(plan).area

    def test_trace_flush_is_free_running(self, system1_plan):
        core_plan = system1_plan.core_plans["CPU"]
        trace = list(clock_enable_trace(core_plan))
        flush = trace[-core_plan.flush :] if core_plan.flush else []
        assert all(flush)


class TestInterconnect:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_lookups_match_a_scan_of_the_nets(self, system):
        soc = system_builders()[system]()
        ends = {(None, pin) for pin in list(soc.chip_inputs) + list(soc.chip_outputs)}
        for core in soc.cores.values():
            ends.update((core.name, component.name) for component in core.circuit.inputs)
            ends.update((core.name, component.name) for component in core.circuit.outputs)
        for core_name, port in sorted(ends, key=str):
            assert list(soc.drivers_of(core_name, port)) == [
                n for n in soc.nets if n.dest.core == core_name and n.dest.port == port
            ]
            assert list(soc.readers_of(core_name, port)) == [
                n for n in soc.nets if n.source.core == core_name and n.source.port == port
            ]

    def test_connect_after_validation_is_checked_again(self):
        soc = build_system1()
        plan_soc_test(soc)  # validates once
        core = soc.cores["CPU"]
        port = core.circuit.inputs[0]
        soc.add_input("EXTRA", 1)
        soc.connect(PortRef(None, "EXTRA", 0, 1), PortRef("CPU", port.name, 0, 1))
        with pytest.raises(SocError, match="multiple drivers"):
            plan_soc_test(soc)


class TestOptimizerDetails:
    def test_most_critical_port_points_at_slowest_path(self, system1):
        plan = plan_soc_test(system1)
        optimizer = SocetOptimizer(system1)
        critical = optimizer.most_critical_port(plan)
        assert critical is not None
        core_name, port = critical
        slowest = max(plan.core_plans.values(), key=lambda p: p.tat)
        assert core_name == slowest.core

    def test_replacement_gain_none_at_top_version(self, system1):
        top = {c.name: c.version_count - 1 for c in system1.testable_cores()}
        plan = plan_soc_test(system1, top)
        optimizer = SocetOptimizer(system1)
        for core in system1.testable_cores():
            assert optimizer.replacement_gain(plan, core.name) is None


class TestReportRendering:
    def test_area_table_renders(self):
        row = AreaRow(
            system="S",
            original_area=1000,
            fscan_cells=150,
            hscan_cells=80,
            bscan_cells=400,
            socet_variant="Min. Area",
            socet_chip_cells=60,
        )
        text = render_area_table([row])
        assert "15.0" in text and "8.0" in text and "6.0" in text
        assert row.fscan_bscan_total_percent == pytest.approx(55.0)
        assert row.socet_total_percent == pytest.approx(14.0)

    def test_testability_table_renders(self):
        rows = [
            ResultRow("S", "Orig.", 10.6, 10.8, None),
            ResultRow("S", "SOCET", 98.4, 99.8, 17387),
        ]
        text = render_testability_table(rows)
        assert "17387" in text
        assert "-" in text  # missing TAT renders as dash
