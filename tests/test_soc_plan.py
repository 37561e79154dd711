"""Tests for SOC construction, chip-level test planning, and the optimizer."""

import pytest

from repro.errors import SocError
from repro.rtl import CircuitBuilder
from repro.soc import Core, PortRef, Soc, design_space, plan_soc_test
from repro.soc.optimizer import SocetOptimizer


def passthrough_core(name, width=8, depth=1):
    """A core that pipes IN through ``depth`` registers to OUT."""
    b = CircuitBuilder(name)
    din = b.input("IN", width)
    previous = din
    for i in range(depth):
        reg = b.register(f"R{i}", width)
        b.drive(reg, previous)
        previous = reg
    b.output("OUT", previous)
    return b.build()


def sink_core(name, width=8):
    """A core whose output is NOT wired anywhere downstream (needs a mux)."""
    b = CircuitBuilder(name)
    din = b.input("IN", width)
    r = b.register("R0", width)
    b.drive(r, din)
    b.output("OUT", r)
    b.output("AUX", r)
    return b.build()


def two_core_soc():
    """PI -> A(depth 2) -> B(depth 1) -> PO."""
    soc = Soc("duo")
    a = Core.from_circuit(passthrough_core("A", depth=2), test_vectors=10)
    b = Core.from_circuit(passthrough_core("B", depth=1), test_vectors=10)
    soc.add_core(a)
    soc.add_core(b)
    soc.add_input("PIN", 8)
    soc.add_output("POUT", 8)
    soc.wire(None, "PIN", "A", "IN")
    soc.wire("A", "OUT", "B", "IN")
    soc.wire("B", "OUT", None, "POUT")
    return soc


class TestSocModel:
    def test_validate_passes_for_complete_wiring(self):
        two_core_soc().validate()

    def test_partial_input_rejected(self):
        soc = Soc("bad")
        a = Core.from_circuit(passthrough_core("A"), test_vectors=1)
        soc.add_core(a)
        soc.add_input("PIN", 4)
        soc.add_output("POUT", 8)
        soc.connect(PortRef(None, "PIN", 0, 4), PortRef("A", "IN", 0, 4))
        soc.wire("A", "OUT", None, "POUT")
        with pytest.raises(SocError, match="bits driven"):
            soc.validate()

    def test_width_mismatch_rejected(self):
        soc = Soc("bad2")
        a = Core.from_circuit(passthrough_core("A"), test_vectors=1)
        soc.add_core(a)
        soc.add_input("PIN", 4)
        with pytest.raises(SocError, match="width"):
            soc.connect(PortRef(None, "PIN", 0, 4), PortRef("A", "IN", 0, 8))

    def test_core_scan_properties(self):
        core = Core.from_circuit(passthrough_core("A", depth=2), test_vectors=10)
        assert core.scan_depth == 2
        assert core.hscan_vectors == 10 * 3
        assert core.version_count >= 1


class TestPlanning:
    def test_plan_basic_properties(self):
        plan = plan_soc_test(two_core_soc())
        assert set(plan.core_plans) == {"A", "B"}
        assert plan.total_tat == sum(p.tat for p in plan.core_plans.values())
        assert plan.chip_dft_cells > 0

    def test_core_a_tested_through_pins(self):
        plan = plan_soc_test(two_core_soc())
        plan_a = plan.core_plans["A"]
        # A's input is at the chip pins: cadence 1
        assert all(d.latency == 0 for d in plan_a.deliveries)
        # A's output is observed through B (1 cycle)
        assert plan_a.observations[0].latency == 1
        assert plan_a.cadence == 1
        assert plan_a.tat == plan_a.scan_steps + plan_a.flush

    def test_core_b_justified_through_a(self):
        plan = plan_soc_test(two_core_soc())
        plan_b = plan.core_plans["B"]
        delivery = plan_b.deliveries[0]
        assert delivery.latency == 2  # through A's two registers
        assert plan_b.cadence == 2
        assert plan_b.tat == plan_b.scan_steps * 2 + plan_b.flush

    def test_b_delivery_rides_a_justify_path(self):
        """The chip-level search routes PIN -> A.IN -> A.OUT -> B.IN."""
        plan = plan_soc_test(two_core_soc())
        delivery = plan.core_plans["B"].deliveries[0]
        assert not delivery.via_test_mux
        assert dict(delivery.usages) == {("A", "justify", ("OUT", 0, 8)): 1}
        assert not plan.test_muxes

    def test_flush_includes_observation_latency(self):
        plan = plan_soc_test(two_core_soc())
        plan_a = plan.core_plans["A"]
        # depth 2 -> 1 cycle shift-out + 1 cycle through B
        assert plan_a.flush == (plan_a.scan_steps and 1) + 1

    def test_unobservable_output_gets_test_mux(self):
        soc = Soc("sinky")
        a = Core.from_circuit(sink_core("S"), test_vectors=4)
        soc.add_core(a)
        soc.add_input("PIN", 8)
        soc.add_output("POUT", 8)
        soc.wire(None, "PIN", "S", "IN")
        soc.wire("S", "OUT", None, "POUT")
        # AUX goes nowhere: planner must add an output test mux
        plan = plan_soc_test(soc)
        assert any(m.kind == "output" and m.port == "AUX" for m in plan.test_muxes)

    def test_forced_mux_shortcuts_delivery(self):
        soc = two_core_soc()
        plan = plan_soc_test(soc, forced_muxes={("B", "IN")})
        plan_b = plan.core_plans["B"]
        assert plan_b.deliveries[0].latency == 0
        assert plan_b.deliveries[0].via_test_mux
        assert any(m.core == "B" and m.port == "IN" for m in plan.test_muxes)


class TestOptimizer:
    def test_design_space_covers_all_combinations(self):
        soc = two_core_soc()
        points = design_space(soc)
        expected = 1
        for core in soc.testable_cores():
            expected *= core.version_count
        assert len(points) == expected
        assert points[0].chip_cells <= points[-1].chip_cells

    def test_minimize_tat_improves_or_holds(self):
        soc = two_core_soc()
        optimizer = SocetOptimizer(soc)
        plan, trajectory = optimizer.minimize_tat(max_chip_cells=10_000)
        assert trajectory[0].tat >= trajectory[-1].tat
        assert plan.total_tat == trajectory[-1].tat

    def test_minimize_tat_respects_budget(self):
        soc = two_core_soc()
        baseline = plan_soc_test(soc).chip_dft_cells
        plan, _ = SocetOptimizer(soc).minimize_tat(max_chip_cells=baseline)
        assert plan.chip_dft_cells <= baseline

    def test_minimize_tat_infeasible_budget(self):
        from repro.errors import InfeasibleConstraintError

        soc = two_core_soc()
        with pytest.raises(InfeasibleConstraintError):
            SocetOptimizer(soc).minimize_tat(max_chip_cells=1)

    def test_minimize_area_meets_tat_budget(self):
        soc = two_core_soc()
        loose_budget = plan_soc_test(soc).total_tat  # already satisfied
        plan, trajectory = SocetOptimizer(soc).minimize_area(loose_budget)
        assert plan.total_tat <= loose_budget
        assert len(trajectory) == 1  # no replacements needed

    def test_minimize_area_tightening(self):
        soc = two_core_soc()
        base = plan_soc_test(soc)
        achievable = min(p.tat for p in design_space(soc))
        assert achievable < base.total_tat
        plan, trajectory = SocetOptimizer(soc).minimize_area(achievable)
        assert plan.total_tat <= achievable
        assert len(trajectory) >= 2

    def test_minimize_area_impossible_raises(self):
        from repro.errors import InfeasibleConstraintError

        soc = two_core_soc()
        with pytest.raises(InfeasibleConstraintError):
            SocetOptimizer(soc).minimize_area(1)
