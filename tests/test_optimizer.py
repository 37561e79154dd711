"""Edge-path tests for the SOCET optimizer.

Covers the ``minimize_area`` infeasible-budget error, the
``minimize_tat`` no-improving-move early exit, and the objective (the
serial sum ``total_tat``, never a schedule's makespan).
"""

import pytest

from repro.errors import InfeasibleConstraintError
from repro.rtl import CircuitBuilder
from repro.soc import Core, Soc, plan_soc_test
from repro.soc.optimizer import SocetOptimizer


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


def parallel_soc(names=("A", "B", "C")):
    """Independent pin-attached cores: nothing for the optimizer to fix."""
    soc = Soc("parallel")
    for name in names:
        soc.add_core(Core.from_circuit(passthrough_core(name), test_vectors=8))
        soc.add_input(f"PIN_{name}", 8)
        soc.add_output(f"POUT_{name}", 8)
        soc.wire(None, f"PIN_{name}", name, "IN")
        soc.wire(name, "OUT", None, f"POUT_{name}")
    return soc


def chain_soc():
    """PI -> A(depth 2) -> B(depth 1) -> PO: versions can still help."""
    soc = Soc("duo")
    soc.add_core(Core.from_circuit(passthrough_core("A", depth=2), test_vectors=10))
    soc.add_core(Core.from_circuit(passthrough_core("B", depth=1), test_vectors=10))
    soc.add_input("PIN", 8)
    soc.add_output("POUT", 8)
    soc.wire(None, "PIN", "A", "IN")
    soc.wire("A", "OUT", "B", "IN")
    soc.wire("B", "OUT", None, "POUT")
    return soc


class TestMinimizeAreaEdges:
    def test_unreachable_tat_budget_raises_with_floor(self):
        soc = parallel_soc()
        plan = plan_soc_test(soc)
        with pytest.raises(InfeasibleConstraintError, match="unreachable"):
            SocetOptimizer(soc).minimize_area(plan.total_tat - 1)

    def test_loose_budget_returns_min_area_immediately(self):
        soc = parallel_soc()
        plan = plan_soc_test(soc)
        result, trajectory = SocetOptimizer(soc).minimize_area(plan.total_tat)
        assert len(trajectory) == 1
        assert result.selection == plan.selection


class TestMinimizeTatEdges:
    def test_no_improving_move_exits_early(self):
        soc = parallel_soc()
        result, trajectory = SocetOptimizer(soc).minimize_tat(max_chip_cells=10_000)
        # all latencies are already 0: nothing to upgrade, nothing to mux
        assert len(trajectory) == 1
        assert result.total_tat == trajectory[0].tat

    def test_escalation_stops_at_budget(self):
        soc = chain_soc()
        baseline = plan_soc_test(soc)
        plan, _ = SocetOptimizer(soc).minimize_tat(max_chip_cells=baseline.chip_dft_cells)
        assert plan.chip_dft_cells <= baseline.chip_dft_cells
        assert plan.total_tat <= baseline.total_tat


class TestScheduledObjective:
    """The makespan is a report, not an objective: the optimizer scores
    plans by their serial sum."""

    def test_serial_default_unchanged(self):
        soc = chain_soc()
        plan, trajectory = SocetOptimizer(soc).minimize_tat(max_chip_cells=10_000)
        assert trajectory[-1].tat == plan.total_tat

