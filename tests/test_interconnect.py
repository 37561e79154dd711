"""Tests for interconnect-coverage classification (SOCET vs test bus)."""

import pytest

from repro.designs import build_system1, build_system2
from repro.flow.interconnect import interconnect_report, bus_interconnect_report
from repro.soc import plan_soc_test


@pytest.fixture(scope="module")
def system1_plan():
    return plan_soc_test(build_system1())


class TestInterconnectReport:
    def test_socet_exercises_core_to_core_wires(self, system1_plan):
        report = interconnect_report(system1_plan)
        # the paper's key routes carry test data through functional wires
        assert report.nets["PREPROCESSOR.DB[7:0] -> CPU.Data[7:0]"] == "exercised"
        assert report.nets["CPU.Address[11:0] -> DISPLAY.A[11:0]"] == "exercised"
        assert report.nets["PREPROCESSOR.DB[7:0] -> DISPLAY.D[7:0]"] == "exercised"
        assert report.nets["PREPROCESSOR.Eoc[0] -> CPU.Interrupt[0]"] == "exercised"

    def test_memory_wires_classified_out_of_scope(self, system1_plan):
        report = interconnect_report(system1_plan)
        assert report.nets["PREPROCESSOR.Address[11:0] -> RAM.Address[11:0]"] == "memory"
        assert report.memory_bits > 0

    def test_display_output_wires_exercised(self, system1_plan):
        report = interconnect_report(system1_plan)
        assert report.nets["DISPLAY.PORT1[6:0] -> chip.PORT1[6:0]"] == "exercised"

    def test_high_logic_coverage(self, system1_plan):
        report = interconnect_report(system1_plan)
        assert report.coverage_percent > 80.0

    def test_bit_accounting_consistent(self, system1_plan):
        report = interconnect_report(system1_plan)
        total = sum(net.source.width for net in system1_plan.soc.nets)
        assert (
            report.exercised_bits
            + report.bypassed_bits
            + report.memory_bits
            + report.idle_bits
            == total
        )

    def test_system2_coverage(self):
        plan = plan_soc_test(build_system2())
        report = interconnect_report(plan)
        assert report.nets["GRAPHICS.PX[7:0] -> GCD.Xin[7:0]"] == "exercised"
        assert report.nets["GCD.Result[7:0] -> X25.RX[7:0]"] == "exercised"
        assert report.coverage_percent > 80.0

    def test_wire_behind_a_forced_mux_is_bypassed(self):
        plan = plan_soc_test(build_system1(), forced_muxes={("PREPROCESSOR", "NUM")})
        report = interconnect_report(plan)
        # every route that would read chip pin NUM now starts at the mux
        assert report.nets["chip.NUM[7:0] -> PREPROCESSOR.NUM[7:0]"] == "bypassed"
        assert report.nets["PREPROCESSOR.DB[7:0] -> CPU.Data[7:0]"] == "exercised"


class TestTestBusComparison:
    def test_test_bus_exercises_nothing(self):
        soc = build_system1()
        report = bus_interconnect_report(soc)
        assert report.exercised_bits == 0
        assert report.coverage_percent == 0.0

    def test_socet_strictly_better(self, system1_plan):
        socet = interconnect_report(system1_plan)
        bus = bus_interconnect_report(system1_plan.soc)
        assert socet.coverage_percent > bus.coverage_percent
