"""Tests for the baselines, flattening, controller, and flow layers."""

import pytest

from repro.baselines import fscan_bscan_report, evaluate_test_bus
from repro.designs import build_system1, build_system2
from repro.baselines.fscan_bscan import fscan_bscan_core_tat
from repro.flow import flatten_soc
from repro.gates import SequentialSimulator
from repro.soc import plan_soc_test

from tests.reference_controller import synthesize_controller


@pytest.fixture(scope="module")
def system1():
    return build_system1()


@pytest.fixture(scope="module")
def system2():
    return build_system2()


class TestFscanBscanBaseline:
    def test_display_row_matches_paper_formula(self, system1):
        report = fscan_bscan_report(system1)
        display = next(r for r in report.rows if r.core == "DISPLAY")
        assert display.flip_flops == 66
        assert display.internal_input_bits == 20
        # paper: (66+20) x V + 85 with V = 105 gives 9,115
        assert fscan_bscan_core_tat(66, 20, 105) == 9115
        assert display.tat == 86 * display.vectors + 85

    def test_totals(self, system1):
        report = fscan_bscan_report(system1)
        assert report.total_tat == sum(r.tat for r in report.rows)
        assert report.total_cells == report.fscan_cells + report.bscan_cells
        assert len(report.rows) == 3  # memories excluded

    def test_socet_beats_baseline_on_tat(self, system1):
        baseline = fscan_bscan_report(system1)
        plan = plan_soc_test(system1)
        assert plan.total_tat < baseline.total_tat

    def test_socet_chip_dft_cheaper_than_bscan(self, system1):
        baseline = fscan_bscan_report(system1)
        plan = plan_soc_test(system1)
        assert plan.chip_dft_cells < baseline.bscan_cells


class TestTestBusBaseline:
    def test_minimum_tat(self, system1):
        bus = evaluate_test_bus(system1)
        socet = plan_soc_test(system1)
        # the test bus is the lower bound on test time...
        assert bus.total_tat <= socet.total_tat
        # ...and costs more chip-level DFT than SOCET's minimum-area point
        assert bus.total_cells > socet.chip_dft_cells


class TestFlatten:
    def test_flat_simulates(self, system1):
        flat = flatten_soc(system1)
        sim = SequentialSimulator(flat)
        inputs = {g.name: 0 for g in flat.inputs}
        outputs = sim.step(inputs)
        assert outputs  # chip POs exist and evaluate

    def test_only_chip_pins_are_inputs(self, system1):
        flat = flatten_soc(system1)
        names = {g.name for g in flat.inputs}
        assert names == {f"NUM.{i}" for i in range(8)} | {"Video.0", "Reset.0"}

    def test_chip_outputs_are_display_ports(self, system1):
        flat = flatten_soc(system1)
        outputs = {g.name for g in flat.outputs}
        assert all(name.startswith("PO_PORT") for name in outputs)
        assert len(outputs) == 42

    def test_hscan_scan_access_modes(self, system1):
        full = flatten_soc(system1, with_hscan=True, scan_access="full")
        enable_only = flatten_soc(system1, with_hscan=True, scan_access="enable")
        none = flatten_soc(system1, with_hscan=True, scan_access="none")
        def input_count(n):
            return len(n.inputs)
        assert input_count(full) > input_count(enable_only) > input_count(none)

    def test_bad_scan_access_rejected(self, system1):
        with pytest.raises(Exception):
            flatten_soc(system1, with_hscan=True, scan_access="bogus")


class TestController:
    def test_signals_and_area(self, system1):
        plan = plan_soc_test(system1)
        controller = synthesize_controller(plan)
        purposes = {s.purpose for s in controller.signals}
        assert "clock-gate" in purposes and "scan-enable" in purposes
        assert controller.area > 0
        assert plan.controller_cells == controller.area


class TestFlowDriver:
    """The one flow driver's record names the paper's design points."""

    @pytest.mark.parametrize("system", ["System1", "System2", "System3", "System4"])
    def test_named_points_and_rows(self, system):
        from repro.designs import system_builders
        from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline
        from repro.flow.report import record_rows
        from repro.soc.optimizer import design_space

        record = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        soc = system_builders()[system]()
        cores = soc.testable_cores()
        points = design_space(soc)
        expected = {
            "fewest cells": min(points, key=lambda p: (p.chip_cells, p.tat)),
            "all cheapest": next(p for p in points if set(p.selection.values()) == {0}),
            "all fastest": next(
                p for p in points
                if all(p.selection[core.name] == core.version_count - 1 for core in cores)
            ),
            "least TAT": min(points, key=lambda p: (p.tat, p.chip_cells)),
        }
        named = record["results"]["points"]
        assert named == {
            name: {"point": p.index, "cells": p.chip_cells, "tat": p.tat,
                   "selection": p.selection}
            for name, p in expected.items()
        }

        tat = {row.configuration: row.tat for row in record_rows(record, "testability")}
        assert tat["SOCET Min. Area"] == named["fewest cells"]["tat"]
        assert tat["SOCET Min. TApp."] == named["least TAT"]["tat"] < tat["FSCAN-BSCAN"]
        min_area, min_tapp = record_rows(record, "area")
        assert min_area.socet_chip_cells == named["fewest cells"]["cells"]
        assert min_tapp.socet_chip_cells == named["least TAT"]["cells"]
        assert min_area.socet_chip_cells <= min_tapp.socet_chip_cells
        assert min_area.socet_total_percent < min_area.fscan_bscan_total_percent
