"""Integration tests pinning the paper's worked-example numbers.

These are the strongest regression anchors of the reproduction: the
Section 3 cycle counts and the Section 5.2 latency-number arithmetic
must keep coming out of the generic pipeline exactly.
"""

import pytest

from repro.designs import build_system1
from repro.baselines.fscan_bscan import fscan_bscan_core_tat
from repro.dft.tat import hscan_vector_count
from repro.soc import plan_soc_test
from repro.soc.optimizer import SocetOptimizer


@pytest.fixture(scope="module")
def soc():
    # the paper's DISPLAY test-set size makes the worked example exact
    return build_system1(test_vectors={"DISPLAY": 105})


class TestSection3:
    def test_display_has_525_hscan_vectors(self, soc):
        display = soc.cores["DISPLAY"]
        assert display.scan_depth == 4
        assert display.hscan_vectors == hscan_vector_count(105, 4) == 525

    @pytest.mark.parametrize(
        "cpu_version,expected",
        [(0, 4728), (1, 2103), (2, 1578)],
        ids=["V1:525x9+3", "V2:525x4+3", "V3:525x3+3"],
    )
    def test_display_test_time(self, soc, cpu_version, expected):
        selection = {"CPU": cpu_version, "PREPROCESSOR": 1, "DISPLAY": 0}
        plan = plan_soc_test(soc, selection)
        assert plan.core_plans["DISPLAY"].tat == expected

    def test_fscan_bscan_comparison_number(self):
        assert fscan_bscan_core_tat(66, 20, 105) == 9115

    def test_display_cadence_components(self, soc):
        """Delivery of A: 1 cycle PREPROCESSOR + 8 cycles CPU = 9."""
        plan = plan_soc_test(soc, {"CPU": 0, "PREPROCESSOR": 1, "DISPLAY": 0})
        display_plan = plan.core_plans["DISPLAY"]
        a_delivery = next(d for d in display_plan.deliveries if d.port == "A")
        d_delivery = next(d for d in display_plan.deliveries if d.port == "D")
        assert a_delivery.latency == 9
        assert d_delivery.latency == 1
        assert display_plan.cadence == 9
        assert display_plan.flush == 3


class TestSection52:
    def test_latency_number_improvement(self, soc):
        optimizer = SocetOptimizer(soc)
        plan = plan_soc_test(soc)
        usage = plan.usage_counts()
        # (NUM, DB): twice for the DISPLAY (A and D), once for the CPU
        assert usage[("PREPROCESSOR", "justify", ("DB", 0, 8))] == 3
        # (Reset, Eoc): once, for the CPU's Interrupt
        assert usage[("PREPROCESSOR", "justify", ("Eoc", 0, 1))] == 1
        delta_tat, _ = optimizer.replacement_gain(plan, "PREPROCESSOR")
        assert delta_tat == 12  # 3 uses x (5 - 1), the paper's number

    def test_objective_i_first_pick_is_the_biggest_gain(self, soc):
        """The first replacement follows the highest latency-number gain."""
        optimizer = SocetOptimizer(soc)
        plan = plan_soc_test(soc)
        gains = {
            core.name: optimizer.replacement_gain(plan, core.name)
            for core in soc.testable_cores()
        }
        best = max(
            (name for name, g in gains.items() if g is not None),
            key=lambda name: gains[name][0],
        )
        _, trajectory = optimizer.minimize_tat(plan.chip_dft_cells + 100)
        if len(trajectory) > 1:
            first_change = [
                name
                for name in trajectory[1].selection
                if trajectory[1].selection[name] != trajectory[0].selection[name]
            ]
            assert first_change == [best]
