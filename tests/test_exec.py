"""Tests for the flow's fan-out site.

``design_space`` plans every version selection in one plain in-process
loop.  The headline guarantee: a point's plan does not depend on the
points planned before it, so the sweep matches a serial reference that
plans each selection on its own, in the opposite order.
"""

import itertools

import pytest


def _build(number):
    from repro import designs

    return getattr(designs, f"build_system{number}")()


class TestFanOutDeterminism:
    """The sweep must be bit-identical to selection-by-selection runs."""

    def _point_key(self, selection, plan):
        return (
            tuple(sorted(selection.items())),
            plan.total_tat,
            plan.chip_dft_cells,
            tuple(str(m) for m in plan.test_muxes),
            tuple(sorted((name, p.tat) for name, p in plan.core_plans.items())),
        )

    @pytest.mark.parametrize("number", [2, 4])
    def test_design_space_matches_serial(self, number):
        from repro.soc.optimizer import design_space
        from repro.soc.plan import plan_soc_test

        points = design_space(_build(number), use_cache=False)
        assert [p.index for p in points] == list(range(1, len(points) + 1))
        assert [(p.chip_cells, p.tat) for p in points] == sorted(
            (p.chip_cells, p.tat) for p in points
        )

        soc = _build(number)
        cores = soc.testable_cores()
        combos = list(
            itertools.product(*(range(core.version_count) for core in cores))
        )
        serial = []
        for combo in reversed(combos):
            selection = {core.name: index for core, index in zip(cores, combo)}
            plan = plan_soc_test(soc, selection, use_cache=False)
            serial.append(self._point_key(selection, plan))
        assert sorted(self._point_key(p.selection, p.plan) for p in points) == sorted(
            serial
        )
