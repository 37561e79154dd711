"""Tests for the flow's fan-out sites.

``design_space``, ``schedule_points``, ``prepare_cores`` and
``run_socet`` each fan out over many items in one plain in-process
loop.  The headline guarantee: an item's result does not depend on
the items handled before it, so every site matches a serial reference
that handles each item on its own, in the opposite order.
"""

import itertools

import pytest


def _quick_soc():
    """Small three-core SOC with real transparency versions."""
    from repro.designs import build_system1

    return build_system1()


def _build(number):
    from repro import designs

    return getattr(designs, f"build_system{number}")()


class TestFanOutDeterminism:
    """Fan-out loops must be bit-identical to item-by-item serial runs."""

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

    def test_schedule_points_matches_serial(self):
        from repro.flow.chiplevel import schedule_points
        from repro.schedule import schedule_plan
        from repro.soc.optimizer import design_space

        points = design_space(_quick_soc())
        fanned = schedule_points(points)
        serial = [schedule_plan(p.plan) for p in reversed(points)][::-1]
        assert [s.makespan for s in fanned] == [s.makespan for s in serial]
        assert [len(s.sessions()) for s in fanned] == [
            len(s.sessions()) for s in serial
        ]

    def test_prepare_cores_matches_serial(self):
        from repro.designs import build_gcd, build_preprocessor
        from repro.flow import prepare_core, prepare_cores

        fanned = prepare_cores([build_gcd(), build_preprocessor()], seed=0)
        serial = [
            prepare_core(circuit, seed=0)
            for circuit in (build_preprocessor(), build_gcd())
        ][::-1]
        for a, b in zip(fanned, serial):
            assert a.name == b.name
            assert a.vector_count == b.vector_count
            assert a.atpg.report.fault_coverage == b.atpg.report.fault_coverage
            assert a.hscan.extra_area == b.hscan.extra_area
            assert [v.name for v in a.versions] == [v.name for v in b.versions]

    def test_run_socet_matches_serial(self):
        from repro.flow.chiplevel import run_socet
        from repro.schedule import schedule_plan
        from repro.soc.optimizer import design_space

        run = run_socet(_quick_soc())
        points = design_space(_quick_soc())
        min_area = min(points, key=lambda p: (p.chip_cells, p.tat))
        min_tat = min(points, key=lambda p: (p.tat, p.chip_cells))
        assert run.min_area_plan.total_tat == min_area.plan.total_tat
        assert run.min_tat_plan.total_tat == min_tat.plan.total_tat
        assert (
            run.min_area_schedule.makespan
            == schedule_plan(min_area.plan).makespan
        )
        assert (
            run.min_tat_schedule.makespan == schedule_plan(min_tat.plan).makespan
        )
        assert [p.tat for p in run.points] == [p.tat for p in points]
