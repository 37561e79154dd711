"""Tests for the plan cache (``repro.soc.plan.PlanCache``) and what the
``Soc`` derives from itself.

The headline regression: design-space sweeps, optimizer runs and whole
pipeline runs with a warm cache produce exactly the same plans --
per-core deliveries and observations with their nets, cadence, flush and
test muxes -- and the same non-``exec.`` counters as runs with a cold
cache, in which every lookup misses and every core is planned afresh.
"""

import contextlib
import itertools

import pytest

from repro.designs import system_builders
from repro.elaborate import elaborate
from repro.errors import SocError
from repro.obs import METRICS
from repro.soc.optimizer import SocetOptimizer, design_space
from repro.soc.plan import PlanCache, plan_soc_test

SYSTEMS = sorted(system_builders())


def build(system):
    return system_builders()[system]()


@pytest.fixture
def cold_cache(monkeypatch):
    """``with cold_cache():`` every plan-cache lookup misses, so each core
    is planned afresh: the from-scratch reference a warm cache must equal."""
    lookup = PlanCache.lookup

    @contextlib.contextmanager
    def cold():
        with monkeypatch.context() as patch:
            patch.setattr(
                PlanCache,
                "lookup",
                lambda _cache, key, selection: lookup(PlanCache(), key, selection),
            )
            yield

    return cold


def _hits():
    return METRICS.counter("exec.cache.hits").value


class TestCacheLifecycle:
    def test_attached_once_and_reused(self):
        soc = build("System1")
        assert soc.plan_cache is None
        plan_soc_test(soc)
        cache = soc.plan_cache
        plan_soc_test(soc)
        assert soc.plan_cache is cache

    def test_sweep_populates_and_hits(self):
        # System3's cores have disjoint path footprints, so most of the
        # sweep's per-core plans are cache hits (System1's paths span every
        # core, so it reuses less; see test_system1_sweep_misses).
        soc = build("System3")
        hits_before = _hits()
        design_space(soc)
        assert len(soc.plan_cache) > 0
        assert _hits() > hits_before

    def test_system1_sweep_misses(self):
        # a footprint leaves out the planned core's own version, so each
        # of System1's three cores is planned once per selection of the
        # other two: 3 x 9 = 27 misses out of 81 lookups
        soc = build("System1")
        misses = METRICS.counter("exec.cache.misses").value
        hits = _hits()
        design_space(soc)
        assert METRICS.counter("exec.cache.misses").value - misses == 27
        assert _hits() - hits == 81 - 27

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_version_slices_outputs_like_the_core(self, system):
        # the footprint may leave out the planned core's own version only
        # because no version changes the core's output slicing
        for core in build(system).testable_cores():
            for version in core.versions:
                rcg = version.rcg
                pieces = [
                    piece
                    for output in sorted(rcg.output_names())
                    for piece in rcg.output_slices(output)
                ]
                assert pieces == core.output_slices, (core.name, version.name)

    def test_structural_change_invalidates(self):
        from repro.designs import build_gcd
        from repro.soc import Core

        soc = build("System1")
        plan_soc_test(soc)
        invalidations = METRICS.counter("exec.cache.invalidations").value
        soc.add_core(Core.from_circuit(build_gcd(), test_vectors=4))
        assert soc.plan_cache is None
        assert METRICS.counter("exec.cache.invalidations").value == invalidations + 1

    def test_explicit_invalidation(self):
        soc = build("System1")
        plan_soc_test(soc)
        soc.invalidate()
        assert soc.plan_cache is None

    def test_invalidation_drops_mux_select_names(self):
        # controller area is priced from each version's cached mux-select
        # names, so an in-place path edit must reach them too
        soc = build("System1")
        version = soc.cores["CPU"].versions[1]
        assert version.mux_selects
        version.justify_paths.clear()
        version.propagate_paths.clear()
        soc.invalidate()
        assert version.mux_selects == ()


class TestSocInvalidate:
    """An in-place circuit swap reaches everything the SOC derived."""

    def test_functional_area_follows_a_circuit_swap(self):
        from repro.designs import build_x25

        soc = build("System2")
        assert soc.total_functional_area() == 1141
        soc.cores["GRAPHICS"].circuit = build_x25()
        soc.invalidate()
        fresh = sum(elaborate(core.circuit).netlist.area() for core in soc.testable_cores())
        assert soc.total_functional_area() == fresh == 899

    def test_wiring_is_checked_again(self):
        from repro.designs import build_x25

        soc = build("System2")
        soc.validate()
        soc.cores["GRAPHICS"].circuit = build_x25()
        soc.invalidate()
        with pytest.raises(SocError, match="GRAPHICS"):
            soc.validate()


def _plan_key(plan):
    """Everything a plan decides, per core: the equality cached runs must keep."""
    cores = []
    for name, core_plan in sorted(plan.core_plans.items()):
        cores.append((
            name,
            core_plan.cadence,
            core_plan.scan_steps,
            core_plan.flush,
            tuple(
                (d.port, d.latency, tuple(sorted(d.usages.items())), d.via_test_mux,
                 d.nets)
                for d in core_plan.deliveries
            ),
            tuple(
                (o.port, o.lo, o.width, o.latency, tuple(sorted(o.usages.items())),
                 o.via_test_mux, o.nets)
                for o in core_plan.observations
            ),
        ))
    return (
        tuple(sorted(plan.selection.items())),
        plan.total_tat,
        plan.chip_dft_cells,
        tuple(plan.test_muxes),
        tuple(cores),
    )


def _counted(run):
    """``run()``'s result with the non-``exec.`` counter deltas it caused."""
    before = METRICS.counters()
    result = run()
    deltas = {
        name: value - before.get(name, 0)
        for name, value in sorted(METRICS.counters().items())
        if not name.startswith("exec.") and value != before.get(name, 0)
    }
    return result, deltas


class TestCachedSweepIdentical:
    """Warm vs cold cache -> identical plans and counters on every system."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_design_space_identical(self, cold_cache, system):
        def run():
            return [_plan_key(p.plan) for p in design_space(build(system))]

        hits = _hits()
        warm, warm_counters = _counted(run)
        assert _hits() > hits
        hits = _hits()
        with cold_cache():
            cold, cold_counters = _counted(run)
        assert _hits() == hits
        assert warm == cold
        assert warm_counters == cold_counters
        assert cold_counters["chiplevel.plans"] == len(cold)

    def test_repeat_plan_calls_identical(self):
        soc = build("System2")
        selection = {name: 0 for name in soc.cores}
        first = plan_soc_test(soc, selection=selection)
        second = plan_soc_test(soc, selection=selection)
        assert first.total_tat == second.total_tat
        assert [str(m) for m in first.test_muxes] == [
            str(m) for m in second.test_muxes
        ]


class TestFanOutDeterminism:
    """A point's plan does not depend on the points planned before it: the
    sweep matches each selection planned on its own with a cold cache, in
    the opposite order."""

    @pytest.mark.parametrize("number", [2, 4])
    def test_design_space_matches_serial(self, cold_cache, number):
        system = f"System{number}"
        points = design_space(build(system))
        assert [p.index for p in points] == list(range(1, len(points) + 1))
        assert [(p.chip_cells, p.tat) for p in points] == sorted(
            (p.chip_cells, p.tat) for p in points
        )

        soc = build(system)
        cores = soc.testable_cores()
        combos = list(itertools.product(*(range(core.version_count) for core in cores)))
        with cold_cache():
            serial = [
                _plan_key(plan_soc_test(soc, dict(zip((c.name for c in cores), combo))))
                for combo in reversed(combos)
            ]
        assert sorted(_plan_key(p.plan) for p in points) == sorted(serial)


class TestOptimizerTrajectories:
    """Both optimizers, after a sweep: same trajectories and counters either way."""

    @staticmethod
    def _optimize(system, objective):
        def run():
            soc = build(system)
            points = design_space(soc)
            budget = max(p.chip_cells for p in points)
            fast, trajectory = SocetOptimizer(soc).minimize_tat(budget)
            if objective == "area":
                tat_budget = fast.total_tat + (points[0].tat - fast.total_tat) // 2
                _, trajectory = SocetOptimizer(soc).minimize_area(tat_budget)
            return [_plan_key(step.plan) for step in trajectory]

        return _counted(run)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_minimize_tat_identical(self, cold_cache, system):
        warm = self._optimize(system, "tat")
        with cold_cache():
            assert warm == self._optimize(system, "tat")

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_minimize_area_identical(self, cold_cache, system):
        warm = self._optimize(system, "area")
        with cold_cache():
            assert warm == self._optimize(system, "area")


class TestPipelineCounters:
    """The whole pipeline counts the same work with a cold cache: a hit
    replays the planning counters of the plan it stands for."""

    @pytest.mark.parametrize("system", ["System1", "System2"])
    def test_quick_run_counters_do_not_depend_on_the_cache(self, cold_cache, system):
        from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline

        def work(record):
            return {name: value for name, value in record["counters"].items()
                    if not name.startswith("exec.")}

        warm = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        with cold_cache():
            cold = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        assert cold["counters"]["exec.cache.hits"] == 0
        assert warm["counters"]["exec.cache.hits"] > 0
        assert work(cold) == work(warm)
        assert cold["results"] == warm["results"]
