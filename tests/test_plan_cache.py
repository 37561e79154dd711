"""Tests for the incremental planning cache (``repro.exec.cache``).

The headline regression: design-space sweeps, optimizer runs and whole
pipeline runs with the cache on produce exactly the same plans --
per-core deliveries, observations, cadence, flush and test muxes -- and
the same non-``exec.`` counters as runs with it off.
"""

import pytest

from repro.designs import system_builders
from repro.exec import invalidate_plan_cache, plan_cache_for, soc_signature
from repro.obs import METRICS
from repro.soc.optimizer import SocetOptimizer, design_space
from repro.soc.plan import plan_soc_test

SYSTEMS = sorted(system_builders())


def build(system):
    return system_builders()[system]()


class TestFingerprints:
    def test_signature_tracks_structure(self):
        soc = build("System1")
        before = soc_signature(soc)
        assert soc_signature(soc) == before


class TestCacheLifecycle:
    def test_attached_once_and_reused(self):
        soc = build("System1")
        cache = plan_cache_for(soc)
        assert plan_cache_for(soc) is cache

    def test_sweep_populates_and_hits(self):
        # System3's cores have disjoint path footprints, so most of the
        # sweep's per-core plans are cache hits (System1's paths span every
        # core, so it reuses less; see test_system1_sweep_misses).
        soc = build("System3")
        hits_before = METRICS.counter("exec.cache.hits").value
        design_space(soc, use_cache=True)
        assert len(plan_cache_for(soc, create=False)) > 0
        assert METRICS.counter("exec.cache.hits").value > hits_before

    def test_system1_sweep_misses(self):
        # a footprint leaves out the planned core's own version, so each
        # of System1's three cores is planned once per selection of the
        # other two: 3 x 9 = 27 misses out of 81 lookups
        soc = build("System1")
        misses = METRICS.counter("exec.cache.misses").value
        hits = METRICS.counter("exec.cache.hits").value
        design_space(soc, use_cache=True)
        assert METRICS.counter("exec.cache.misses").value - misses == 27
        assert METRICS.counter("exec.cache.hits").value - hits == 81 - 27

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
                assert pieces == core.output_slices(), (core.name, version.name)

    def test_structural_change_invalidates(self):
        from repro.designs import build_gcd
        from repro.soc import Core

        soc = build("System1")
        cache = plan_cache_for(soc)
        soc.add_core(Core.from_circuit(build_gcd(), test_vectors=4))
        invalidations = METRICS.counter("exec.cache.invalidations").value
        fresh = plan_cache_for(soc)
        assert fresh is not cache
        assert METRICS.counter("exec.cache.invalidations").value == invalidations + 1

    def test_explicit_invalidation(self):
        soc = build("System1")
        plan_cache_for(soc)
        invalidate_plan_cache(soc)
        assert plan_cache_for(soc, create=False) is None

    def test_invalidation_drops_mux_select_names(self):
        # controller area is priced from each version's cached mux-select
        # names, so an in-place path edit must reach them too
        soc = build("System1")
        version = soc.cores["CPU"].versions[1]
        assert version.mux_selects
        version.justify_paths.clear()
        version.propagate_paths.clear()
        invalidate_plan_cache(soc)
        assert version.mux_selects == ()


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
                (d.port, d.latency, tuple(sorted(d.usages.items())), d.via_test_mux)
                for d in core_plan.deliveries
            ),
            tuple(
                (o.port, o.lo, o.width, o.latency, tuple(sorted(o.usages.items())),
                 o.via_test_mux)
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
    """Cache on vs off -> identical plans and counters on every system."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_design_space_identical(self, system):
        def run(enabled):
            return [
                _plan_key(p.plan) for p in design_space(build(system), use_cache=enabled)
            ]

        warm, warm_counters = _counted(lambda: run(True))
        cold, cold_counters = _counted(lambda: run(False))
        assert warm == cold
        assert warm_counters == cold_counters
        assert cold_counters["chiplevel.plans"] == len(cold)

    def test_repeat_plan_calls_identical(self):
        soc = build("System2")
        selection = {name: 0 for name in soc.cores}
        first = plan_soc_test(soc, selection=selection, use_cache=True)
        second = plan_soc_test(soc, selection=selection, use_cache=True)
        assert first.total_tat == second.total_tat
        assert [str(m) for m in first.test_muxes] == [
            str(m) for m in second.test_muxes
        ]


def cache_off(monkeypatch):
    """Plan without the cache from here on: no SOC gets one attached."""
    monkeypatch.setattr("repro.exec.cache.plan_cache_for", lambda *_a, **_k: None)


class TestOptimizerTrajectories:
    """Both optimizers, after a sweep: same trajectories and counters either way."""

    @staticmethod
    def _optimize(monkeypatch, system, enabled, objective):
        if not enabled:
            cache_off(monkeypatch)

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
    def test_minimize_tat_identical(self, monkeypatch, system):
        cached = self._optimize(monkeypatch, system, True, "tat")
        assert cached == self._optimize(monkeypatch, system, False, "tat")

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_minimize_area_identical(self, monkeypatch, system):
        cached = self._optimize(monkeypatch, system, True, "area")
        assert cached == self._optimize(monkeypatch, system, False, "area")


class TestPipelineCounters:
    """The whole pipeline counts the same work with the cache off: a hit
    replays the planning counters of the plan it stands for."""

    @pytest.mark.parametrize("system", ["System1", "System2"])
    def test_quick_run_counters_do_not_depend_on_the_cache(self, monkeypatch, system):
        from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline

        def work(record):
            return {name: value for name, value in record["counters"].items()
                    if not name.startswith("exec.")}

        cached = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        cache_off(monkeypatch)
        uncached = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        assert uncached["counters"]["exec.cache.hits"] == 0
        assert cached["counters"]["exec.cache.hits"] > 0
        assert work(uncached) == work(cached)
        assert uncached["results"] == cached["results"]
