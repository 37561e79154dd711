"""Tests for the incremental planning cache (``repro.exec.cache``).

The headline regression: design-space sweeps and optimizer runs with the
cache on produce exactly the same DesignPoint TAT/area sequences (and
test-mux lists) as runs with it off, on every registered system.
"""

import pytest

from repro.designs import system_builders
from repro.errors import UsageError
from repro.exec import (
    CACHE_ENV,
    cache_enabled,
    invalidate_plan_cache,
    plan_cache_for,
    soc_fingerprint,
    soc_signature,
)
from repro.obs import METRICS
from repro.soc.optimizer import SocetOptimizer, design_space
from repro.soc.plan import plan_soc_test

SYSTEMS = sorted(system_builders())


def build(system):
    return system_builders()[system]()


class TestCacheToggles:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV, value)
        assert not cache_enabled()

    def test_plan_cache_accepts_boolean_spellings(self, monkeypatch):
        for raw, expected in [("1", True), ("TRUE", True), ("on", True),
                              ("0", False), ("False", False), ("off", False),
                              ("no", False), ("yes", True)]:
            monkeypatch.setenv(CACHE_ENV, raw)
            assert cache_enabled() is expected
        monkeypatch.delenv(CACHE_ENV)
        assert cache_enabled() is True

    def test_plan_cache_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "fales")
        with pytest.raises(UsageError) as err:
            cache_enabled()
        assert "fales" in str(err.value)
        assert CACHE_ENV in str(err.value)


class TestFingerprints:
    def test_identical_builds_fingerprint_identically(self):
        assert soc_fingerprint(build("System1")) == soc_fingerprint(build("System1"))

    def test_different_systems_differ(self):
        assert soc_fingerprint(build("System1")) != soc_fingerprint(build("System2"))

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
        # sweep's per-core plans are cache hits (System1's footprints span
        # every core, which legitimately defeats reuse there).
        soc = build("System3")
        hits_before = METRICS.counter("exec.cache.hits").value
        design_space(soc, use_cache=True)
        assert len(plan_cache_for(soc, create=False)) > 0
        assert METRICS.counter("exec.cache.hits").value > hits_before

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


class TestCachedSweepIdentical:
    """Satellite: cache on vs off -> identical TAT/area on every system."""

    def _point_key(self, point):
        return (
            tuple(sorted(point.selection.items())),
            point.tat,
            point.chip_cells,
            tuple(str(m) for m in point.plan.test_muxes),
        )

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_design_space_identical(self, system):
        cold = design_space(build(system), use_cache=False)
        warm = design_space(build(system), use_cache=True)
        assert [self._point_key(p) for p in warm] == [
            self._point_key(p) for p in cold
        ]

    def test_repeat_plan_calls_identical(self):
        soc = build("System2")
        selection = {name: 0 for name in soc.cores}
        first = plan_soc_test(soc, selection=selection, use_cache=True)
        second = plan_soc_test(soc, selection=selection, use_cache=True)
        assert first.total_tat == second.total_tat
        assert [str(m) for m in first.test_muxes] == [
            str(m) for m in second.test_muxes
        ]


class TestOptimizerTrajectories:
    @pytest.mark.parametrize("system", ["System1", "System2"])
    def test_minimize_tat_identical(self, monkeypatch, system):
        def run(enabled):
            monkeypatch.setenv(CACHE_ENV, "1" if enabled else "0")
            soc = build(system)
            points = design_space(soc)
            budget = max(p.chip_cells for p in points)
            plan, trajectory = SocetOptimizer(soc).minimize_tat(budget)
            return plan.total_tat, plan.chip_dft_cells, [
                (step.tat, step.chip_cells) for step in trajectory
            ]

        assert run(True) == run(False)
