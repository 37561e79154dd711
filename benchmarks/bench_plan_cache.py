"""Plan cache: cold vs warm design-space sweeps.

Sweeps the full design space of System2-System4 once with a cold plan
cache, in which every lookup misses and every core is planned afresh,
and once with a warm cache (a populating sweep runs first), counting
the cache hits of the warm sweep.  The warm sweep's point list must be
bit-identical to the cold sweep's -- the cache's headline guarantee --
and must beat it on the reuse-friendly systems.  The bench's ledger
record carries per-system cold and warm wall times, the speedup, and
the hit counts.
"""

from __future__ import annotations

import time

from conftest import record_bench, write_result

from repro.obs import METRICS
from repro.soc.optimizer import design_space
from repro.soc.plan import PlanCache
from repro.util import render_table

ROUNDS = 1


def _fresh_systems():
    """Bench systems rebuilt fresh (no plan cache shared with other benches)."""
    from repro.designs import build_system2, build_system3, build_system4

    return [build_system2(), build_system3(), build_system4()]


def _point_key(point):
    return (
        tuple(sorted(point.selection.items())),
        point.tat,
        point.chip_cells,
        tuple(str(m) for m in point.plan.test_muxes),
    )


def sweep_with_cache(monkeypatch):
    """Per system: cold and warm sweep times, warm hits, point keys."""
    lookup = PlanCache.lookup
    cold = {}
    warm = {}
    hits = {}
    keys = {}
    for soc in _fresh_systems():
        with monkeypatch.context() as patch:
            # every lookup misses: each core is planned afresh
            patch.setattr(
                PlanCache,
                "lookup",
                lambda _cache, key, selection: lookup(PlanCache(), key, selection),
            )
            start = time.perf_counter()
            points = design_space(soc)
            cold[soc.name] = time.perf_counter() - start
        keys[soc.name] = [_point_key(p) for p in points]

        soc.invalidate()  # the cold sweep stored a plan per lookup
        design_space(soc)  # populate
        hits_before = METRICS.counter("exec.cache.hits").value
        start = time.perf_counter()
        points = design_space(soc)
        warm[soc.name] = time.perf_counter() - start
        hits[soc.name] = METRICS.counter("exec.cache.hits").value - hits_before
        keys[soc.name + "_warm"] = [_point_key(p) for p in points]
    return cold, warm, hits, keys


def test_plan_cache_sweep(benchmark, results_dir, monkeypatch):
    METRICS.reset()  # the record carries exactly the measured runs' counters
    cache_cold, cache_warm, cache_hits, keys = benchmark.pedantic(
        sweep_with_cache, args=(monkeypatch,), rounds=ROUNDS, iterations=1
    )
    systems = sorted(cache_cold)

    # determinism: the warm cache reproduces the cold sweep exactly
    for name in systems:
        assert keys[name + "_warm"] == keys[name], (
            f"warm cache diverged from the cold one on {name}"
        )

    # warm caches must actually be exercised on the reuse-friendly systems
    assert cache_hits["System3"] > 0
    assert cache_hits["System4"] > 0
    # ...and pay off: a fully warm sweep beats planning from scratch
    for name in ("System3", "System4"):
        assert cache_warm[name] < cache_cold[name], (
            f"warm plan cache slower than a cold one on {name}: "
            f"{cache_warm[name]:.3f}s vs {cache_cold[name]:.3f}s"
        )

    payload = {
        name: {
            "cold_wall_s": cache_cold[name],
            "warm_wall_s": cache_warm[name],
            "hits": cache_hits[name],
            "speedup": cache_cold[name] / max(cache_warm[name], 1e-9),
        }
        for name in systems
    }
    record_bench(results_dir, "plan_cache", benchmark, payload)

    rows = [
        [
            name,
            f"{cache_cold[name] * 1000:.1f}",
            f"{cache_warm[name] * 1000:.1f}",
            f"{cache_cold[name] / max(cache_warm[name], 1e-9):.2f}x",
            cache_hits[name],
        ]
        for name in systems
    ]
    text = render_table(
        ["system", "cache cold (ms)", "cache warm (ms)", "cache speedup", "hits"],
        rows,
        title="Design-space sweep: plan cache cold vs warm",
    )
    write_result(results_dir, "plan_cache", text)
