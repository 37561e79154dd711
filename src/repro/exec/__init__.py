"""Incremental evaluation: the plan cache.

:mod:`repro.exec.cache` holds :class:`PlanCache`, the incremental
planning cache that memoizes per-core test plans under a dependency
footprint of the ``(core, version)`` pairs each plan consulted.  The
footprint leaves out the planned core's own version, which does not
change its output slicing, and a hit replays the plan's test muxes and
planning counters.  The design-space sweep
(:func:`repro.soc.optimizer.design_space`) and the iterative-improvement
optimizer re-plan mostly unchanged cores, so most of their planning is
cache hits; cached and uncached runs are bit-identical (see README,
"Plan cache").
"""

from repro.exec.cache import (
    CACHE_ENV,
    PlanCache,
    cache_enabled,
    invalidate_plan_cache,
    plan_cache_for,
    soc_signature,
)

__all__ = [
    "CACHE_ENV",
    "PlanCache",
    "cache_enabled",
    "invalidate_plan_cache",
    "plan_cache_for",
    "soc_signature",
]
