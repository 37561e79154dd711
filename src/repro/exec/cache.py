"""Incremental planning cache: reuse per-core test plans across selections.

``plan_soc_test`` plans each core under test by searching justification
and propagation paths through the *transparency versions of the cores it
routes through*.  Most of the design space shares that work: when the
optimizer (or the exhaustive sweep) changes one core's version, every
core whose paths never touch the changed core re-plans to exactly the
same result.  The cache makes that observation explicit:

* while a core is planned, the planner records every ``(core, version)``
  it consulted -- the plan's *dependency footprint*;
* the footprint leaves out the core's own version unless its paths loop
  back through it: the planner reads the core's output slicing from the
  core, and ``RCG.output_slices`` skips the arcs a version adds, so that
  slicing is the same in every version;
* the finished :class:`~repro.soc.plan.CoreTestPlan` is stored under
  that footprint (plus the test-mux state the planner entered with, and
  the forced-mux sets, which also shape the search), together with the
  test muxes, test-mux fallbacks and resource reservations planning it
  produced;
* a later ``plan_soc_test`` call reuses the entry whenever the current
  selection agrees with the footprint, and replays those side effects --
  so ``chiplevel.mux.fallbacks`` and ``chiplevel.resource.reservations``
  count plans, not cache misses.

Correctness contract (see DESIGN.md, "Plan cache"):

* every lookup re-checks a cheap structural **signature** (core names,
  version counts, net count); if the SOC gained a core, a net, or a
  version since the cache was built, the stale cache is dropped and
  rebuilt automatically;
* in-place mutation of an existing version's paths (same counts, new
  latencies) is not detected per call -- code that does that must call
  :func:`invalidate_plan_cache` (or build a fresh ``Soc``);
* cached ``CoreTestPlan`` objects are shared across plans and must be
  treated as immutable -- nothing in the planner, optimizer, scheduler,
  or reports mutates one after creation.

The cache is always on; a caller turns it off per call with
``plan_soc_test(..., use_cache=False)``.  Cached and uncached runs are
bit-identical, counters included (regression tests sweep, optimize and
run the whole pipeline both ways).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.obs import METRICS

_HITS = METRICS.counter("exec.cache.hits")
_MISSES = METRICS.counter("exec.cache.misses")
_INVALIDATIONS = METRICS.counter("exec.cache.invalidations")


# ----------------------------------------------------------------------
# structural signature
# ----------------------------------------------------------------------
def soc_signature(soc) -> Tuple:
    """Cheap structural signature checked on every cache lookup."""
    return (
        soc.name,
        len(soc.nets),
        tuple(sorted(soc.cores)),
        tuple(core.version_count for _, core in sorted(soc.cores.items())),
    )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
@dataclass
class _CacheEntry:
    """One memoized per-core plan with its dependency footprint."""

    deps: Dict[str, int]  # core consulted -> version index it had
    plan: object  # CoreTestPlan (kept untyped to avoid an import cycle)
    added_muxes: List  # TestMux objects created while planning this core
    added_mux_keys: FrozenSet
    fallbacks: int  # test-mux fallbacks taken while planning this core
    reservations: int  # resource-cycles its cadence reserved


class PlanCache:
    """Per-SOC memo of core test plans keyed by dependency footprint."""

    def __init__(self, soc) -> None:
        self.signature = soc_signature(soc)
        #: (core, forced_key, entry mux state) -> entries, probed in insertion order
        self._entries: Dict[Tuple, List[_CacheEntry]] = {}

    # ------------------------------------------------------------------
    def lookup(
        self,
        core: str,
        forced_key: Tuple,
        mux_state: FrozenSet,
        selection: Dict[str, int],
    ) -> Optional[_CacheEntry]:
        for entry in self._entries.get((core, forced_key, mux_state), ()):
            if all(selection.get(c, 0) == v for c, v in entry.deps.items()):
                _HITS.inc()
                return entry
        _MISSES.inc()
        return None

    def store(
        self,
        core: str,
        forced_key: Tuple,
        mux_state: FrozenSet,
        deps: Dict[str, int],
        plan,
        added_muxes: List,
        added_mux_keys: FrozenSet,
        fallbacks: int,
        reservations: int,
    ) -> None:
        self._entries.setdefault((core, forced_key, mux_state), []).append(
            _CacheEntry(
                deps=dict(deps),
                plan=plan,
                added_muxes=list(added_muxes),
                added_mux_keys=frozenset(added_mux_keys),
                fallbacks=fallbacks,
                reservations=reservations,
            )
        )

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())


# ----------------------------------------------------------------------
# per-SOC attachment
# ----------------------------------------------------------------------
_ATTR = "_plan_cache"


def plan_cache_for(soc, create: bool = True) -> Optional[PlanCache]:
    """The cache attached to ``soc`` (built on first use, auto-refreshed).

    Returns ``None`` when ``create`` is false and no valid cache exists.
    A cache whose structural signature no longer matches the SOC is
    discarded and (if ``create``) rebuilt.
    """
    cache = getattr(soc, _ATTR, None)
    if cache is not None:
        if cache.signature == soc_signature(soc):
            return cache
        _INVALIDATIONS.inc()
        setattr(soc, _ATTR, None)
    if not create:
        return None
    cache = PlanCache(soc)
    setattr(soc, _ATTR, cache)
    return cache


def invalidate_plan_cache(soc) -> None:
    """Drop what planning derived from the SOC (required after in-place edits).

    That is the plan cache, the passed interconnect check and each
    version's mux-select names.
    """
    soc._validated = False
    for core in soc.cores.values():
        for version in core.versions:
            version.__dict__.pop("mux_selects", None)
    if getattr(soc, _ATTR, None) is not None:
        _INVALIDATIONS.inc()
        setattr(soc, _ATTR, None)
