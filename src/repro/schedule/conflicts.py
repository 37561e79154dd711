"""Shared-resource conflict model for concurrent test sessions.

The paper tests one core at a time; real SOC test integration overlaps
core tests whenever they occupy disjoint test resources (Wu's DSC
scheduling, Sehgal et al.'s session planning for wrapped cores).  For
each core under test we derive the complete set of resources its test
occupies while it runs:

* the core under test itself (its scan chain and gated clock),
* every *conduit* core whose transparency carries its stimuli or
  responses (a core in transparency mode cannot be scan-tested),
* every transparency transfer (``UsageKey``) those paths reserve,
* the chip pins that source its stimuli and sink its responses
  (one ATE channel cannot drive two different cores' data at once),
* the system-level test muxes giving it direct pin access, and
* the shared memory-BIST controller, for memory-core sessions.

The pins are the chip ends of the nets the planner's routes ride
(``Delivery.nets`` and ``Observation.nets``); nothing here walks the
interconnect again, and a pin reached only through a test mux is not
held.  Two tests may overlap in time iff their resource sets are
disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.soc.plan import CoreTestPlan, SocTestPlan

#: a schedulable resource; the first element names its kind:
#: ("core", name) | ("xfer", core, kind, key) | ("pin", dir, name)
#: | ("tmux", kind, core, port, lo, width) | ("bist", "controller")
Resource = Tuple


@dataclass(frozen=True)
class TestItem:
    """One schedulable unit of the chip test (a core's full test)."""

    __test__ = False  # not a pytest class, despite the name

    core: str
    duration: int
    resources: FrozenSet[Resource]
    #: concurrent scan activity (flip-flops toggling while this runs)
    activity: int = 0
    kind: str = "logic"  # "logic" | "bist"

    def conflicts_with(self, other: "TestItem") -> bool:
        return bool(self.resources & other.resources)


# ----------------------------------------------------------------------
def resource_set(plan: SocTestPlan, core_plan: CoreTestPlan) -> FrozenSet[Resource]:
    """Every resource ``core_plan``'s test occupies while it runs."""
    resources: Set[Resource] = {("core", core_plan.core)}
    for (conduit, kind, key) in core_plan.all_usages():
        resources.add(("core", conduit))
        resources.add(("xfer", conduit, kind, key))
    for delivery in core_plan.deliveries:
        if delivery.via_test_mux:
            width = plan.soc.cores[core_plan.core].port_width(delivery.port)
            resources.add(("tmux", "input", core_plan.core, delivery.port, 0, width))
        for net in delivery.nets:
            if net.source.core is None:
                resources.add(("pin", "in", net.source.port))
    for observation in core_plan.observations:
        if observation.via_test_mux:
            resources.add(
                ("tmux", "output", core_plan.core, observation.port,
                 observation.lo, observation.width)
            )
        for net in observation.nets:
            if net.dest.core is None:
                resources.add(("pin", "out", net.dest.port))
    return frozenset(resources)


def build_test_items(plan: SocTestPlan, include_bist: bool = False) -> List[TestItem]:
    """Schedulable items for a finished plan (optionally + memory BIST).

    Memory-core BIST sessions share one BIST controller, so they
    serialize against each other but overlap freely with any logic-core
    test whose resources they don't touch.
    """
    items = [
        TestItem(
            core=core_plan.core,
            duration=core_plan.tat,
            resources=resource_set(plan, core_plan),
            activity=plan.soc.cores[core_plan.core].flip_flops,
        )
        for core_plan in plan.core_plans.values()
    ]
    if include_bist:
        from repro.bist.controller import plan_memory_bist

        bist = plan_memory_bist(plan.soc)
        for row in bist.rows:
            items.append(
                TestItem(
                    core=row.core,
                    duration=row.cycles,
                    resources=frozenset(
                        {("core", row.core), ("bist", "controller")}
                    ),
                    activity=row.width,
                    kind="bist",
                )
            )
    return items


def conflict_pairs(items: List[TestItem]) -> List[Tuple[str, str]]:
    """All pairs of items that may never overlap (sorted, deduped)."""
    pairs = []
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a.conflicts_with(b):
                pairs.append(tuple(sorted((a.core, b.core))))
    return sorted(set(pairs))
