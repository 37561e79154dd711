"""Per-core test-path identification and SOC test-application time.

For every core under test the planner finds, through the transparency of
the surrounding cores:

* a *delivery* for each input port (justify the upstream core outputs /
  chip PIs feeding it),
* an *observation* for each output slice (propagate through downstream
  cores to chip POs),

inserting a system-level test multiplexer when no path exists (paper
Section 5.1: "If there is no path possible, we add a system-level test
multiplexer").  Each delivery and observation keeps the interconnect
nets its route rides; the scheduler's chip-pin resources and the
interconnect report read them rather than walk the chip again.

The sweep and the optimizer plan one SOC under many selections, and
most cores plan alike under most of them, so each core's plan is kept
in the SOC's :class:`PlanCache` under its *footprint*: the ``(core,
version)`` pairs its search consulted.  The footprint leaves out the
planned core's own version unless its paths loop back through it (the
planner reads the core's output slicing from the core, the same in
every version), and a hit replays the test muxes, test-mux fallbacks
and resource reservations its planning produced, so every counter
counts plans, not misses.  A cached plan is shared by every plan that
reuses it and is never mutated.  :meth:`Soc.invalidate` drops the cache
(see README, "Plan cache").

Timing model (matching the Section 3 worked example exactly):

* a transparency transfer is not pipelined within a core, so a path of
  total latency L delivers one fresh vector every L cycles;
* transfers through different cores (and resource-disjoint paths in the
  same core) overlap freely;
* a shared transparency resource (an RCG arc or a core input port) is
  busy for the latency of each transfer using it, so the per-vector
  cadence is ``max(longest path latency, busiest resource)``;
* per-core TAT = scan_steps x cadence + flush, where scan_steps is the
  HSCAN vector count (V x (depth+1)) and flush = (depth-1) + response
  observation latency -- the DISPLAY's 525 x 9 + 3 = 4,728 cycles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.obs import METRICS, profile_section
from repro.soc.controller import estimate_controller_area
from repro.soc.system import Net, Soc
from repro.transparency.versions import CoreVersion, _tmux_cost

#: key of one transparency transfer: (core, "justify"/"propagate", path key)
UsageKey = Tuple[str, str, Tuple]

#: what one search found: latency, transfers used, interconnect nets ridden
_Route = Tuple[int, Dict[UsageKey, int], List[Net]]

_PLANS = METRICS.counter("chiplevel.plans")
_DELIVERIES = METRICS.counter("chiplevel.deliveries")
_OBSERVATIONS = METRICS.counter("chiplevel.observations")
_MUX_FALLBACKS = METRICS.counter("chiplevel.mux.fallbacks")
_RESERVATIONS = METRICS.counter("chiplevel.resource.reservations")
_HITS = METRICS.counter("exec.cache.hits")
_MISSES = METRICS.counter("exec.cache.misses")


@dataclass(frozen=True)
class TestMux:
    """A system-level test multiplexer giving direct pin access."""

    kind: str  # "input" (PI -> core input) | "output" (core output -> PO)
    core: str
    port: str
    lo: int
    width: int

    @property
    def cost(self) -> int:
        return _tmux_cost(self.width)

    def __str__(self) -> str:
        arrow = "PI=>" if self.kind == "input" else "=>PO"
        return f"tmux[{arrow}] {self.core}.{self.port}[{self.lo}+{self.width}]"


@dataclass
class Delivery:
    """How test data reaches one input port of the core under test."""

    core: str
    port: str
    latency: int
    usages: Counter = field(default_factory=Counter)
    via_test_mux: bool = False
    #: interconnect nets the route rides, each once, in the order the
    #: planner walks them (from the port back to chip pins); none behind
    #: a test mux
    nets: Tuple[Net, ...] = ()


@dataclass
class Observation:
    """How one output slice of the core under test reaches chip POs."""

    core: str
    port: str
    lo: int
    width: int
    latency: int
    usages: Counter = field(default_factory=Counter)
    via_test_mux: bool = False
    #: interconnect nets the route rides, each once, in the order the
    #: planner walks them (from the slice on to chip pins); none behind
    #: a test mux
    nets: Tuple[Net, ...] = ()


@dataclass
class CoreTestPlan:
    """Complete test schedule information for one core under test."""

    core: str
    deliveries: List[Delivery]
    observations: List[Observation]
    cadence: int
    scan_steps: int
    flush: int

    @property
    def tat(self) -> int:
        return self.scan_steps * self.cadence + self.flush

    def all_usages(self) -> Counter:
        return combined_usages(self.deliveries, self.observations)


def combined_usages(
    deliveries: Sequence[Delivery], observations: Sequence[Observation]
) -> Counter:
    """Transparency transfers per scan step of one core's test.

    Deliveries add up: two input ports sharing an upstream edge really
    do use it twice per step (the paper counts (NUM, DB) twice for the
    DISPLAY).  Observations take a per-key max: several output slices of
    the core under test ride the *same* downstream propagation together
    (they arrive on one bus), so a usage key is counted once per step,
    not per slice.
    """
    justify: Counter = Counter()
    for delivery in deliveries:
        justify.update(delivery.usages)
    propagate: Counter = Counter()
    for observation in observations:
        for key, count in observation.usages.items():
            propagate[key] = max(propagate[key], count)
    return justify + propagate


@dataclass
class SocTestPlan:
    """The chip-level test solution for one version selection."""

    soc: Soc
    selection: Dict[str, int]
    core_plans: Dict[str, CoreTestPlan]
    test_muxes: List[TestMux]
    _usage_counts: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_tat(self) -> int:
        """Cores are tested one after another (independent clock gating)."""
        return sum(plan.tat for plan in self.core_plans.values())

    def schedule(
        self,
        algorithm: str = "greedy",
        power_budget: Optional[int] = None,
        include_bist: bool = False,
    ):
        """Pack the core tests into concurrent sessions (a TestSchedule).

        See :mod:`repro.schedule`; imported lazily because the scheduler
        consumes finished plans.
        """
        from repro.schedule import schedule_plan

        return schedule_plan(
            self,
            algorithm=algorithm,
            power_budget=power_budget,
            include_bist=include_bist,
        )

    @property
    def version_cells(self) -> int:
        return sum(
            self.soc.cores[name].version(index).extra_cells
            for name, index in self.selection.items()
        )

    @property
    def test_mux_cells(self) -> int:
        return sum(mux.cost for mux in self.test_muxes)

    @property
    def controller_cells(self) -> int:
        return estimate_controller_area(self)

    @property
    def chip_dft_cells(self) -> int:
        """Chip-level DFT area: transparency logic + test muxes + controller."""
        return self.version_cells + self.test_mux_cells + self.controller_cells

    def usage_counts(self) -> Counter:
        """Transfers per scan step over all core tests, counted once per plan.

        The returned counter is shared; treat it as read-only.
        """
        if self._usage_counts is None:
            total: Counter = Counter()
            for plan in self.core_plans.values():
                total.update(plan.all_usages())
            self._usage_counts = total
        return self._usage_counts


# ----------------------------------------------------------------------
@dataclass
class CachedPlan:
    """One core's plan with what planning it consulted and produced."""

    plan: CoreTestPlan
    #: the footprint: core consulted -> the version index it had
    deps: Dict[str, int]
    #: the test muxes planning added, by key, in the order it added them
    test_muxes: Dict[Tuple, TestMux]
    #: test-mux fallbacks taken and resource-cycles reserved per scan step
    fallbacks: int
    reservations: int


class PlanCache:
    """One SOC's per-core plans, reusable under any selection that agrees
    with their footprints.

    Plans are filed under ``(core, forced muxes, test muxes on entry)``,
    which also shape the search, and probed in the order stored.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, List[CachedPlan]] = {}

    def lookup(self, key: Tuple, selection: Dict[str, int]) -> Optional[CachedPlan]:
        for cached in self._entries.get(key, ()):
            if all(selection.get(core, 0) == index for core, index in cached.deps.items()):
                _HITS.inc()
                return cached
        _MISSES.inc()
        return None

    def store(self, key: Tuple, cached: CachedPlan) -> None:
        self._entries.setdefault(key, []).append(cached)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())


# ----------------------------------------------------------------------
class _Planner:
    def __init__(
        self,
        soc: Soc,
        selection: Dict[str, int],
        forced_input_muxes: Set[Tuple[str, str]],
        forced_output_muxes: Set[Tuple[str, str]],
    ) -> None:
        self.soc = soc
        self.selection = selection
        self.forced_input_muxes = forced_input_muxes
        self.forced_output_muxes = forced_output_muxes
        #: every test mux so far, by key, in the order planning added them
        self.test_muxes: Dict[Tuple, TestMux] = {}
        #: the footprint (core consulted -> version index) and the
        #: test-mux fallbacks of the core being planned
        self._deps: Dict[str, int] = {}
        self._fallbacks = 0

    def version_of(self, core_name: str) -> CoreVersion:
        core = self.soc.cores[core_name]
        index = self.selection.get(core_name, 0)
        self._deps[core_name] = index
        return core.version(index)

    # ------------------------------------------------------------------
    # justification side
    # ------------------------------------------------------------------
    def deliver(
        self, core_name: str, port: str, visited: FrozenSet
    ) -> Optional[_Route]:
        """Latency, usages and nets to place arbitrary data on a core input port."""
        key = (core_name, port)
        if key in visited:
            return None
        visited = visited | {key}
        worst = 0
        usages: Dict[UsageKey, int] = {}
        nets: List[Net] = []
        for net in self.soc.drivers_of(core_name, port):
            nets.append(net)
            if net.source.core is None:
                continue  # chip PI drives it directly: latency 0
            upstream = self.soc.cores.get(net.source.core)
            if upstream is None or upstream.is_memory:
                return None  # cannot justify through a memory core
            result = self.justify_slice(
                net.source.core, net.source.port, net.source.lo, net.source.width, visited
            )
            if result is None:
                return None
            latency, sub_usages, sub_nets = result
            worst = max(worst, latency)
            _add(usages, sub_usages)
            nets.extend(sub_nets)
        return worst, usages, nets

    def justify_slice(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> Optional[_Route]:
        """Justify (set) the given output slice of ``core_name``."""
        version = self.version_of(core_name)
        keys = [
            k
            for k in version.justify_paths
            if k[0] == port and k[1] < lo + width and lo < k[1] + k[2]
        ]
        if not keys:
            return None
        latency = version.combined_justify_latency(keys)
        usages: Dict[UsageKey, int] = {}
        nets: List[Net] = []
        needed_inputs: Set[str] = set()
        for k in keys:
            path = version.justify_paths[k]
            usages[(core_name, "justify", k)] = 1
            needed_inputs.update(path.terminal_ports)
        feed = 0
        for input_port in sorted(needed_inputs):
            feed_latency, feed_usages, feed_nets = self._deliver_or_mux(
                core_name, input_port, visited
            )
            feed = max(feed, feed_latency)
            _add(usages, feed_usages)
            nets.extend(feed_nets)
        return latency + feed, usages, nets

    def _deliver_or_mux(self, core_name: str, port: str, visited: FrozenSet) -> _Route:
        if ("input", core_name, port) in self.test_muxes or (
            core_name,
            port,
        ) in self.forced_input_muxes:
            self._note_input_mux(core_name, port)
            return 0, {}, []
        result = self.deliver(core_name, port, visited)
        if result is None:
            self._fallbacks += 1
            self._note_input_mux(core_name, port)
            return 0, {}, []
        return result

    def _note_input_mux(self, core_name: str, port: str) -> None:
        key = ("input", core_name, port)
        if key not in self.test_muxes:
            width = self.soc.cores[core_name].port_width(port)
            self.test_muxes[key] = TestMux("input", core_name, port, 0, width)

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    def observe_slice(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> Optional[_Route]:
        """Propagate the given output slice of ``core_name`` to chip POs."""
        key = (core_name, port, lo, width)
        if key in visited:
            return None
        visited = visited | {key}
        def is_memory_reader(net) -> bool:
            if net.dest.core is None:
                return False
            downstream = self.soc.cores.get(net.dest.core)
            return downstream is None or downstream.is_memory

        nets = [
            n
            for n in self.soc.readers_of(core_name, port)
            if n.source.lo < lo + width
            and lo < n.source.hi
            and not is_memory_reader(n)  # memory cores cannot propagate
        ]
        covered = 0
        for net in nets:
            overlap = min(net.source.hi, lo + width) - max(net.source.lo, lo)
            covered += max(0, overlap)
        if covered < width:
            return None  # some bits go nowhere (or only into excluded cores)
        worst = 0
        usages: Dict[UsageKey, int] = {}
        ridden: List[Net] = []
        for net in nets:
            ridden.append(net)
            if net.dest.core is None:
                continue  # straight to a PO: latency 0
            version = self.version_of(net.dest.core)
            path = version.propagate_paths.get(net.dest.port)
            if path is None:
                return None
            key = (net.dest.core, "propagate", net.dest.port)
            usages[key] = usages.get(key, 0) + 1
            deepest = 0
            onward_merged: Dict[UsageKey, int] = {}
            for terminal in path.terminals:
                onward_latency, onward_usages, onward_nets = self._observe_or_mux(
                    net.dest.core, terminal.comp, terminal.lo, terminal.width, visited
                )
                deepest = max(deepest, onward_latency)
                # all terminals of one propagation travel onward together
                for key, count in onward_usages.items():
                    onward_merged[key] = max(onward_merged.get(key, 0), count)
                ridden.extend(onward_nets)
            _add(usages, onward_merged)
            worst = max(worst, path.latency + deepest)
        return worst, usages, ridden

    def _observe_or_mux(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> _Route:
        if ("output", core_name, port, lo, width) in self.test_muxes or (
            core_name,
            port,
        ) in self.forced_output_muxes:
            self._note_output_mux(core_name, port, lo, width)
            return 0, {}, []
        result = self.observe_slice(core_name, port, lo, width, visited)
        if result is None:
            self._fallbacks += 1
            self._note_output_mux(core_name, port, lo, width)
            return 0, {}, []
        return result

    def _note_output_mux(self, core_name: str, port: str, lo: int, width: int) -> None:
        key = ("output", core_name, port, lo, width)
        if key not in self.test_muxes:
            self.test_muxes[key] = TestMux("output", core_name, port, lo, width)

    # ------------------------------------------------------------------
    def plan_core(self, core_name: str) -> CachedPlan:
        """Plan one core's test; only the cores its paths cross are consulted.

        The output slicing comes from the core, the same in every version,
        so the core's own version enters the footprint only where its
        paths loop back through it.
        """
        core = self.soc.cores[core_name]
        self._deps = {}
        self._fallbacks = 0
        muxes_before = len(self.test_muxes)

        deliveries: List[Delivery] = []
        for port in sorted(p.name for p in core.circuit.inputs):
            latency, usages, nets = self._deliver_or_mux(core_name, port, frozenset())
            deliveries.append(
                Delivery(
                    core=core_name,
                    port=port,
                    latency=latency,
                    usages=Counter(usages),
                    via_test_mux=("input", core_name, port) in self.test_muxes,
                    nets=tuple(dict.fromkeys(nets)),
                )
            )

        observations: List[Observation] = []
        for piece in core.output_slices:
            output = piece.comp
            latency, usages, nets = self._observe_or_mux(
                core_name, output, piece.lo, piece.width, frozenset()
            )
            observations.append(
                Observation(
                    core=core_name,
                    port=output,
                    lo=piece.lo,
                    width=piece.width,
                    latency=latency,
                    usages=Counter(usages),
                    via_test_mux=("output", core_name, output, piece.lo, piece.width)
                    in self.test_muxes,
                    nets=tuple(dict.fromkeys(nets)),
                )
            )

        cadence, reserved = _cadence(self.version_of, deliveries, observations)
        depth = core.scan_depth
        flush = max(0, depth - 1) + max((o.latency for o in observations), default=0)
        plan = CoreTestPlan(
            core=core_name,
            deliveries=deliveries,
            observations=observations,
            cadence=cadence,
            scan_steps=core.hscan_vectors,
            flush=flush,
        )
        added = itertools.islice(self.test_muxes.items(), muxes_before, None)
        return CachedPlan(plan, self._deps, dict(added), self._fallbacks, reserved)


def _add(usages: Dict[UsageKey, int], more: Dict[UsageKey, int]) -> None:
    """Add ``more``'s transfer counts into ``usages``."""
    for key, count in more.items():
        usages[key] = usages.get(key, 0) + count


def _cadence(
    version_of,
    deliveries: List[Delivery],
    observations: List[Observation],
) -> Tuple[int, int]:
    """max(longest path latency, busiest shared transparency resource).

    Returns the cadence and the resource-cycles reserved per scan step.
    ``version_of`` is the planner's version lookup, so the footprint
    holds the versions the cadence computation reads.
    """
    longest = 1
    for delivery in deliveries:
        longest = max(longest, delivery.latency)
    for observation in observations:
        longest = max(longest, observation.latency)

    busy: Counter = Counter()
    for (core_name, kind, key), count in combined_usages(deliveries, observations).items():
        version = version_of(core_name)
        if kind == "justify":
            path = version.justify_paths.get(tuple(key))
        else:
            path = version.propagate_paths.get(key)
        if path is None:
            continue
        for resource in path.resources:
            busy[(core_name, resource)] += count * path.latency
    busiest = max(busy.values(), default=0)
    return max(longest, busiest), sum(busy.values())


# ----------------------------------------------------------------------
def plan_soc_test(
    soc: Soc,
    selection: Optional[Dict[str, int]] = None,
    forced_muxes: Optional[Set[Tuple[str, str]]] = None,
) -> SocTestPlan:
    """Plan the complete SOC test for one version selection.

    This is the chip level's one path search: each core's deliveries and
    observations ride the transparency paths of its neighbours, and any
    port the search cannot reach falls back to a system-level test mux,
    as the paper does.  A core whose footprint agrees with ``selection``
    reuses its plan from the SOC's plan cache.

    ``selection`` maps core name to version index (default: version 0,
    the minimum-area version, for every core).  ``forced_muxes`` is a set
    of ``(core, port)`` pairs that must be pin-connected via system-level
    test muxes (used by the optimizer's escalation step).

    The plan trusts the versions' declared paths; :func:`repro.lint.lint_soc`
    and :func:`repro.analysis.certify_soc` check them.
    """
    with profile_section("chiplevel.plan"):
        soc.validate()
        if selection is None:
            selection = {core.name: 0 for core in soc.testable_cores()}
        forced_inputs: Set[Tuple[str, str]] = set()
        forced_outputs: Set[Tuple[str, str]] = set()
        for core_name, port in forced_muxes or set():
            kind = soc.cores[core_name].circuit.get(port).kind.value
            if kind == "input":
                forced_inputs.add((core_name, port))
            else:
                forced_outputs.add((core_name, port))
        planner = _Planner(soc, selection, forced_inputs, forced_outputs)
        if soc.plan_cache is None:
            soc.plan_cache = PlanCache()
        forced_key = (frozenset(forced_inputs), frozenset(forced_outputs))
        core_plans: Dict[str, CoreTestPlan] = {}
        fallbacks = reservations = 0
        for core in soc.testable_cores():
            key = (core.name, forced_key, frozenset(planner.test_muxes))
            cached = soc.plan_cache.lookup(key, selection)
            if cached is None:
                cached = planner.plan_core(core.name)
                soc.plan_cache.store(key, cached)
            else:
                planner.test_muxes.update(cached.test_muxes)
            core_plans[core.name] = cached.plan
            fallbacks += cached.fallbacks
            reservations += cached.reservations
        plan = SocTestPlan(
            soc=soc,
            selection=dict(selection),
            core_plans=core_plans,
            test_muxes=list(planner.test_muxes.values()),
        )
        _PLANS.inc()
        _MUX_FALLBACKS.inc(fallbacks)
        _RESERVATIONS.inc(reservations)
        _DELIVERIES.inc(sum(len(p.deliveries) for p in core_plans.values()))
        _OBSERVATIONS.inc(sum(len(p.observations) for p in core_plans.values()))
    return plan
