"""Per-core test-path identification and SOC test-application time.

For every core under test the planner finds, through the transparency of
the surrounding cores:

* a *delivery* for each input port (justify the upstream core outputs /
  chip PIs feeding it),
* an *observation* for each output slice (propagate through downstream
  cores to chip POs),

inserting a system-level test multiplexer when no path exists (paper
Section 5.1: "If there is no path possible, we add a system-level test
multiplexer").

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

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import logging

from repro.errors import SocError
from repro.obs import METRICS, profile_section
from repro.soc.controller import estimate_controller_area
from repro.soc.system import PortRef, Soc
from repro.transparency.versions import CoreVersion, _tmux_cost

#: key of one transparency transfer: (core, "justify"/"propagate", path key)
UsageKey = Tuple[str, str, Tuple]

logger = logging.getLogger("repro.soc.plan")

_PLANS = METRICS.counter("chiplevel.plans")
_DELIVERIES = METRICS.counter("chiplevel.deliveries")
_OBSERVATIONS = METRICS.counter("chiplevel.observations")
_MUX_FALLBACKS = METRICS.counter("chiplevel.mux.fallbacks")
_RESERVATIONS = METRICS.counter("chiplevel.resource.reservations")


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

    def delivery_usages(self) -> Counter:
        """Transparency transfers per scan step on the justification side.

        Two input ports sharing an upstream edge really do use it twice
        per step (the paper counts (NUM, DB) twice for the DISPLAY).
        """
        total: Counter = Counter()
        for delivery in self.deliveries:
            total.update(delivery.usages)
        return total

    def observation_usages(self) -> Counter:
        """Transparency transfers per scan step on the response side.

        Several output slices of the core under test ride the *same*
        downstream propagation together (they arrive on one bus), so a
        usage key is counted once per step, not per slice.
        """
        total: Counter = Counter()
        for observation in self.observations:
            for key, count in observation.usages.items():
                total[key] = max(total[key], count)
        return total

    def all_usages(self) -> Counter:
        return self.delivery_usages() + self.observation_usages()


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
    def scheduled_tat(self) -> int:
        """TAT with concurrent sessions (greedy scheduler, no power cap)."""
        return self.schedule().makespan

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
class _Planner:
    def __init__(
        self,
        soc: Soc,
        selection: Dict[str, int],
        allow_test_muxes: bool,
        forced_input_muxes: Set[Tuple[str, str]],
        forced_output_muxes: Set[Tuple[str, str]],
    ) -> None:
        self.soc = soc
        self.selection = selection
        self.allow_test_muxes = allow_test_muxes
        self.forced_input_muxes = forced_input_muxes
        self.forced_output_muxes = forced_output_muxes
        self.test_muxes: List[TestMux] = []
        self._mux_keys: Set[Tuple] = set()
        #: dependency footprint of the core currently being planned
        #: (core consulted -> version index), None when not tracking
        self._deps: Optional[Dict[str, int]] = None
        #: test-mux fallbacks taken and resource-cycles reserved by the
        #: core plans of this call, cached ones included
        self.fallbacks = 0
        self.reservations = 0

    def version_of(self, core_name: str) -> CoreVersion:
        core = self.soc.cores[core_name]
        index = self.selection.get(core_name, 0)
        if self._deps is not None:
            self._deps[core_name] = index
        return core.version(index)

    # ------------------------------------------------------------------
    # justification side
    # ------------------------------------------------------------------
    def deliver(
        self, core_name: str, port: str, visited: FrozenSet
    ) -> Optional[Tuple[int, Counter]]:
        """Latency + usages to place arbitrary data on a core input port."""
        key = (core_name, port)
        if key in visited:
            return None
        visited = visited | {key}
        worst = 0
        usages: Counter = Counter()
        for net in self.soc.drivers_of(core_name, port):
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
            latency, sub_usages = result
            worst = max(worst, latency)
            usages.update(sub_usages)
        return worst, usages

    def justify_slice(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> Optional[Tuple[int, Counter]]:
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
        usages: Counter = Counter()
        needed_inputs: Set[str] = set()
        for k in keys:
            path = version.justify_paths[k]
            usages[(core_name, "justify", k)] += 1
            needed_inputs.update(path.terminal_ports)
        feed = 0
        for input_port in sorted(needed_inputs):
            delivered = self._deliver_or_mux(core_name, input_port, visited)
            if delivered is None:
                return None
            feed_latency, feed_usages = delivered
            feed = max(feed, feed_latency)
            usages.update(feed_usages)
        return latency + feed, usages

    def _deliver_or_mux(
        self, core_name: str, port: str, visited: FrozenSet
    ) -> Optional[Tuple[int, Counter]]:
        if ("input", core_name, port) in self._mux_keys or (
            core_name,
            port,
        ) in self.forced_input_muxes:
            self._note_input_mux(core_name, port)
            return 0, Counter()
        result = self.deliver(core_name, port, visited)
        if result is None:
            if not self.allow_test_muxes:
                return None
            self.fallbacks += 1
            self._note_input_mux(core_name, port)
            return 0, Counter()
        return result

    def _note_input_mux(self, core_name: str, port: str) -> None:
        key = ("input", core_name, port)
        if key not in self._mux_keys:
            self._mux_keys.add(key)
            width = self.soc.cores[core_name].port_width(port)
            self.test_muxes.append(TestMux("input", core_name, port, 0, width))
            logger.debug("test mux added: PI => %s.%s", core_name, port)

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    def observe_slice(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> Optional[Tuple[int, Counter]]:
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
        usages: Counter = Counter()
        for net in nets:
            if net.dest.core is None:
                continue  # straight to a PO: latency 0
            version = self.version_of(net.dest.core)
            path = version.propagate_paths.get(net.dest.port)
            if path is None:
                return None
            usages[(net.dest.core, "propagate", net.dest.port)] += 1
            deepest = 0
            onward_merged: Counter = Counter()
            for terminal in _terminal_slices(path):
                onward = self._observe_or_mux(
                    net.dest.core, terminal[0], terminal[1], terminal[2], visited
                )
                if onward is None:
                    return None
                onward_latency, onward_usages = onward
                deepest = max(deepest, onward_latency)
                # all terminals of one propagation travel onward together
                for key, count in onward_usages.items():
                    onward_merged[key] = max(onward_merged[key], count)
            usages.update(onward_merged)
            worst = max(worst, path.latency + deepest)
        return worst, usages

    def _observe_or_mux(
        self, core_name: str, port: str, lo: int, width: int, visited: FrozenSet
    ) -> Optional[Tuple[int, Counter]]:
        if ("output", core_name, port, lo, width) in self._mux_keys or (
            core_name,
            port,
        ) in self.forced_output_muxes:
            self._note_output_mux(core_name, port, lo, width)
            return 0, Counter()
        result = self.observe_slice(core_name, port, lo, width, visited)
        if result is None:
            if not self.allow_test_muxes:
                return None
            self.fallbacks += 1
            self._note_output_mux(core_name, port, lo, width)
            return 0, Counter()
        return result

    def _note_output_mux(self, core_name: str, port: str, lo: int, width: int) -> None:
        key = ("output", core_name, port, lo, width)
        if key not in self._mux_keys:
            self._mux_keys.add(key)
            self.test_muxes.append(TestMux("output", core_name, port, lo, width))

    # ------------------------------------------------------------------
    def plan_core(self, core_name: str) -> CoreTestPlan:
        """Plan one core's test; only the cores its paths cross are consulted.

        The output slicing comes from the core, the same in every version,
        so the core's own version enters the footprint only where its
        paths loop back through it.
        """
        core = self.soc.cores[core_name]

        deliveries: List[Delivery] = []
        for port in sorted(p.name for p in core.circuit.inputs):
            result = self._deliver_or_mux(core_name, port, frozenset())
            if result is None:
                raise SocError(f"cannot deliver test data to {core_name}.{port}")
            latency, usages = result
            deliveries.append(
                Delivery(
                    core=core_name,
                    port=port,
                    latency=latency,
                    usages=usages,
                    via_test_mux=("input", core_name, port) in self._mux_keys,
                )
            )

        observations: List[Observation] = []
        for piece in core.output_slices():
            output = piece.comp
            result = self._observe_or_mux(core_name, output, piece.lo, piece.width, frozenset())
            if result is None:
                raise SocError(f"cannot observe {core_name}.{output}")
            latency, usages = result
            observations.append(
                Observation(
                    core=core_name,
                    port=output,
                    lo=piece.lo,
                    width=piece.width,
                    latency=latency,
                    usages=usages,
                    via_test_mux=("output", core_name, output, piece.lo, piece.width)
                    in self._mux_keys,
                )
            )

        cadence, reserved = _cadence(self.version_of, deliveries, observations)
        self.reservations += reserved
        depth = core.scan_depth
        flush = max(0, depth - 1) + max((o.latency for o in observations), default=0)
        return CoreTestPlan(
            core=core_name,
            deliveries=deliveries,
            observations=observations,
            cadence=cadence,
            scan_steps=core.hscan_vectors,
            flush=flush,
        )


def _terminal_slices(path) -> List[Tuple[str, int, int]]:
    terminals = []
    for terminal in path.terminals:
        terminals.append((terminal.comp, terminal.lo, terminal.width))
    return terminals


def _cadence(
    version_of,
    deliveries: List[Delivery],
    observations: List[Observation],
) -> Tuple[int, int]:
    """max(longest path latency, busiest shared transparency resource).

    Returns the cadence and the resource-cycles reserved per scan step.
    ``version_of`` is the planner's (dependency-tracking) version lookup,
    so the plan cache sees the versions the cadence computation reads.
    """
    longest = 1
    for delivery in deliveries:
        longest = max(longest, delivery.latency)
    for observation in observations:
        longest = max(longest, observation.latency)

    busy: Counter = Counter()
    combined: Counter = Counter()
    for delivery in deliveries:
        combined.update(delivery.usages)
    observation_usages: Counter = Counter()
    for observation in observations:
        for key, count in observation.usages.items():
            observation_usages[key] = max(observation_usages[key], count)
    combined.update(observation_usages)
    for (core_name, kind, key), count in combined.items():
        version = version_of(core_name)
        if kind == "justify":
            path = version.justify_paths.get(tuple(key))
        else:
            path = version.propagate_paths.get(key)
        if path is None:
            continue
        for resource in path.arcs_used:
            busy[(core_name, resource)] += count * path.latency
        for port in path.terminal_ports:
            busy[(core_name, "port", port)] += count * path.latency
    busiest = max(busy.values(), default=0)
    return max(longest, busiest), sum(busy.values())


# ----------------------------------------------------------------------
def plan_soc_test(
    soc: Soc,
    selection: Optional[Dict[str, int]] = None,
    allow_test_muxes: bool = True,
    forced_muxes: Optional[Set[Tuple[str, str]]] = None,
    use_cache: bool = True,
) -> SocTestPlan:
    """Plan the complete SOC test for one version selection.

    ``selection`` maps core name to version index (default: version 0,
    the minimum-area version, for every core).  ``forced_muxes`` is a set
    of ``(core, port)`` pairs that must be pin-connected via system-level
    test muxes (used by the optimizer's escalation step).

    ``use_cache`` turns the incremental planning cache (see
    :mod:`repro.exec.cache`) on or off.  Cached and uncached plans are
    bit-identical.

    The plan trusts the versions' declared paths; :func:`repro.lint.lint_soc`
    and :func:`repro.analysis.certify_soc` check them.
    """
    from repro.exec.cache import plan_cache_for

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
        planner = _Planner(soc, selection, allow_test_muxes, forced_inputs, forced_outputs)
        cache = plan_cache_for(soc) if use_cache else None
        core_plans: Dict[str, CoreTestPlan] = {}
        if cache is None:
            for core in soc.testable_cores():
                core_plans[core.name] = planner.plan_core(core.name)
        else:
            forced_key = (
                frozenset(forced_inputs),
                frozenset(forced_outputs),
                allow_test_muxes,
            )
            for core in soc.testable_cores():
                name = core.name
                mux_state = frozenset(planner._mux_keys)
                entry = cache.lookup(name, forced_key, mux_state, selection)
                if entry is not None:
                    # replay the side effects the original planning had
                    planner._mux_keys.update(entry.added_mux_keys)
                    planner.test_muxes.extend(entry.added_muxes)
                    planner.fallbacks += entry.fallbacks
                    planner.reservations += entry.reservations
                    core_plans[name] = entry.plan
                    continue
                planner._deps = {}
                muxes_before = len(planner.test_muxes)
                keys_before = set(planner._mux_keys)
                fallbacks_before = planner.fallbacks
                reservations_before = planner.reservations
                core_plans[name] = planner.plan_core(name)
                cache.store(
                    name,
                    forced_key,
                    mux_state,
                    planner._deps,
                    core_plans[name],
                    planner.test_muxes[muxes_before:],
                    frozenset(planner._mux_keys - keys_before),
                    planner.fallbacks - fallbacks_before,
                    planner.reservations - reservations_before,
                )
                planner._deps = None
        plan = SocTestPlan(
            soc=soc,
            selection=dict(selection),
            core_plans=core_plans,
            test_muxes=planner.test_muxes,
        )
        _PLANS.inc()
        _MUX_FALLBACKS.inc(planner.fallbacks)
        _RESERVATIONS.inc(planner.reservations)
        _DELIVERIES.inc(sum(len(p.deliveries) for p in core_plans.values()))
        _OBSERVATIONS.inc(sum(len(p.observations) for p in core_plans.values()))
    return plan
