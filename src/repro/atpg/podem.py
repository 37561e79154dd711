"""PODEM (Path-Oriented DEcision Making) combinational test generation.

Implements the classic algorithm: pick an objective (activate the fault,
then propagate a D to an observation point), backtrace the objective to a
primary-input assignment, imply, and backtrack on conflicts.  The engine
works on the *combinational view* of a gate netlist -- flip-flop outputs
are assignable pseudo-primary inputs and flip-flop D pins are observed,
which is exactly the situation full-scan/HSCAN cores present.

Implication is event-driven over a per-netlist compiled structure
(:class:`_PodemNetlist`): after each decision, flip, or backtrack only
the gates downstream of the sources that changed are re-evaluated, in
topological order, and the D-frontier scan is confined to the fault
site's fanout cone.  Net values are a pure function of the source
assignment, so re-propagating from the changed sources is exact and no
value trail is kept (see DESIGN.md, "PODEM engine contract").

A fault proven untestable by exhausting the decision tree is *redundant*;
hitting the backtrack limit *aborts*.  Both outcomes feed the paper's
test-efficiency metric.  A fault whose fanout cone holds no observation
point (and which is not on a flop input pin, observed at capture) is
redundant before any search: no pattern can make it observable, so its
result carries zero decisions, backtracks, implications and restarts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import AtpgError
from repro.obs import METRICS
from repro.obs.attrib import ATTRIB
from repro.atpg.values import (
    CONTROLLING,
    K_AND,
    K_BUF,
    K_CONST0,
    K_CONST1,
    K_INPUT,
    K_MUX2,
    K_NAND,
    K_NOR,
    K_NOT,
    K_OR,
    K_OUTPUT,
    K_STATE,
    K_XNOR,
    K_XOR,
    KIND_CODE,
    ONE,
    X,
    ZERO,
    eval3,
    v_not,
)
from repro.faults.model import Fault
from repro.gates.cells import STATE_KINDS
from repro.gates.levelize import depth_levels, levelize
from repro.gates.netlist import GateNetlist, NetlistCache

_CALLS = METRICS.counter("atpg.podem.calls")
_BACKTRACKS = METRICS.counter("atpg.podem.backtracks")
_DECISIONS = METRICS.counter("atpg.podem.decisions")
_ABORTS = METRICS.counter("atpg.podem.aborts")
_REDUNDANT = METRICS.counter("atpg.podem.redundant")


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    #: source assignment achieving detection (only for DETECTED);
    #: unassigned sources are free and may take any value
    assignment: Dict[str, int] = field(default_factory=dict)
    backtracks: int = 0
    #: total decision-tree assignments tried (first choices + flips)
    decisions: int = 0
    #: implication passes (three-valued simulations) run by the search
    implications: int = 0
    #: objectives whose backtrace dead-ended, forcing a backtrack restart
    restarts: int = 0


def podem(
    netlist: GateNetlist,
    fault: Fault,
    backtrack_limit: int = 200,
) -> PodemResult:
    """Generate a test for ``fault`` or prove it redundant.

    Every input and flip-flop is an assignable source.
    """
    engine = _PodemEngine(netlist, fault, backtrack_limit)
    result = engine.search()
    _CALLS.inc()
    _BACKTRACKS.inc(result.backtracks)
    _DECISIONS.inc(result.decisions)
    if result.status is PodemStatus.ABORTED:
        _ABORTS.inc()
    elif result.status is PodemStatus.REDUNDANT:
        _REDUNDANT.inc()
    if ATTRIB.enabled:
        gate = netlist.gate(fault.gate)
        if fault.pin is None:
            site = "stem"
        elif gate.kind in STATE_KINDS:
            site = "flop-pin"
        else:
            site = "pin"
        ATTRIB.podem_record({
            "backtracks": result.backtracks,
            "cone_depth": depth_levels(netlist).get(fault.gate, 0),
            "decisions": result.decisions,
            "gate": fault.gate,
            "gate_kind": gate.kind.value,
            "implications": result.implications,
            "netlist": netlist.name,
            "pin": fault.pin,
            "restarts": result.restarts,
            "site": site,
            "status": result.status.value,
            "stuck": fault.stuck,
        })
    return result


class _PodemNetlist:
    """A netlist compiled for PODEM, shared by every call on it.

    Gate ids are positions in :func:`levelize` order, so sources and
    constants come first and every gate's id exceeds its fanins' ids:
    sorting ids *is* topological order.  Per id: a kind code, fanin ids,
    and the combinational readers (flip-flops excluded -- a D pin is
    observed, not propagated) in ascending id order.  ``base`` holds the
    values with every source at X, followed by two stuck-value slots
    (``base[stuck_slot + v] == v``) that pin faults read in place of the
    faulty operand.
    """

    __slots__ = (
        "names", "index", "codes", "fanins", "readers", "observe",
        "base", "stuck_slot",
    )

    def __init__(self, netlist: GateNetlist) -> None:
        names = levelize(netlist)
        index = {name: gid for gid, name in enumerate(names)}
        gates = [netlist.gate(name) for name in names]
        codes = [KIND_CODE[gate.kind] for gate in gates]
        fanins = [tuple(index[source] for source in gate.fanins) for gate in gates]
        readers: List[List[int]] = [[] for _ in names]
        for gid, operands in enumerate(fanins):
            if codes[gid] == K_STATE:
                continue
            for source in operands:
                if not readers[source] or readers[source][-1] != gid:
                    readers[source].append(gid)
        observe = {index[gate.name] for gate in netlist.outputs}
        observe.update(index[flop.fanins[0]] for flop in netlist.flops)

        self.names: Tuple[str, ...] = names
        self.index: Dict[str, int] = index
        self.codes: List[int] = codes
        self.fanins: List[Tuple[int, ...]] = fanins
        self.readers: List[Tuple[int, ...]] = [tuple(r) for r in readers]
        self.observe: FrozenSet[int] = frozenset(observe)
        self.stuck_slot = len(names)
        base = [X] * len(names) + [ZERO, ONE]
        for gid, code in enumerate(codes):
            if code == K_CONST0:
                base[gid] = ZERO
            elif code == K_CONST1:
                base[gid] = ONE
            elif code <= K_MUX2:
                base[gid] = eval3(code, fanins[gid], base)
        self.base: Tuple[int, ...] = tuple(base)


_COMPILED: "NetlistCache[_PodemNetlist]" = NetlistCache()


def _compiled(netlist: GateNetlist) -> _PodemNetlist:
    return _COMPILED.get(netlist, lambda: _PodemNetlist(netlist))


class _PodemEngine:
    def __init__(self, netlist: GateNetlist, fault: Fault, backtrack_limit: int) -> None:
        net = _compiled(netlist)
        self.net = net
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        site = net.index.get(fault.gate)
        if site is None:
            raise AtpgError(f"fault site {fault.gate!r} is not in netlist {netlist.name!r}")
        self.site = site
        self.assignment: Dict[int, int] = {}
        self.good: List[int] = list(net.base)
        self.faulty: List[int] = list(net.base)
        codes, fanins = net.codes, net.fanins

        #: a stem site: the faulty value is forced, never evaluated
        self.stem: Dict[int, int] = {}
        #: a pin site on an evaluated gate: the faulty machine reads the
        #: faulty operand from a stuck-value slot (flop pins have no
        #: operand -- their fault is observed at capture)
        self.faulty_fanins: Dict[int, Tuple[int, ...]] = {}
        if fault.pin is None:
            self.stem[site] = fault.stuck
        elif codes[site] <= K_MUX2 and 0 <= fault.pin < len(fanins[site]):
            operands = list(fanins[site])
            operands[fault.pin] = net.stuck_slot + fault.stuck
            self.faulty_fanins[site] = tuple(operands)

        # only the site's fanout cone can carry a D: the faulty machine
        # equals the good one everywhere else
        roots = list(self.stem) + list(self.faulty_fanins)
        cone = set(roots)
        stack = list(roots)
        while stack:
            for reader in net.readers[stack.pop()]:
                if reader not in cone:
                    cone.add(reader)
                    stack.append(reader)
        self.cone: Set[int] = cone
        self.cone_observe = [gid for gid in cone if gid in net.observe]
        #: D-frontier candidates (evaluated non-OUTPUT cone gates), deepest first
        self.frontier_scan = [
            gid for gid in sorted(cone, reverse=True)
            if codes[gid] <= K_MUX2 and codes[gid] != K_OUTPUT
        ]

        # a fault on a flop input pin is observed directly at capture: the
        # engine then only needs to *justify* the pin net to the non-stuck value
        self.justify_only: Optional[Tuple[int, int]] = None
        if fault.pin is not None and codes[site] == K_STATE:
            self.justify_only = (fanins[site][fault.pin], v_not(fault.stuck))

    # ------------------------------------------------------------------
    # implication
    # ------------------------------------------------------------------
    def _inject(self) -> None:
        """First implication pass: the fault site against all-X sources."""
        net = self.net
        dirty = list(self.faulty_fanins)
        for gid, stuck in self.stem.items():
            if net.codes[gid] > K_MUX2:  # source or constant: set, not evaluated
                self.faulty[gid] = stuck
                dirty.extend(net.readers[gid])
            else:
                dirty.append(gid)
        self._propagate(dirty)

    def _imply(self, sources: Iterable[int]) -> None:
        """Implication pass after the assignment of ``sources`` changed."""
        good, faulty, stem, readers = self.good, self.faulty, self.stem, self.net.readers
        dirty: List[int] = []
        for source in sources:
            value = self.assignment.get(source, X)
            if good[source] != value:
                good[source] = value
                if source not in stem:
                    faulty[source] = value
                dirty.extend(readers[source])
        self._propagate(dirty)

    def _propagate(self, dirty: Iterable[int]) -> None:
        """Re-evaluate ``dirty`` gates, and every reader of a gate whose
        value pair changed, in topological (id) order."""
        good, faulty = self.good, self.faulty
        net = self.net
        codes, fanins, readers = net.codes, net.fanins, net.readers
        cone, stem, faulty_fanins = self.cone, self.stem, self.faulty_fanins
        heap = sorted(set(dirty))  # a sorted list is a valid heap
        queued = set(heap)
        while heap:
            gid = heappop(heap)
            code = codes[gid]
            operands = fanins[gid]
            new_good = eval3(code, operands, good)
            if gid not in cone:
                new_faulty = new_good
            elif gid in stem:
                new_faulty = stem[gid]
            else:
                new_faulty = eval3(code, faulty_fanins.get(gid, operands), faulty)
            if new_good != good[gid] or new_faulty != faulty[gid]:
                good[gid] = new_good
                faulty[gid] = new_faulty
                for reader in readers[gid]:
                    if reader not in queued:
                        queued.add(reader)
                        heappush(heap, reader)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def _has_d(self, net: int) -> bool:
        g, f = self.good[net], self.faulty[net]
        return g != X and f != X and g != f

    def _unknown(self, net: int) -> bool:
        return self.good[net] == X or self.faulty[net] == X

    def detected(self) -> bool:
        if self.justify_only is not None:
            net, value = self.justify_only
            return self.good[net] == value
        return any(self._has_d(net) for net in self.cone_observe)

    def _activation_net(self) -> int:
        """The net whose good value must differ from the stuck value."""
        if self.fault.pin is None:
            return self.site
        return self.net.fanins[self.site][self.fault.pin]

    def _d_frontier(self) -> List[int]:
        """Gates with an X output and a D on an input, deepest first."""
        fanins = self.net.fanins
        return [
            gid for gid in self.frontier_scan
            if self._unknown(gid) and any(self._has_d(s) for s in fanins[gid])
        ]

    def _xpath_exists(self, frontier: Sequence[int]) -> bool:
        """Can a D still reach an observation point through X nets?"""
        observe, readers, codes = self.net.observe, self.net.readers, self.net.codes
        stack = list(frontier)
        visited = set(stack)
        while stack:
            gid = stack.pop()
            if gid in observe:
                return True
            for reader in readers[gid]:
                if reader in visited:
                    continue
                if codes[reader] == K_OUTPUT or self._unknown(reader):
                    visited.add(reader)
                    stack.append(reader)
        return False

    # ------------------------------------------------------------------
    # objective and backtrace
    # ------------------------------------------------------------------
    def objective(self) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or None if the fault is blocked."""
        if self.justify_only is not None:
            net, value = self.justify_only
            if self.good[net] == X:
                return (net, value)
            return None  # justified or conflicting; detected() decides

        activation = self._activation_net()
        desired = v_not(self.fault.stuck)
        if self.good[activation] == X:
            return (activation, desired)
        if self.good[activation] == self.fault.stuck:
            return None  # activation impossible under current assignment

        # a pin fault also needs the faulty gate's *other* pins sensitized
        # before a D appears at its output
        if self.fault.pin is not None and not self._has_d(self.site):
            goal = self._expose_pin_fault()
            if goal is not None:
                return goal
            if not self._unknown(self.site):
                return None  # output fully known and equal: fault masked here

        frontier = self._d_frontier()
        if not frontier:
            return None
        if not self._xpath_exists(frontier):
            return None
        # try frontier gates closest to an output first; the objective must
        # target an input that is X in the *good* machine (backtrace steers
        # good values -- faulty-only X inputs resolve via implication)
        for gid in frontier:
            controlling = CONTROLLING.get(self.net.codes[gid])
            for source in self.net.fanins[gid]:
                if self.good[source] == X:
                    if controlling is not None:
                        return (source, v_not(controlling))
                    return (source, ZERO)
        return None

    def _expose_pin_fault(self) -> Optional[Tuple[int, int]]:
        """Objective making the faulty gate's output show the pin difference."""
        code = self.net.codes[self.site]
        fanins = self.net.fanins[self.site]
        pin = self.fault.pin
        assert pin is not None
        if code == K_MUX2:
            d0, d1, select = fanins
            if pin in (0, 1):
                # route the faulty data pin: select must equal the pin index
                if self.good[select] == X:
                    return (select, ONE if pin == 1 else ZERO)
                return None
            # select-pin fault: the two data legs must differ
            if self.good[d0] == X and self.good[d1] != X:
                return (d0, v_not(self.good[d1]))
            if self.good[d1] == X and self.good[d0] != X:
                return (d1, v_not(self.good[d0]))
            if self.good[d0] == X:
                return (d0, ZERO)
            return None
        controlling = CONTROLLING.get(code)
        for index, source in enumerate(fanins):
            if index == pin:
                continue
            if self.good[source] == X:
                if controlling is not None:
                    return (source, v_not(controlling))
                return (source, ZERO)
        return None

    def backtrace(self, net: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk the objective back to an unassigned source."""
        codes, fanins, good = self.net.codes, self.net.fanins, self.good
        current, target = net, value
        for _ in range(len(codes) + 1):
            code = codes[current]
            if code in (K_INPUT, K_STATE):
                if current not in self.assignment:
                    return (current, target)
                return None
            if code in (K_CONST0, K_CONST1):
                return None
            if code in (K_BUF, K_OUTPUT):
                current = fanins[current][0]
                continue
            if code == K_NOT:
                current, target = fanins[current][0], v_not(target)
                continue
            if K_AND <= code <= K_NOR:
                if code in (K_NAND, K_NOR):
                    target = v_not(target)
                controlling = CONTROLLING[K_AND if code in (K_AND, K_NAND) else K_OR]
                unknowns = [s for s in fanins[current] if good[s] == X]
                if not unknowns:
                    return None
                if target == controlling:
                    current = unknowns[0]  # one controlling input suffices
                    target = controlling
                else:
                    current = unknowns[0]  # all inputs must be non-controlling
                    target = v_not(controlling)
                continue
            if code in (K_XOR, K_XNOR):
                a, b = fanins[current]
                if code == K_XNOR:
                    target = v_not(target)
                if good[a] == X:
                    other = good[b]
                    current, target = a, (target if other in (ZERO, X) else v_not(target))
                elif good[b] == X:
                    other = good[a]
                    current, target = b, (target if other in (ZERO, X) else v_not(target))
                else:
                    return None
                continue
            if code == K_MUX2:
                d0, d1, select = fanins[current]
                select_value = good[select]
                if select_value == ZERO:
                    current = d0
                elif select_value == ONE:
                    current = d1
                elif good[d0] == target and good[d0] != X:
                    current, target = select, ZERO
                elif good[d1] == target and good[d1] != X:
                    current, target = select, ONE
                elif good[d0] == X:
                    current = d0
                elif good[d1] == X:
                    current, target = select, ONE
                else:
                    current, target = select, ZERO
                continue
            raise AtpgError(f"backtrace cannot handle kind code {code}")
        raise AtpgError("backtrace did not terminate (cyclic netlist?)")

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def _result(self, status: PodemStatus, *counts: int) -> PodemResult:
        assignment: Dict[str, int] = {}
        if status is PodemStatus.DETECTED:
            names = self.net.names
            assignment = {names[source]: value for source, value in self.assignment.items()}
        return PodemResult(status, assignment, *counts)

    def search(self) -> PodemResult:
        if self.justify_only is None and not self.cone_observe:
            # no observation point in the fault's cone: no pattern can
            # make it observable, so it is redundant without a search
            return self._result(PodemStatus.REDUNDANT)
        backtracks = 0
        tried = 0
        implications = 0
        restarts = 0
        decisions: List[Tuple[int, int, bool]] = []  # (source, value, both_tried)
        self._inject()
        implications += 1
        while True:
            if self.detected():
                return self._result(
                    PodemStatus.DETECTED, backtracks, tried, implications, restarts
                )

            step: Optional[Tuple[int, int]] = None
            goal = self.objective()
            if goal is not None:
                step = self.backtrace(*goal)
                if step is None:
                    restarts += 1

            if step is not None:
                source, value = step
                decisions.append((source, value, False))
                self.assignment[source] = value
                tried += 1
                self._imply((source,))
                implications += 1
                continue

            # conflict: backtrack
            flipped = False
            undone: List[int] = []
            while decisions:
                source, value, both_tried = decisions.pop()
                del self.assignment[source]
                undone.append(source)
                if not both_tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return self._result(
                            PodemStatus.ABORTED, backtracks, tried, implications, restarts
                        )
                    decisions.append((source, v_not(value), True))
                    self.assignment[source] = v_not(value)
                    tried += 1
                    flipped = True
                    break
            if not flipped:
                return self._result(
                    PodemStatus.REDUNDANT, backtracks, tried, implications, restarts
                )
            self._imply(undone)
            implications += 1
