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
site's fanout cone.  Each net holds one paired code ``3 * good +
faulty``, so one lookup in the gate's table (:mod:`repro.atpg.values`)
evaluates the good and the faulty machine together; only the fault site
is evaluated apart.  Net values are a pure function of the source
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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AtpgError
from repro.obs import METRICS
from repro.atpg.values import (
    CONTROLLING,
    FOLD,
    GOOD,
    HAS_D,
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
    PAIR_ONE,
    PAIR_TABLES,
    PAIR_X,
    PAIR_ZERO,
    UNKNOWN,
    X,
    ZERO,
    pair_eval,
    v_not,
)
from repro.faults.model import Fault, misfit
from repro.gates.levelize import levelize
from repro.gates.netlist import GateNetlist, NetlistCache

_CALLS = METRICS.counter("atpg.podem.calls")
_BACKTRACKS = METRICS.counter("atpg.podem.backtracks")
_DECISIONS = METRICS.counter("atpg.podem.decisions")
_ABORTS = METRICS.counter("atpg.podem.aborts")
_REDUNDANT = METRICS.counter("atpg.podem.redundant")

#: backtracks a search may take before it aborts, unless told otherwise
BACKTRACK_LIMIT = 150


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
    backtrack_limit: int = BACKTRACK_LIMIT,
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
    return result


#: evaluation forms of a compiled gate: set (a source or constant, never
#: evaluated), one operand, two, MUX2, a wide AND/OR/NAND/NOR, and the
#: fault site of one search (:meth:`_PodemEngine._site_value`)
_SET, _UNARY, _BINARY, _MUX, _WIDE, _SITE = range(6)


class _PodemNetlist:
    """A netlist compiled for PODEM, shared by every call on it.

    Gate ids are positions in :func:`levelize` order, so sources and
    constants come first and every gate's id exceeds its fanins' ids:
    sorting ids *is* topological order.  Per id: a kind code, fanin ids,
    an evaluation form with its paired-code table (:data:`PAIR_TABLES`),
    and the combinational readers (flip-flops excluded -- a D pin is
    observed, not propagated) in ascending id order.  ``base`` holds the
    paired values with every source at X.
    """

    __slots__ = (
        "names", "index", "codes", "fanins", "forms", "tables", "readers", "observe", "base",
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
        self.forms: List[int] = [_form(code, len(ops)) for code, ops in zip(codes, fanins)]
        self.tables: List[Tuple[int, ...]] = [PAIR_TABLES.get(code, ()) for code in codes]
        self.readers: List[Tuple[int, ...]] = [tuple(r) for r in readers]
        self.observe: FrozenSet[int] = frozenset(observe)
        base = [PAIR_X] * len(names)
        for gid, code in enumerate(codes):
            if code == K_CONST0:
                base[gid] = PAIR_ZERO
            elif code == K_CONST1:
                base[gid] = PAIR_ONE
            elif code <= K_MUX2:
                base[gid] = pair_eval(code, [base[f] for f in fanins[gid]])
        self.base: Tuple[int, ...] = tuple(base)


def _form(code: int, arity: int) -> int:
    if code > K_MUX2:
        return _SET
    if code == K_MUX2:
        return _MUX
    return _UNARY if arity == 1 else _BINARY if arity == 2 else _WIDE


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
        problem = misfit(fault, len(net.fanins[site]), netlist)
        if problem:
            raise AtpgError(problem)
        self.site = site
        self.assignment: Dict[int, int] = {}
        #: one paired code (3 * good + faulty) per net
        self.values: List[int] = list(net.base)
        codes, fanins = net.codes, net.fanins

        # the fault site is the one gate whose table alone does not give
        # its pair: a stem site's faulty half is forced to the stuck value;
        # a pin site on an evaluated gate reads the stuck value on that pin
        # for its faulty half (flop pins have no operand -- their fault is
        # observed at capture, and nothing is evaluated apart)
        self.stem = fault.pin is None
        self.stuck_pin: Optional[int] = None
        if not self.stem and codes[site] <= K_MUX2:
            self.stuck_pin = fault.pin
        roots = [site] if self.stem or self.stuck_pin is not None else []
        #: per-gate evaluation forms, the site's :data:`_SITE` if it is special
        self.forms = list(net.forms)
        if roots and codes[site] <= K_MUX2:
            self.forms[site] = _SITE

        # only the site's fanout cone can carry a D: the faulty machine
        # equals the good one everywhere else
        cone = set(roots)
        stack = list(roots)
        while stack:
            for reader in net.readers[stack.pop()]:
                if reader not in cone:
                    cone.add(reader)
                    stack.append(reader)
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
        net, site, values = self.net, self.site, self.values
        dirty: Sequence[int] = ()  # a flop pin fault: nothing to inject
        if self.forms[site] == _SITE:
            dirty = (site,)
        elif self.stem:  # a source or constant stem: set, not evaluated
            values[site] = 3 * GOOD[values[site]] + self.fault.stuck
            dirty = net.readers[site]
        self._propagate(dirty)

    def _imply(self, sources: Iterable[int]) -> None:
        """Implication pass after the assignment of ``sources`` changed."""
        values, assignment, readers = self.values, self.assignment, self.net.readers
        stem_source = self.site if self.stem else -1
        dirty: List[int] = []
        for source in sources:
            value = assignment.get(source, X)
            code = 3 * value + (self.fault.stuck if source == stem_source else value)
            if values[source] != code:
                values[source] = code
                dirty.extend(readers[source])
        self._propagate(dirty)

    def _propagate(self, dirty: Iterable[int]) -> None:
        """Re-evaluate ``dirty`` gates, and every reader of a gate whose
        paired value changed, in topological (id) order."""
        values = self.values
        net = self.net
        codes, fanins, tables, readers = net.codes, net.fanins, net.tables, net.readers
        forms = self.forms
        heap = sorted(dirty)  # a sorted list is a valid heap
        last = -1
        while heap:
            gid = heappop(heap)
            if gid == last:  # queued by more than one changed fanin
                continue
            last = gid
            operands = fanins[gid]
            form = forms[gid]
            if form == _BINARY:
                a, b = operands
                value = tables[gid][9 * values[a] + values[b]]
            elif form == _MUX:
                d0, d1, select = operands
                value = tables[gid][81 * values[d0] + 9 * values[d1] + values[select]]
            elif form == _WIDE:  # fold the leading operands, then the gate's own table
                fold = FOLD[codes[gid]]
                value = values[operands[0]]
                for source in operands[1:-1]:
                    value = fold[9 * value + values[source]]
                value = tables[gid][9 * value + values[operands[-1]]]
            elif form == _UNARY:
                value = tables[gid][values[operands[0]]]
            else:
                value = self._site_value()
            if value != values[gid]:
                values[gid] = value
                for reader in readers[gid]:
                    heappush(heap, reader)

    def _site_value(self) -> int:
        """The fault site's paired value: its faulty half forced (a stem)
        or evaluated with the stuck pin (a pin fault)."""
        values, site, stuck = self.values, self.site, self.fault.stuck
        operands = [values[f] for f in self.net.fanins[site]]
        if self.stuck_pin is not None:
            operands[self.stuck_pin] = 3 * GOOD[operands[self.stuck_pin]] + stuck
        value = pair_eval(self.net.codes[site], operands)
        return 3 * GOOD[value] + stuck if self.stem else value

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def detected(self) -> bool:
        values = self.values
        if self.justify_only is not None:
            net, value = self.justify_only
            return GOOD[values[net]] == value
        for net in self.cone_observe:
            if HAS_D[values[net]]:
                return True
        return False

    def _activation_net(self) -> int:
        """The net whose good value must differ from the stuck value."""
        if self.fault.pin is None:
            return self.site
        return self.net.fanins[self.site][self.fault.pin]

    def _d_frontier(self) -> List[int]:
        """Gates with an X output and a D on an input, deepest first."""
        values, fanins = self.values, self.net.fanins
        frontier = []
        for gid in self.frontier_scan:
            if UNKNOWN[values[gid]]:
                for source in fanins[gid]:
                    if HAS_D[values[source]]:
                        frontier.append(gid)
                        break
        return frontier

    def _xpath_exists(self, frontier: Sequence[int]) -> bool:
        """Can a D still reach an observation point through X nets?"""
        observe, readers, codes = self.net.observe, self.net.readers, self.net.codes
        values = self.values
        stack = list(frontier)
        visited = set(stack)
        while stack:
            gid = stack.pop()
            if gid in observe:
                return True
            for reader in readers[gid]:
                if reader in visited:
                    continue
                if codes[reader] == K_OUTPUT or UNKNOWN[values[reader]]:
                    visited.add(reader)
                    stack.append(reader)
        return False

    # ------------------------------------------------------------------
    # objective and backtrace
    # ------------------------------------------------------------------
    def objective(self) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal, or None if the fault is blocked."""
        values = self.values
        if self.justify_only is not None:
            net, value = self.justify_only
            if GOOD[values[net]] == X:
                return (net, value)
            return None  # justified or conflicting; detected() decides

        activation = self._activation_net()
        good = GOOD[values[activation]]
        if good == X:
            return (activation, v_not(self.fault.stuck))
        if good == self.fault.stuck:
            return None  # activation impossible under current assignment

        # a pin fault also needs the faulty gate's *other* pins sensitized
        # before a D appears at its output
        if self.fault.pin is not None and not HAS_D[values[self.site]]:
            goal = self._expose_pin_fault()
            if goal is not None:
                return goal
            if not UNKNOWN[values[self.site]]:
                return None  # output fully known and equal: fault masked here

        frontier = self._d_frontier()
        if not frontier:
            return None
        if not self._xpath_exists(frontier):
            return None
        # try frontier gates closest to an output first; the objective must
        # target an input that is X in the *good* machine (backtrace steers
        # good values -- faulty-only X inputs resolve via implication)
        codes, fanins = self.net.codes, self.net.fanins
        for gid in frontier:
            for source in fanins[gid]:
                if GOOD[values[source]] == X:
                    controlling = CONTROLLING.get(codes[gid])
                    if controlling is not None:
                        return (source, v_not(controlling))
                    return (source, ZERO)
        return None

    def _expose_pin_fault(self) -> Optional[Tuple[int, int]]:
        """Objective making the faulty gate's output show the pin difference."""
        code = self.net.codes[self.site]
        fanins = self.net.fanins[self.site]
        values = self.values
        pin = self.fault.pin
        assert pin is not None
        if code == K_MUX2:
            d0, d1, select = fanins
            if pin in (0, 1):
                # route the faulty data pin: select must equal the pin index
                if GOOD[values[select]] == X:
                    return (select, ONE if pin == 1 else ZERO)
                return None
            # select-pin fault: the two data legs must differ
            good_d0, good_d1 = GOOD[values[d0]], GOOD[values[d1]]
            if good_d0 == X and good_d1 != X:
                return (d0, v_not(good_d1))
            if good_d1 == X and good_d0 != X:
                return (d1, v_not(good_d0))
            if good_d0 == X:
                return (d0, ZERO)
            return None
        controlling = CONTROLLING.get(code)
        for index, source in enumerate(fanins):
            if index == pin:
                continue
            if GOOD[values[source]] == X:
                if controlling is not None:
                    return (source, v_not(controlling))
                return (source, ZERO)
        return None

    def backtrace(self, net: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk the objective back to an unassigned source."""
        codes, fanins, values = self.net.codes, self.net.fanins, self.values
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
                unknowns = [s for s in fanins[current] if GOOD[values[s]] == X]
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
                good_a, good_b = GOOD[values[a]], GOOD[values[b]]
                if code == K_XNOR:
                    target = v_not(target)
                if good_a == X:
                    current, target = a, (target if good_b in (ZERO, X) else v_not(target))
                elif good_b == X:
                    current, target = b, (target if good_a in (ZERO, X) else v_not(target))
                else:
                    return None
                continue
            if code == K_MUX2:
                d0, d1, select = fanins[current]
                select_value = GOOD[values[select]]
                good_d0, good_d1 = GOOD[values[d0]], GOOD[values[d1]]
                if select_value == ZERO:
                    current = d0
                elif select_value == ONE:
                    current = d1
                elif good_d0 == target and good_d0 != X:
                    current, target = select, ZERO
                elif good_d1 == target and good_d1 != X:
                    current, target = select, ONE
                elif good_d0 == X:
                    current = d0
                elif good_d1 == X:
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
