"""Differential tests: event-driven PODEM vs the whole-netlist reference.

``ReferencePodem`` below is the engine PODEM had before implication went
event-driven: it re-simulates the *whole* netlist (good and faulty
three-valued machines) after every decision, flip, and backtrack, and
rebuilds the D-frontier by scanning every gate.  It is slow but obviously
right, and it is kept here -- and only here -- as the reference the
production engine must match *decision for decision*: equal status,
assignment, backtracks, decisions, implication passes, and restarts.
Both engines prove a fault whose fanout reaches no observation point
redundant before searching; the reference finds that with its own walk
over the fanout map, not through the production engine's cone.
"""

import random
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.atpg import podem
from repro.atpg import values
from repro.atpg.podem import BACKTRACK_LIMIT, PodemResult, PodemStatus
from repro.designs import build_cpu, build_gcd, build_x25
from repro.elaborate import elaborate
from repro.errors import AtpgError
from repro.faults import collapse_faults, full_fault_universe
from repro.faults.model import Fault
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.levelize import levelize
from repro.gates.netlist import Gate, GateNetlist

from tests.test_podem_property import random_netlist

ZERO, ONE, X = 0, 1, 2
_SOURCE_KINDS = (GateKind.INPUT,) + STATE_KINDS
_CONTROLLING = {GateKind.AND: ZERO, GateKind.NAND: ZERO, GateKind.OR: ONE, GateKind.NOR: ONE}


def _not(a: int) -> int:
    return X if a == X else 1 - a


def _eval(kind: GateKind, operands: List[int]) -> int:
    """Three-valued gate evaluation, written independently of eval3."""
    if kind in (GateKind.BUF, GateKind.OUTPUT):
        return operands[0]
    if kind is GateKind.NOT:
        return _not(operands[0])
    if kind in (GateKind.AND, GateKind.NAND):
        value = ZERO if ZERO in operands else (X if X in operands else ONE)
        return _not(value) if kind is GateKind.NAND else value
    if kind in (GateKind.OR, GateKind.NOR):
        value = ONE if ONE in operands else (X if X in operands else ZERO)
        return _not(value) if kind is GateKind.NOR else value
    if kind in (GateKind.XOR, GateKind.XNOR):
        a, b = operands
        value = X if X in (a, b) else a ^ b
        return _not(value) if kind is GateKind.XNOR else value
    if kind is GateKind.MUX2:
        d0, d1, select = operands
        if select != X:
            return operands[select]
        return d0 if d0 == d1 else X
    raise ValueError(kind)


class ReferencePodem:
    """Whole-netlist PODEM: full simulate() and full D-frontier scans."""

    def __init__(self, netlist, fault, backtrack_limit):
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        self.gates: Dict[str, Gate] = {name: netlist.gate(name) for name in netlist.names()}
        self.order = [
            name for name in levelize(netlist)
            if self.gates[name].kind not in _SOURCE_KINDS
            and self.gates[name].kind not in (GateKind.CONST0, GateKind.CONST1)
        ]
        self.level = {name: i for i, name in enumerate(self.order)}
        self.observe: Set[str] = {g.name for g in netlist.outputs}
        self.observe.update(flop.fanins[0] for flop in netlist.flops)
        self.fanout = netlist.fanout_map()
        self.assignment: Dict[str, int] = {}
        self.good: Dict[str, int] = {}
        self.faulty: Dict[str, int] = {}
        gate = self.gates[fault.gate]
        self.justify_only: Optional[Tuple[str, int]] = None
        if fault.pin is not None and gate.kind in STATE_KINDS:
            self.justify_only = (gate.fanins[fault.pin], _not(fault.stuck))

    def simulate(self) -> None:
        good, faulty = {}, {}
        fault = self.fault
        stem_sites = {fault.gate: fault.stuck} if fault.pin is None else {}
        pin_sites = {} if fault.pin is None else {(fault.gate, fault.pin): fault.stuck}
        for name, gate in self.gates.items():
            if gate.kind in _SOURCE_KINDS:
                good[name] = faulty[name] = self.assignment.get(name, X)
            elif gate.kind is GateKind.CONST0:
                good[name] = faulty[name] = ZERO
            elif gate.kind is GateKind.CONST1:
                good[name] = faulty[name] = ONE
        for site_name, stuck in stem_sites.items():
            if site_name in faulty:
                faulty[site_name] = stuck
        for name in self.order:
            gate = self.gates[name]
            good[name] = _eval(gate.kind, [good[s] for s in gate.fanins])
            if name in stem_sites:
                faulty[name] = stem_sites[name]
                continue
            operands = [faulty[s] for s in gate.fanins]
            for pin in range(len(operands)):
                stuck = pin_sites.get((name, pin))
                if stuck is not None:
                    operands[pin] = stuck
            faulty[name] = _eval(gate.kind, operands)
        self.good, self.faulty = good, faulty

    def _has_d(self, net):
        g, f = self.good[net], self.faulty[net]
        return g != X and f != X and g != f

    def _unknown(self, net):
        return self.good[net] == X or self.faulty[net] == X

    def detected(self):
        if self.justify_only is not None:
            net, value = self.justify_only
            return self.good[net] == value
        return any(self._has_d(net) for net in self.observe)

    def _d_frontier(self):
        return [
            self.gates[name] for name in self.order
            if self.gates[name].kind is not GateKind.OUTPUT
            and self._unknown(name)
            and any(self._has_d(s) for s in self.gates[name].fanins)
        ]

    def _xpath_exists(self, frontier):
        stack = [g.name for g in frontier]
        visited = set(stack)
        while stack:
            name = stack.pop()
            if name in self.observe:
                return True
            for reader in self.fanout[name]:
                kind = self.gates[reader].kind
                if reader in visited or kind in STATE_KINDS:
                    continue
                if kind is GateKind.OUTPUT or self._unknown(reader):
                    visited.add(reader)
                    stack.append(reader)
        return False

    def _observable(self):
        """Does the fault site's fanout reach an observation point?"""
        stack = [self.fault.gate]
        seen = set(stack)
        while stack:
            name = stack.pop()
            if name in self.observe:
                return True
            for reader in self.fanout[name]:
                if reader not in seen and self.gates[reader].kind not in STATE_KINDS:
                    seen.add(reader)
                    stack.append(reader)
        return False

    def _sensitize(self, gate, skip=None):
        controlling = _CONTROLLING.get(gate.kind)
        for index, source in enumerate(gate.fanins):
            if index != skip and self.good[source] == X:
                return (source, ZERO if controlling is None else _not(controlling))
        return None

    def objective(self):
        if self.justify_only is not None:
            net, value = self.justify_only
            return (net, value) if self.good[net] == X else None
        fault = self.fault
        gate = self.gates[fault.gate]
        activation = fault.gate if fault.pin is None else gate.fanins[fault.pin]
        if self.good[activation] == X:
            return (activation, _not(fault.stuck))
        if self.good[activation] == fault.stuck:
            return None
        if fault.pin is not None and not self._has_d(fault.gate):
            goal = self._expose_pin_fault(gate)
            if goal is not None:
                return goal
            if not self._unknown(fault.gate):
                return None
        frontier = self._d_frontier()
        if not frontier or not self._xpath_exists(frontier):
            return None
        for gate in sorted(frontier, key=lambda g: -self.level.get(g.name, 0)):
            goal = self._sensitize(gate)
            if goal is not None:
                return goal
        return None

    def _expose_pin_fault(self, gate):
        pin = self.fault.pin
        good = self.good
        if gate.kind is GateKind.MUX2:
            d0, d1, select = gate.fanins
            if pin in (0, 1):
                return (select, pin) if good[select] == X else None
            if good[d0] == X and good[d1] != X:
                return (d0, _not(good[d1]))
            if good[d1] == X and good[d0] != X:
                return (d1, _not(good[d0]))
            return (d0, ZERO) if good[d0] == X else None
        return self._sensitize(gate, skip=pin)

    def backtrace(self, net, value):
        current, target = net, value
        good = self.good
        for _ in range(len(self.gates) + 1):
            gate = self.gates[current]
            kind = gate.kind
            if kind in _SOURCE_KINDS:
                if current not in self.assignment:
                    return (current, target)
                return None
            if kind in (GateKind.CONST0, GateKind.CONST1):
                return None
            if kind in (GateKind.BUF, GateKind.OUTPUT, GateKind.NOT):
                if kind is GateKind.NOT:
                    target = _not(target)
                current = gate.fanins[0]
            elif kind in _CONTROLLING:
                if kind in (GateKind.NAND, GateKind.NOR):
                    target = _not(target)
                controlling = _CONTROLLING[kind]
                unknowns = [s for s in gate.fanins if good[s] == X]
                if not unknowns:
                    return None
                current = unknowns[0]
                target = controlling if target == controlling else _not(controlling)
            elif kind in (GateKind.XOR, GateKind.XNOR):
                a, b = gate.fanins
                if kind is GateKind.XNOR:
                    target = _not(target)
                if good[a] == X:
                    current, other = a, good[b]
                elif good[b] == X:
                    current, other = b, good[a]
                else:
                    return None
                target = target if other in (ZERO, X) else _not(target)
            elif kind is GateKind.MUX2:
                d0, d1, select = gate.fanins
                if good[select] != X:
                    current = gate.fanins[good[select]]
                elif good[d0] == target:
                    current, target = select, ZERO
                elif good[d1] == target:
                    current, target = select, ONE
                elif good[d0] == X:
                    current = d0
                else:
                    current, target = select, ONE if good[d1] == X else ZERO
            else:
                raise ValueError(kind)
        raise AssertionError("backtrace did not terminate")

    def search(self) -> PodemResult:
        if self.justify_only is None and not self._observable():
            return PodemResult(PodemStatus.REDUNDANT)
        backtracks = tried = restarts = 0
        decisions: List[Tuple[str, int, bool]] = []
        self.simulate()
        implications = 1
        while True:
            counts = (backtracks, tried, implications, restarts)
            if self.detected():
                return PodemResult(PodemStatus.DETECTED, dict(self.assignment), *counts)
            step = None
            goal = self.objective()
            if goal is not None:
                step = self.backtrace(*goal)
                restarts += step is None
            if step is not None:
                source, value = step
                decisions.append((source, value, False))
                self.assignment[source] = value
                tried += 1
                self.simulate()
                implications += 1
                continue
            while decisions:
                source, value, both_tried = decisions.pop()
                del self.assignment[source]
                if not both_tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        counts = (backtracks, tried, implications, restarts)
                        return PodemResult(PodemStatus.ABORTED, {}, *counts)
                    decisions.append((source, _not(value), True))
                    self.assignment[source] = _not(value)
                    tried += 1
                    break
            else:
                counts = (backtracks, tried, implications, restarts)
                return PodemResult(PodemStatus.REDUNDANT, {}, *counts)
            self.simulate()
            implications += 1


def reference_podem(
    netlist: GateNetlist, fault: Fault, backtrack_limit: int = BACKTRACK_LIMIT
) -> PodemResult:
    return ReferencePodem(netlist, fault, backtrack_limit).search()


def assert_same_decisions(netlist, faults, **kwargs):
    for fault in faults:
        expected = reference_podem(netlist, fault, **kwargs)
        assert podem(netlist, fault, **kwargs) == expected, f"{netlist.name}: {fault}"


def collapsed(netlist):
    return sorted(collapse_faults(netlist, full_fault_universe(netlist)), key=Fault.sort_key)


@pytest.fixture(scope="module")
def x25():
    return elaborate(build_x25()).netlist


class TestSameDecisions:
    def test_every_collapsed_x25_fault(self, x25):
        faults = collapsed(x25)
        assert len(faults) == 398
        assert_same_decisions(x25, faults, backtrack_limit=150)

    @pytest.mark.parametrize("build", [build_cpu, build_gcd], ids=["CPU", "GCD"])
    def test_seeded_core_sample(self, build):
        netlist = elaborate(build()).netlist
        sample = random.Random(40).sample(collapsed(netlist), 40)
        assert_same_decisions(netlist, sample, backtrack_limit=150)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_netlists(self, seed):
        """Constant fanins, 3-input gates, and flop pseudo-inputs."""
        netlist = random_netlist(seed, flops=True)
        assert_same_decisions(netlist, full_fault_universe(netlist), backtrack_limit=300)


class TestEngineEdges:
    def test_unknown_fault_site_is_a_named_error(self, x25):
        with pytest.raises(AtpgError, match="not in netlist"):
            podem(x25, Fault("no-such-gate", None, 0))

    def test_constant_stem_and_pin_faults(self):
        n = GateNetlist("consts")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("one", GateKind.CONST1)
        n.add_gate("g", GateKind.AND, ["a", "one", "a"])
        n.add_gate("O", GateKind.OUTPUT, ["g"])
        faults = [Fault("one", None, 0), Fault("g", 1, 0), Fault("g", 1, 1), Fault("g", 2, 1)]
        assert_same_decisions(n, faults)
        assert podem(n, Fault("one", None, 0)).status is PodemStatus.DETECTED
        assert podem(n, Fault("g", 1, 1)).status is PodemStatus.REDUNDANT


#: (kind code, arity) of every gate form the engine evaluates
EVALUATED = (
    [(code, 1) for code in (values.K_BUF, values.K_NOT, values.K_OUTPUT)]
    + [(code, 2) for code in (values.K_XOR, values.K_XNOR)]
    + [(code, arity) for code in values.CONTROLLING for arity in (2, 3, 4)]
    + [(values.K_MUX2, 3)]
)


def pair(good: int, faulty: int) -> int:
    return 3 * good + faulty


class TestPairedTables:
    """One paired-code lookup is eval3 on each machine's half."""

    @pytest.mark.parametrize("code,arity", EVALUATED, ids=[f"{c}x{a}" for c, a in EVALUATED])
    def test_pair_eval_is_eval3_on_both_halves(self, code, arity):
        pins = range(arity)
        for operands in product(range(9), repeat=arity):
            good = values.eval3(code, pins, [c // 3 for c in operands])
            faulty = values.eval3(code, pins, [c % 3 for c in operands])
            assert values.pair_eval(code, operands) == 3 * good + faulty, operands

    def test_tables_index_operand_zero_first(self):
        # AND(X, 0) = 0 in both machines; AND(0, X) likewise; MUX2 picks d1 on select 1
        and2, mux = values.PAIR_TABLES[values.K_AND], values.PAIR_TABLES[values.K_MUX2]
        assert and2[9 * values.PAIR_X + pair(1, 0)] == pair(X, 0)
        assert mux[81 * values.PAIR_ZERO + 9 * values.PAIR_ONE + pair(1, 0)] == pair(1, 0)

    def test_code_predicates(self):
        for good, faulty in product((ZERO, ONE, X), repeat=2):
            code = pair(good, faulty)
            assert values.GOOD[code] == good
            assert values.HAS_D[code] == (X not in (good, faulty) and good != faulty)
            assert values.UNKNOWN[code] == (X in (good, faulty))
