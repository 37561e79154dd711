"""Property tests: PODEM's verdicts are consistent with the fault simulator.

On random gate netlists, every DETECTED verdict must be confirmed by
fault-simulating the generated pattern, and every REDUNDANT verdict must
survive an exhaustive (or heavy random) pattern barrage undetected.  The
netlists carry constant fanins, 3-input gates, and flip-flops (assigned
pseudo-inputs with observed D pins), so the oracle reaches constant
sources, source stem faults, and flop-pin faults.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import PodemStatus, podem
from repro.faults import FaultSimulator, full_fault_universe
from repro.gates import GateKind, GateNetlist

_KINDS2 = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR, GateKind.XOR, GateKind.XNOR]
_KINDS1 = [GateKind.NOT, GateKind.BUF]
_WIDE = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR]


def random_netlist(seed: int, flops: bool = False) -> GateNetlist:
    """A small random netlist whose gates may read CONST0/CONST1 nets
    and include 3-input AND/OR/NAND/NOR forms.

    With ``flops``, one or two DFFs join the sources as pseudo-inputs;
    their D pins read random gates and are observed (the full-scan view).
    """
    rng = random.Random(seed)
    n = GateNetlist(f"g{seed}")
    nets = []
    for i in range(rng.randint(2, 5)):
        nets.append(n.add_gate(f"i{i}", GateKind.INPUT))
    for name, kind in (("c0", GateKind.CONST0), ("c1", GateKind.CONST1)):
        if rng.random() < 0.3:
            nets.append(n.add_gate(name, kind))
    flop_names = [f"q{i}" for i in range(rng.randint(1, 2))] if flops else []
    nets.extend(flop_names)  # read before they are added: flops break cycles
    gates = []
    for i in range(rng.randint(3, 12)):
        if rng.random() < 0.25:
            kind = rng.choice(_KINDS1)
            fanins = [rng.choice(nets)]
        elif rng.random() < 0.15:
            kind = GateKind.MUX2
            fanins = [rng.choice(nets) for _ in range(3)]
        elif rng.random() < 0.2:
            kind = rng.choice(_WIDE)
            fanins = [rng.choice(nets) for _ in range(3)]
        else:
            kind = rng.choice(_KINDS2)
            fanins = [rng.choice(nets), rng.choice(nets)]
        gates.append(n.add_gate(f"g{i}", kind, fanins))
        nets.append(gates[-1])
    for name in flop_names:
        n.add_gate(name, GateKind.DFF, [rng.choice(gates)])
    # observe a couple of the deepest nets
    for i, net in enumerate(nets[-2:]):
        n.add_gate(f"O{i}", GateKind.OUTPUT, [net])
    return n.validate()


def source_names(netlist: GateNetlist):
    """Inputs and flip-flops: everything a pattern assigns."""
    return sorted(g.name for g in netlist.gates() if g.kind in (GateKind.INPUT, GateKind.DFF))


def exhaustive_patterns(netlist: GateNetlist):
    sources = source_names(netlist)
    for values in itertools.product([0, 1], repeat=len(sources)):
        yield dict(zip(sources, values))


class TestPodemAgainstFaultSim:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_consistent(self, seed):
        netlist = random_netlist(seed, flops=True)
        faults = full_fault_universe(netlist)  # uncollapsed: keeps flop-pin faults
        simulator = FaultSimulator(netlist)
        input_names = source_names(netlist)
        all_patterns = list(exhaustive_patterns(netlist))

        for fault in faults:
            result = podem(netlist, fault, backtrack_limit=300)
            if result.status is PodemStatus.DETECTED:
                pattern = {name: result.assignment.get(name, 0) for name in input_names}
                graded = simulator.run([pattern], [fault])
                assert fault in graded.detected, f"{fault} pattern not confirmed ({seed})"
            elif result.status is PodemStatus.REDUNDANT:
                graded = simulator.run(all_patterns, [fault])
                assert fault in graded.undetected, f"{fault} falsely proven redundant ({seed})"

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_exhaustive_equals_podem_coverage(self, seed):
        """PODEM+sim finds exactly the faults an exhaustive set detects."""
        netlist = random_netlist(seed, flops=True)
        faults = full_fault_universe(netlist)  # uncollapsed: keeps flop-pin faults
        simulator = FaultSimulator(netlist)
        exhaustive = simulator.run(list(exhaustive_patterns(netlist)), faults)
        detectable = set(exhaustive.detected)
        for fault in faults:
            result = podem(netlist, fault, backtrack_limit=1000)
            if result.status is PodemStatus.DETECTED:
                assert fault in detectable
            elif result.status is PodemStatus.REDUNDANT:
                assert fault not in detectable
