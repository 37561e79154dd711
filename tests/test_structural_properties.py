"""Structural property tests over random RTL circuits.

Invariants of HSCAN insertion and version synthesis that must hold for
*any* well-formed circuit, not just the paper's examples:

* every register bit joins exactly one scan unit with exactly one link;
* the scan graph is acyclic and every chain starts at a circuit input
  or a scan-in pin;
* no source bit feeds two scan links (controllability);
* applied HSCAN preserves functional behaviour when scan_en = 0;
* every version justifies every output slice and propagates every
  input; costs are non-decreasing along the ladder.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import apply_hscan, insert_hscan
from repro.elaborate import elaborate
from repro.gates import SequentialSimulator
from tests.rtl_interp import RTLInterpreter
from repro.transparency import generate_versions

from tests.bits import int_to_bits
from tests.test_crosscheck import random_circuit


class TestHscanInvariants:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_every_register_bit_linked_once(self, seed):
        circuit = random_circuit(seed)
        plan = insert_hscan(circuit)
        for register in circuit.registers:
            covered = 0
            for link in plan.links:
                if link.dest.comp == register.name:
                    covered |= ((1 << link.dest.width) - 1) << link.dest.lo
            assert covered == (1 << register.width) - 1, register.name

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_source_bits_never_shared(self, seed):
        circuit = random_circuit(seed)
        plan = insert_hscan(circuit)
        occupancy = {}
        for link in plan.links:
            mask = ((1 << link.source.width) - 1) << link.source.lo
            taken = occupancy.get(link.source.comp, 0)
            assert taken & mask == 0, f"{link.source.comp} double-booked"
            occupancy[link.source.comp] = taken | mask

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_depths_positive_and_bounded(self, seed):
        circuit = random_circuit(seed)
        plan = insert_hscan(circuit)
        assert 1 <= plan.depth <= len(plan.units)

    @given(seed=st.integers(0, 150))
    @settings(max_examples=12, deadline=None)
    def test_functional_mode_preserved(self, seed):
        """With scan_en = 0, the scanned circuit behaves like the original."""
        circuit = random_circuit(seed)
        modified, plan = apply_hscan(circuit)
        reference = RTLInterpreter(circuit)
        elab = elaborate(modified)
        sim = SequentialSimulator(elab.netlist)
        rng = random.Random(seed)
        for _ in range(5):
            stimulus = {
                port.name: rng.getrandbits(port.width) for port in circuit.inputs
            }
            expected = reference.step(stimulus)
            words = {"scan_en.0": 0}
            if plan.scan_in_width:
                for i in range(plan.scan_in_width):
                    words[f"scan_in.{i}"] = 0
            for port in circuit.inputs:
                for i, bit in enumerate(int_to_bits(stimulus[port.name], port.width)):
                    words[f"{port.name}.{i}"] = bit
            raw = sim.step(words)
            for port in circuit.outputs:
                value = sum(
                    (raw[f"{port.name}.{i}"] & 1) << i for i in range(port.width)
                )
                assert value == expected[port.name], port.name


class TestVersionInvariants:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_versions_complete_and_monotone(self, seed):
        circuit = random_circuit(seed)
        versions = generate_versions(circuit)
        assert versions, "at least one version must exist"
        cells = [v.extra_cells for v in versions]
        assert cells == sorted(cells)
        for version in versions:
            # every output slice justified, every input propagated
            outputs = {key[0] for key in version.justify_paths}
            assert outputs == {o.name for o in circuit.outputs}
            assert set(version.propagate_paths) == {i.name for i in circuit.inputs}
            for path in version.justify_paths.values():
                assert path.latency >= 0
            for path in version.propagate_paths.values():
                assert path.latency >= 0

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_later_versions_never_slower(self, seed):
        circuit = random_circuit(seed)
        versions = generate_versions(circuit)
        if len(versions) < 2:
            return
        first, last = versions[0], versions[-1]
        for key, path in first.justify_paths.items():
            if key in last.justify_paths:
                assert last.justify_paths[key].latency <= path.latency
        for port, path in first.propagate_paths.items():
            assert last.propagate_paths[port].latency <= path.latency
