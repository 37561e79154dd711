"""Cross-validation: RTL interpreter vs gate-level elaboration.

Two fully independent execution paths -- the word-level RTL interpreter
and bit-blasted elaborate+simulate -- must agree cycle-for-cycle, on
random circuits and on every example core.  Hypothesis drives circuit
construction seeds and input stimuli.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import core_builders
from repro.elaborate import elaborate
from repro.gates import SequentialSimulator
from repro.rtl import CircuitBuilder, OpKind, Slice
from tests.rtl_interp import RTLInterpreter
from repro.rtl.types import Concat

from tests.bits import int_to_bits

_BINARY_OPS = [OpKind.ADD, OpKind.SUB, OpKind.AND, OpKind.OR, OpKind.XOR]
_UNARY_OPS = [OpKind.INC, OpKind.DEC, OpKind.NOT, OpKind.SHL, OpKind.SHR]


def random_circuit(seed: int):
    """A random but always-valid RTL circuit."""
    rng = random.Random(seed)
    b = CircuitBuilder(f"rand{seed}")
    width = rng.choice([2, 4, 8])
    sources = []
    for i in range(rng.randint(1, 3)):
        sources.append(b.input(f"I{i}", width))
    select_bits = b.input("SEL", 2)

    expressions = list(sources)
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(_BINARY_OPS + _UNARY_OPS)
        if kind in _BINARY_OPS:
            operands = [rng.choice(expressions), rng.choice(expressions)]
        else:
            operands = [rng.choice(expressions)]
        expressions.append(b.op(f"OP{i}", kind, operands))
    for i in range(rng.randint(0, 2)):
        inputs = [rng.choice(expressions) for _ in range(rng.randint(2, 3))]
        expressions.append(b.mux(f"M{i}", inputs, select=select_bits))

    registers = []
    for i in range(rng.randint(1, 3)):
        driver = rng.choice(expressions)
        enable = select_bits.sub(0, 1) if rng.random() < 0.3 else None
        reg = b.register(f"R{i}", width, enable=enable)
        b.drive(reg, driver)
        registers.append(reg)
        expressions.append(reg)
    # one split register exercising concat drivers
    if width >= 4:
        half = width // 2
        lo = rng.choice(expressions)
        hi = rng.choice(expressions)
        split = b.register("RSPLIT", width)
        b.drive(split, Concat((Slice(lo.comp, lo.lo, half), Slice(hi.comp, hi.lo + half, half))))
        expressions.append(split)

    b.output("O0", rng.choice(registers))
    b.output("O1", rng.choice(expressions))
    return b.build()


def run_both(circuit, stimuli):
    """(interpreter outputs, gate-level outputs) per cycle."""
    interp = RTLInterpreter(circuit)
    elab = elaborate(circuit)
    gate_sim = SequentialSimulator(elab.netlist)

    interp_trace, gate_trace = [], []
    for cycle_inputs in stimuli:
        interp_trace.append(interp.step(cycle_inputs))
        words = {}
        for port in circuit.inputs:
            for i, bit in enumerate(int_to_bits(cycle_inputs[port.name], port.width)):
                words[f"{port.name}.{i}"] = bit
        raw = gate_sim.step(words)
        decoded = {}
        for port in circuit.outputs:
            decoded[port.name] = sum(
                (raw[f"{port.name}.{i}"] & 1) << i for i in range(port.width)
            )
        gate_trace.append(decoded)
    return interp_trace, gate_trace


class TestRandomCircuits:
    @given(seed=st.integers(0, 400), stim_seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_interpreter_matches_gates(self, seed, stim_seed):
        circuit = random_circuit(seed)
        rng = random.Random(stim_seed)
        stimuli = [
            {
                port.name: rng.getrandbits(port.width)
                for port in circuit.inputs
            }
            for _ in range(6)
        ]
        interp_trace, gate_trace = run_both(circuit, stimuli)
        assert interp_trace == gate_trace


class TestExampleCores:
    @pytest.mark.parametrize("name", sorted(core_builders()))
    def test_interpreter_matches_gates_on_core(self, name):
        circuit = core_builders()[name]()
        rng = random.Random(hash(name) & 0xFFFF)
        stimuli = [
            {port.name: rng.getrandbits(port.width) for port in circuit.inputs}
            for _ in range(12)
        ]
        interp_trace, gate_trace = run_both(circuit, stimuli)
        assert interp_trace == gate_trace
