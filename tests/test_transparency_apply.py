"""Gate-level proof that transparency paths actually transport data.

These tests synthesize the test-mode hardware for a justification path
(select forcing, load forcing, freeze holds), elaborate to gates,
drive the freeze schedule the way the paper's test controller would,
and check that a value applied at the core input appears at the target
output slice after *exactly* the predicted latency.
"""

import pytest

from repro.designs import build_cpu, build_display, build_preprocessor
from repro.dft import insert_hscan
from repro.elaborate import elaborate
from repro.gates import SequentialSimulator
from repro.rtl import CircuitBuilder, Slice
from repro.rtl.types import Concat
from repro.transparency import generate_versions
from repro.transparency.apply import apply_transparency_path, freeze_schedule

from tests.bits import int_to_bits


def deliver(circuit, path, value):
    """Apply ``value`` at the path's terminal input; return the output slice
    value observed after ``path.latency`` cycles."""
    app = apply_transparency_path(circuit, path)
    elab = elaborate(app.circuit)
    sim = SequentialSimulator(elab.netlist)

    input_ports = {t.comp for t in path.terminals}

    def words_for(step):
        words = {}
        for gate in elab.netlist.inputs:
            words[gate.name] = 0
        words[f"{app.mode_input}.0"] = 1
        for port in input_ports:
            width = app.circuit.get(port).width
            for i, bit in enumerate(int_to_bits(value & ((1 << width) - 1), width)):
                words[f"{port}.{i}"] = bit
        for register, hold_name in app.hold_inputs.items():
            words[f"{hold_name}.0"] = 1 if step in app.schedule.get(register, set()) else 0
        return words

    for step in range(path.latency):
        sim.step(words_for(step))
    # probe: outputs returned by a step reflect the state entering it
    outputs = sim.step(words_for(path.latency))
    root = path.root
    return sum((outputs[f"{root.comp}.{root.lo + i}"] & 1) << i for i in range(root.width))


@pytest.fixture(scope="module")
def cpu():
    circuit = build_cpu()
    return circuit, generate_versions(circuit, insert_hscan(circuit))


@pytest.fixture(scope="module")
def preprocessor():
    circuit = build_preprocessor()
    return circuit, generate_versions(circuit, insert_hscan(circuit))


class TestCpuPathsAtGateLevel:
    @pytest.mark.parametrize("value", [0x00, 0xFF, 0xA5, 0x3C])
    def test_v1_six_cycle_address_path(self, cpu, value):
        """Figure 4(b): Data reaches Address(7:0) after six cycles, with the
        early sub-path frozen one cycle to balance the split."""
        circuit, versions = cpu
        path = versions[0].justify_paths[("Address", 0, 8)]
        assert path.latency == 6
        assert path.freezes  # the balancing freeze must exist
        assert deliver(circuit, path, value) == value

    @pytest.mark.parametrize("value", [0x0F, 0x81])
    def test_v1_two_cycle_page_path(self, cpu, value):
        circuit, versions = cpu
        path = versions[0].justify_paths[("Address", 8, 4)]
        assert path.latency == 2
        assert deliver(circuit, path, value) == value & 0xF

    @pytest.mark.parametrize("value", [0x5A, 0xC3])
    def test_v2_one_cycle_mux_m_path(self, cpu, value):
        """Version 2 steals mux M: Data -> Address(7:0) in one cycle."""
        circuit, versions = cpu
        path = versions[1].justify_paths[("Address", 0, 8)]
        assert path.latency == 1
        assert deliver(circuit, path, value) == value

    def test_v3_added_mux_page_path(self, cpu):
        """Version 3's synthesized transparency mux (Figure 5)."""
        circuit, versions = cpu
        path = versions[2].justify_paths[("Address", 8, 4)]
        assert path.latency == 1
        assert deliver(circuit, path, 0x9) == 0x9

    def test_reset_to_read_control_chain(self, cpu):
        circuit, versions = cpu
        path = versions[0].justify_paths[("Read", 0, 1)]
        assert path.latency == 2
        assert deliver(circuit, path, 1) == 1
        assert deliver(circuit, path, 0) == 0


class TestPreprocessorPathsAtGateLevel:
    @pytest.mark.parametrize("value", [0x00, 0xFF, 0x2D])
    def test_v1_five_cycle_pipeline(self, preprocessor, value):
        circuit, versions = preprocessor
        path = versions[0].justify_paths[("DB", 0, 8)]
        assert path.latency == 5
        assert deliver(circuit, path, value) == value

    def test_v2_bypass(self, preprocessor):
        circuit, versions = preprocessor
        path = versions[1].justify_paths[("DB", 0, 8)]
        assert path.latency == 1
        assert deliver(circuit, path, 0x77) == 0x77


class TestFreezeSchedule:
    def test_balanced_paths_need_no_holds(self):
        b = CircuitBuilder("bal")
        a = b.input("A", 8)
        r1 = b.register("R1", 8)
        r2 = b.register("R2", 8)
        b.drive(r1, a)
        b.drive(r2, r1)
        b.output("O", r2)
        from repro.transparency import RCG, TransparencySearch

        path = TransparencySearch(RCG.from_circuit(b.build())).justify(Slice("O", 0, 8))
        assert freeze_schedule(path) == {}

    def test_unbalanced_register_holds_the_gap(self):
        """S (1 cycle) vs T1->T2 (2 cycles) into a C-split register."""
        b = CircuitBuilder("freezy")
        a = b.input("A", 8)
        s = b.register("S", 4)
        t1 = b.register("T1", 4)
        t2 = b.register("T2", 4)
        r = b.register("R", 8)
        b.drive(s, a.sub(0, 4))
        b.drive(t1, a.sub(4, 4))
        b.drive(t2, t1)
        b.drive(r, Concat((Slice("S", 0, 4), Slice("T2", 0, 4))))
        b.output("OUT", r)
        circuit = b.build()
        from repro.transparency import RCG, TransparencySearch

        path = TransparencySearch(RCG.from_circuit(circuit)).justify(Slice("OUT", 0, 8))
        assert path.latency == 3
        schedule = freeze_schedule(path)
        assert schedule == {"S": {1}}
        # and the hardware proof:
        assert deliver(circuit, path, 0xC5) == 0xC5

    def test_display_port_path(self):
        circuit = build_display()
        versions = generate_versions(circuit, insert_hscan(circuit))
        path = versions[0].justify_paths[("PORT1", 0, 7)]
        assert deliver(circuit, path, 0x55) == 0x55
