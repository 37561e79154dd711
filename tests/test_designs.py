"""Tests pinning the example designs to the paper's published numbers."""

import pytest

from repro.designs import (
    build_cpu,
    build_display,
    build_preprocessor,
    build_system1,
    build_system2,
    core_builders,
    system_builders,
)
from repro.dft import insert_hscan
from repro.transparency import generate_versions


@pytest.fixture(scope="module")
def cpu_versions():
    circuit = build_cpu()
    return generate_versions(circuit, insert_hscan(circuit))


@pytest.fixture(scope="module")
def pre_versions():
    circuit = build_preprocessor()
    return generate_versions(circuit, insert_hscan(circuit))


@pytest.fixture(scope="module")
def display_prep():
    circuit = build_display()
    plan = insert_hscan(circuit)
    return circuit, plan, generate_versions(circuit, plan)


class TestCpuFigure6:
    """The CPU reproduces the paper's Figure 6 latency table exactly."""

    def test_version1_latencies(self, cpu_versions):
        v1 = cpu_versions[0]
        assert v1.justify_latency("Address", 0, 8) == 6
        assert v1.justify_latency("Address", 8, 4) == 2
        assert v1.justify_latency("Address") == 8  # D -> A(11:0) total

    def test_version2_latencies(self, cpu_versions):
        v2 = cpu_versions[1]
        assert v2.justify_latency("Address", 0, 8) == 1
        assert v2.justify_latency("Address", 8, 4) == 2
        assert v2.justify_latency("Address") == 3

    def test_version3_latencies(self, cpu_versions):
        v3 = cpu_versions[2]
        assert v3.justify_latency("Address", 0, 8) == 1
        assert v3.justify_latency("Address", 8, 4) == 1
        assert v3.justify_latency("Address") == 2

    def test_overheads_strictly_increase(self, cpu_versions):
        cells = [v.extra_cells for v in cpu_versions]
        assert cells == sorted(cells)
        assert len(set(cells)) == len(cells)

    def test_control_chains_two_cycles(self, cpu_versions):
        """Reset -> Read and Interrupt -> Write in two cycles (Section 4)."""
        v1 = cpu_versions[0]
        assert v1.propagate_paths["Reset"].latency == 2
        assert v1.propagate_paths["Interrupt"].latency == 2

    def test_data_propagates_in_six_cycles(self, cpu_versions):
        assert cpu_versions[0].propagate_paths["Data"].latency == 6


class TestPreprocessorFigure8a:
    def test_version_ladder(self, pre_versions):
        v1, v2, v3 = pre_versions
        assert v1.justify_latency("DB", 0, 8) == 5
        assert max(p.latency for k, p in v1.justify_paths.items() if k[0] == "Address") == 2
        assert v2.justify_latency("DB", 0, 8) == 1
        assert max(p.latency for k, p in v2.justify_paths.items() if k[0] == "Address") == 2
        assert v3.justify_latency("DB", 0, 8) == 1
        assert max(p.latency for k, p in v3.justify_paths.items() if k[0] == "Address") == 1

    def test_reset_to_eoc_latency_two(self, pre_versions):
        """Edge (Reset, Eoc) has latency 2 (used in the Section 5.2 example)."""
        assert pre_versions[0].justify_latency("Eoc", 0, 1) == 2

    def test_costs_increase(self, pre_versions):
        cells = [v.extra_cells for v in pre_versions]
        assert cells == sorted(cells) and len(set(cells)) == 3


class TestDisplayFigure8b:
    def test_flip_flop_and_input_counts(self, display_prep):
        circuit, _, _ = display_prep
        assert circuit.flip_flop_count() == 66  # paper: 66 flip-flops
        assert circuit.input_bit_count() == 20  # paper: 20 internal inputs

    def test_scan_depth_is_four(self, display_prep):
        _, plan, _ = display_prep
        assert plan.depth == 4  # paper: 105 x (4+1) = 525 HSCAN vectors

    def test_version1_propagate_latencies(self, display_prep):
        _, _, versions = display_prep
        v1 = versions[0]
        assert v1.propagate_paths["D"].latency == 2  # paper V1: D->OUT = 2
        assert v1.propagate_paths["A"].latency == 3  # paper V1: A->OUT = 3

    def test_no_scan_in_pins_needed(self, display_prep):
        _, plan, _ = display_prep
        assert plan.scan_in_width == 0


class TestSystemAssembly:
    def test_system1_builds_and_validates(self):
        soc = build_system1()
        assert set(soc.cores) == {"CPU", "PREPROCESSOR", "DISPLAY", "RAM", "ROM"}
        assert len(soc.testable_cores()) == 3

    def test_system2_builds_and_validates(self):
        soc = build_system2()
        assert set(soc.cores) == {"GRAPHICS", "GCD", "X25"}

    def test_memory_cores_flagged(self):
        soc = build_system1()
        assert soc.cores["RAM"].is_memory
        assert soc.cores["ROM"].is_memory
        assert not soc.cores["CPU"].is_memory

    def test_all_core_builders_validate(self):
        for name, builder in core_builders().items():
            circuit = builder()
            assert circuit.name == name
            assert circuit.flip_flop_count() > 0

    def test_registry_systems(self):
        builders = system_builders()
        assert set(builders) == {"System1", "System2", "System3", "System4"}

    def test_every_logic_core_has_versions(self):
        for soc_builder in (build_system1, build_system2):
            soc = soc_builder()
            for core in soc.testable_cores():
                assert core.version_count >= 2, core.name
                cells = [v.extra_cells for v in core.versions]
                assert cells == sorted(cells)
