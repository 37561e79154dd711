"""The test controller listed signal by signal: the reference that
``repro.soc.controller.estimate_controller_area`` is held to."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.soc.controller import _controller_cells, _counter_bits


@dataclass
class ControlSignal:
    """One signal the controller drives during test."""

    name: str
    purpose: str  # "clock-gate" | "scan-enable" | "mux-select" | "test-mux"


@dataclass
class TestController:
    """Synthesized controller specification."""

    signals: List[ControlSignal] = field(default_factory=list)
    counter_bits: int = 0

    @property
    def area(self) -> int:
        return _controller_cells(len(self.signals), self.counter_bits)


def synthesize_controller(plan) -> TestController:
    """Derive the controller for a finished SOC test plan."""
    cores = plan.soc.testable_cores()
    signals: List[ControlSignal] = []
    for core in cores:
        signals.append(ControlSignal(f"tctrl_clk_{core.name}", "clock-gate"))
        signals.append(ControlSignal(f"tctrl_se_{core.name}", "scan-enable"))
    for core in sorted(cores, key=lambda c: c.name):
        for mux_name in core.version(plan.selection.get(core.name, 0)).mux_selects:
            signals.append(ControlSignal(f"tctrl_sel_{core.name}_{mux_name}", "mux-select"))
    for index, _ in enumerate(plan.test_muxes):
        signals.append(ControlSignal(f"tctrl_tmux_{index}", "test-mux"))
    return TestController(signals=signals, counter_bits=_counter_bits(plan))
