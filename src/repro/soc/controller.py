"""Test-controller synthesis (the paper's small FSM + clock gating).

The methodology requires each core to be independently clock-gated and
the transparency/scan mode selects to be driven during test.  We
synthesize a controller specification -- the control signals, a cycle
counter, and the per-core phase schedule -- and estimate its area so the
chip-level DFT accounting includes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.soc.plan import CoreTestPlan, SocTestPlan

#: cells per controlled signal (driver flop + gate)
_CELLS_PER_SIGNAL = 2
#: cells per counter bit
_CELLS_PER_COUNTER_BIT = 5
#: fixed FSM decode glue
_CELLS_FSM_BASE = 10


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
    phase_count: int = 0

    @property
    def area(self) -> int:
        return _controller_cells(len(self.signals), self.counter_bits)


def _controller_cells(signals: int, counter_bits: int) -> int:
    """Cells of a controller driving ``signals`` lines with a ``counter_bits`` counter."""
    return (
        _CELLS_PER_SIGNAL * signals
        + _CELLS_PER_COUNTER_BIT * counter_bits
        + _CELLS_FSM_BASE
    )


def _counter_bits(plan: "SocTestPlan") -> int:
    """Width of the cycle counter that spans the whole serial test."""
    return max(1, max(plan.total_tat, 1).bit_length())


def synthesize_controller(plan: "SocTestPlan") -> TestController:
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

    phase_count = 3 * max(1, len(plan.core_plans))  # deliver / shift / flush per core
    return TestController(
        signals=signals, counter_bits=_counter_bits(plan), phase_count=phase_count
    )


def estimate_controller_area(plan: "SocTestPlan") -> int:
    """Area of the synthesized controller in cells, counted without listing it.

    Equals ``synthesize_controller(plan).area``: a clock gate and a scan
    enable per core, one select per mux name of each selected version,
    one line per test mux.
    """
    cores = plan.soc.testable_cores()
    signals = 2 * len(cores) + len(plan.test_muxes)
    for core in cores:
        signals += len(core.version(plan.selection.get(core.name, 0)).mux_selects)
    return _controller_cells(signals, _counter_bits(plan))


def clock_enable_trace(core_plan: "CoreTestPlan") -> Iterator[bool]:
    """Per-cycle scan-clock enable for the core under test.

    The scan clock fires once every ``cadence`` cycles (when fresh data
    has arrived at the core inputs), then free-runs for the flush.
    Yields exactly ``core_plan.tat`` booleans.
    """
    cadence = max(1, core_plan.cadence)
    for cycle in range(core_plan.scan_steps * cadence):
        yield (cycle + 1) % cadence == 0
    for _ in range(core_plan.flush):
        yield True
