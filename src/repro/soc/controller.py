"""Test-controller area (the paper's small FSM + clock gating).

The methodology requires each core to be independently clock-gated and
the transparency/scan mode selects to be driven during test.  The
controller is priced by the lines it drives and the width of its cycle
counter, so the chip-level DFT accounting includes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.soc.plan import SocTestPlan

#: cells per controlled signal (driver flop + gate)
_CELLS_PER_SIGNAL = 2
#: cells per counter bit
_CELLS_PER_COUNTER_BIT = 5
#: fixed FSM decode glue
_CELLS_FSM_BASE = 10


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


def estimate_controller_area(plan: "SocTestPlan") -> int:
    """Area of the test controller in cells, counted without listing it.

    The controller drives a clock gate and a scan enable per core, one
    select per mux name of each selected version and one line per test
    mux.  ``tests/reference_controller.py`` lists those signals one by
    one, and the tests hold this count to its price.
    """
    cores = plan.soc.testable_cores()
    signals = 2 * len(cores) + len(plan.test_muxes)
    for core in cores:
        signals += len(core.version(plan.selection.get(core.name, 0)).mux_selects)
    return _controller_cells(signals, _counter_bits(plan))
