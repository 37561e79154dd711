"""Area accounting in cell units, by category.

Synthesized test structures follow naming conventions (``scan_``,
``bscan_``, ``tmux_``, ``freeze_``, ``tctrl_`` prefixes), which lets the
report split functional area from DFT overhead exactly the way the
paper's Table 2 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.gates.netlist import GateNetlist

#: gate-name prefixes identifying DFT overhead categories
DFT_PREFIXES = {
    "scan_": "scan",
    "bscan_": "boundary-scan",
    "tmux_": "test-mux",
    "freeze_": "freeze",
    "tctrl_": "test-controller",
    "tsel_": "select-forcing",
}


@dataclass
class AreaReport:
    """Total area plus a per-category breakdown (all in cell units)."""

    total: int
    functional: int
    overhead: int
    by_category: Dict[str, int] = field(default_factory=dict)


def area_report(netlist: GateNetlist) -> AreaReport:
    """Compute the area report for a (possibly DFT-inserted) netlist."""
    total = 0
    overhead = 0
    by_category: Dict[str, int] = {}
    for gate in netlist.gates():
        area = gate.area()
        total += area
        for prefix, category in DFT_PREFIXES.items():
            if gate.name.startswith(prefix):
                overhead += area
                by_category[category] = by_category.get(category, 0) + area
                break
    return AreaReport(
        total=total,
        functional=total - overhead,
        overhead=overhead,
        by_category=by_category,
    )
