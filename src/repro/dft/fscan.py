"""Full-scan area (the FSCAN half of the FSCAN-BSCAN baseline).

The baseline is priced, not built: every flip-flop becomes a scan
flip-flop, and the paper's Table 2 charges the swap per flop.
"""

from __future__ import annotations

from repro.dft.scan import FSCAN_PER_FF


def fscan_overhead(flop_count: int) -> int:
    """Analytic full-scan area overhead in cells."""
    return FSCAN_PER_FF * flop_count
