"""Automatic test pattern generation.

Full-scan cores reduce to combinational ATPG (exactly the property the
paper's HSCAN-based flow relies on): a random-pattern phase with fault
dropping detects the easy faults, PODEM handles the hard ones and proves
redundancies, and static compaction trims the pattern set.  The
"original circuit" rows of Table 3 come from sequential fault grading
(:func:`repro.faults.simulator.sequential_fault_grade`), not from ATPG.
"""

from repro.atpg.podem import PodemResult, PodemStatus, podem
from repro.atpg.combinational import CombinationalAtpg, AtpgOutcome
from repro.atpg.compaction import compact_patterns

__all__ = [
    "PodemResult",
    "PodemStatus",
    "podem",
    "CombinationalAtpg",
    "AtpgOutcome",
    "compact_patterns",
]
