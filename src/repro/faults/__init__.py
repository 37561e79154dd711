"""Single-stuck-at fault model, collapsing, and fault simulation.

The fault simulator is the measurement instrument behind the paper's
Table 3: it grades precomputed core test sets (combinational, full-scan
view) and functional input sequences (sequential view) against the
collapsed stuck-at universe of a gate netlist.
"""

from repro.faults.model import Fault, full_fault_universe
from repro.faults.collapse import collapse_faults, collapsed_fault_universe
from repro.faults.simulator import FaultSimulator, sequential_fault_grade
from repro.faults.coverage import CoverageReport

__all__ = [
    "Fault",
    "full_fault_universe",
    "collapse_faults",
    "collapsed_fault_universe",
    "FaultSimulator",
    "sequential_fault_grade",
    "CoverageReport",
]
