"""Design-for-testability insertion: HSCAN, full scan, boundary scan.

HSCAN (Bhattacharya & Dey, VTS'96) is the paper's core-level DFT: existing
register-to-register mux paths are reused as parallel scan chains, adding
only a couple of gates per reused path.  Full scan and boundary scan are
priced as the FSCAN-BSCAN comparison baseline.
"""

from repro.dft.scan import ScanLink, ScanUnit, ObservationLink
from repro.dft.hscan import HscanResult, insert_hscan, apply_hscan
from repro.dft.bscan import BscanResult, boundary_scan_overhead
from repro.dft.tat import fscan_bscan_core_tat, hscan_vector_count

__all__ = [
    "ScanLink",
    "ScanUnit",
    "ObservationLink",
    "HscanResult",
    "insert_hscan",
    "apply_hscan",
    "BscanResult",
    "boundary_scan_overhead",
    "fscan_bscan_core_tat",
    "hscan_vector_count",
]
