"""Design-for-testability insertion: HSCAN.

HSCAN (Bhattacharya & Dey, VTS'96) is the paper's core-level DFT: existing
register-to-register mux paths are reused as parallel scan chains, adding
only a couple of gates per reused path.  Full scan and boundary scan, the
FSCAN-BSCAN comparison baseline, are priced in
:mod:`repro.baselines.fscan_bscan`.
"""

from repro.dft.scan import ScanLink, ScanUnit, ObservationLink
from repro.dft.hscan import HscanResult, insert_hscan, apply_hscan
from repro.dft.tat import hscan_vector_count

__all__ = [
    "ScanLink",
    "ScanUnit",
    "ObservationLink",
    "HscanResult",
    "insert_hscan",
    "apply_hscan",
    "hscan_vector_count",
]
