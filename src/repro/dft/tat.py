"""The HSCAN test-application-time formula.

A full-scan (combinational) vector takes ``depth`` shift cycles plus one
apply cycle through chains of sequential depth ``depth`` -- the paper's
DISPLAY needs 105 x (4+1) = 525 HSCAN vectors.  The FSCAN-BSCAN
baseline's formula is :func:`repro.baselines.fscan_bscan.fscan_bscan_core_tat`.
"""

from __future__ import annotations


def hscan_vector_count(combinational_vectors: int, depth: int) -> int:
    """Scan-cycle count ("HSCAN vectors") for a core of chain depth ``depth``."""
    if combinational_vectors < 0 or depth < 0:
        raise ValueError("vector count and depth must be non-negative")
    return combinational_vectors * (depth + 1)
