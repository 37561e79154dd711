"""Core transparency: the paper's Section 4.

A core is *transparent* when, in a test mode, every output can be
justified from some input(s) and every input propagated to some
output(s) in a fixed number of cycles (the transparency latency).  This
package extracts the register connectivity graph (RCG) with its
C-split/O-split nodes, searches it for transparency paths (HSCAN edges
first, then other existing paths, then added transparency muxes),
balances parallel sub-paths with freeze logic, and synthesizes the
latency/area *versions* of a core that the chip-level optimizer trades
off (Figures 6 and 8 of the paper).
"""

from repro.transparency.rcg import RCG, RCGNode, TransArc
from repro.transparency.search import TransparencySearch, PathNode, TransparencyPath
from repro.transparency.versions import CoreVersion, generate_versions
from repro.transparency.apply import (
    TransparencyApplication,
    apply_transparency_path,
    freeze_schedule,
)

__all__ = [
    "RCG",
    "RCGNode",
    "TransArc",
    "TransparencySearch",
    "PathNode",
    "TransparencyPath",
    "CoreVersion",
    "generate_versions",
    "TransparencyApplication",
    "apply_transparency_path",
    "freeze_schedule",
]
