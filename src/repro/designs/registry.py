"""Name-based lookup of the example cores and systems."""

from __future__ import annotations

from typing import Callable, Dict

from repro.designs.cpu import build_cpu
from repro.designs.display import build_display
from repro.designs.gcd import build_gcd
from repro.designs.graphics import build_graphics
from repro.designs.memory_cores import build_ram, build_rom
from repro.designs.preprocessor import build_preprocessor
from repro.designs.x25 import build_x25

#: precomputed combinational vector counts of the example cores: fixed
#: inputs of every plan, not regenerated (seed-0 ATPG on these cores
#: gives other counts; see ROADMAP item 1)
DEFAULT_VECTORS: Dict[str, int] = {
    "CPU": 50,
    "PREPROCESSOR": 34,
    "DISPLAY": 19,
    "GRAPHICS": 27,
    "GCD": 43,
    "X25": 18,
}

#: the example cores that are memories: BIST-tested, so they get no HSCAN,
#: no transparency versions and no place in the CCG
MEMORY_CORES = ("RAM", "ROM")


def core_builders() -> Dict[str, Callable]:
    """Builders for every example core, keyed by core name."""
    return {
        "CPU": build_cpu,
        "PREPROCESSOR": build_preprocessor,
        "DISPLAY": build_display,
        "RAM": build_ram,
        "ROM": build_rom,
        "GCD": build_gcd,
        "GRAPHICS": build_graphics,
        "X25": build_x25,
    }


def system_builders() -> Dict[str, Callable]:
    """Builders for the example systems.

    System1/System2 reproduce the paper's chips; System3/System4 add
    parallel topologies for the concurrent test-session scheduler.
    """
    from repro.designs.barcode import build_system1
    from repro.designs.system2 import build_system2
    from repro.designs.system3 import build_system3
    from repro.designs.system4 import build_system4

    return {
        "System1": build_system1,
        "System2": build_system2,
        "System3": build_system3,
        "System4": build_system4,
    }
