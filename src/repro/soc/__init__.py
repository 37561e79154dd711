"""Chip-level SOCET: the paper's Section 5.

Given an SOC (cores + interconnect), a selected transparency version per
core, and each core's precomputed test set, this package:

* finds justification/propagation paths for every core under test with
  one reservation-aware search over the core connectivity graph (CCG)
  (:mod:`repro.soc.plan`), serializing transfers that share transparency
  resources (the paper's edge-reservation rule),
* inserts system-level test multiplexers where no path exists,
* computes per-core and global test application time, and
* runs the iterative-improvement optimizer that swaps core versions to
  meet an area or TAT constraint (cost C = w1*dTAT + w2*dA).
"""

from repro.soc.core import Core
from repro.soc.system import Net, PortRef, Soc
from repro.soc.plan import CoreTestPlan, SocTestPlan, plan_soc_test
from repro.soc.optimizer import (
    DesignPoint,
    SocetOptimizer,
    design_space,
)
from repro.soc.controller import TestController, synthesize_controller

__all__ = [
    "Core",
    "Net",
    "PortRef",
    "Soc",
    "CoreTestPlan",
    "SocTestPlan",
    "plan_soc_test",
    "DesignPoint",
    "SocetOptimizer",
    "design_space",
    "TestController",
    "synthesize_controller",
]
