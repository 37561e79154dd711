"""Interconnect testing: which core-to-core wires the test plan exercises.

The paper's introduction criticizes the test-bus architecture because it
"is unable to test the interconnect that exists between cores" -- the
bus bypasses the functional wiring.  SOCET's transparency transfers, by
contrast, push every test vector *through* the functional interconnect,
so the wires between cores see both logic values and their stuck-at
faults are covered for free.

This module classifies every interconnect net bit of an SOC under a
given test plan:

* ``exercised``   -- carries arbitrary test data during some core test:
  a delivery or observation route of the plan rides it (its ``nets``);
* ``bypassed``    -- otherwise, touches a port with a system-level test
  mux, which bypasses the functional wire;
* ``memory``      -- connects to a BIST-tested memory core (out of
  SOCET's scope, like the paper's RAM/ROM);
* ``idle``        -- never used by the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.soc.plan import SocTestPlan
from repro.soc.system import Net, Soc


@dataclass
class InterconnectReport:
    """Net-bit classification for one plan."""

    soc: str
    exercised_bits: int = 0
    bypassed_bits: int = 0
    memory_bits: int = 0
    idle_bits: int = 0
    nets: Dict[str, str] = field(default_factory=dict)  # str(net) -> class

    @property
    def logic_bits(self) -> int:
        """Interconnect bits between logic cores / pins (memory excluded)."""
        return self.exercised_bits + self.bypassed_bits + self.idle_bits

    @property
    def coverage_percent(self) -> float:
        if self.logic_bits == 0:
            return 100.0
        return 100.0 * self.exercised_bits / self.logic_bits


def _net_touches_memory(soc: Soc, net: Net) -> bool:
    for ref in (net.source, net.dest):
        if ref.core is not None:
            core = soc.cores.get(ref.core)
            if core is not None and core.is_memory:
                return True
    return False


def interconnect_report(plan: SocTestPlan) -> InterconnectReport:
    """Classify every net of the plan's SOC."""
    soc = plan.soc
    report = InterconnectReport(soc=soc.name)
    ridden: Set[Net] = set()
    for core_plan in plan.core_plans.values():
        for route in (*core_plan.deliveries, *core_plan.observations):
            ridden.update(route.nets)
    muxed_ports: Set[Tuple[str, str]] = {(m.core, m.port) for m in plan.test_muxes}

    for net in soc.nets:
        label = _classify(soc, net, ridden, muxed_ports)
        report.nets[str(net)] = label
        bits = net.source.width
        if label == "exercised":
            report.exercised_bits += bits
        elif label == "bypassed":
            report.bypassed_bits += bits
        elif label == "memory":
            report.memory_bits += bits
        else:
            report.idle_bits += bits
    return report


def _classify(
    soc: Soc, net: Net, ridden: Set[Net], muxed_ports: Set[Tuple[str, str]]
) -> str:
    if _net_touches_memory(soc, net):
        return "memory"
    if net in ridden:
        return "exercised"
    if net.source.core is not None and (net.source.core, net.source.port) in muxed_ports:
        return "bypassed"
    if net.dest.core is not None and (net.dest.core, net.dest.port) in muxed_ports:
        return "bypassed"
    return "idle"


def bus_interconnect_report(soc: Soc) -> InterconnectReport:
    """The test-bus architecture exercises *no* functional interconnect."""
    report = InterconnectReport(soc=soc.name)
    for net in soc.nets:
        if _net_touches_memory(soc, net):
            report.nets[str(net)] = "memory"
            report.memory_bits += net.source.width
        else:
            report.nets[str(net)] = "bypassed"
            report.bypassed_bits += net.source.width
    return report
