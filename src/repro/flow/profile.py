"""The ``repro profile`` driver: run the full pipeline, break down time.

Profiles one registered system through every SOCET stage -- core-level
HSCAN insertion, transparency version synthesis, chip-level planning
(including the Figure 10 design-space sweep), per-core ATPG, fault
simulation, iterative-improvement optimization, and concurrent-session
scheduling -- then reports where the time and the work went, stage by
stage, from the shared metrics registry.

Each stage's time is the self time of its sections (time in a nested
section counts only there), and an ``unaccounted`` row holds the time
spent outside every section, so the rows sum to the run's total.  The
registry is reset at the start of a profile run so the numbers
describe exactly one pipeline execution; with ``--trace`` the same run
also produces a Chrome ``trace_event`` file for Perfetto.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import UsageError
from repro.obs import METRICS, profile_section, stage_rows

logger = logging.getLogger("repro.flow.profile")


@dataclass
class ProfileReport:
    """Per-stage time/counter breakdown of one pipeline run."""

    system: str
    seed: int
    total_seconds: float
    stages: List[Dict] = field(default_factory=list)
    #: headline plan numbers (serial TAT, makespan, DFT cells)
    summary: Dict[str, int] = field(default_factory=dict)
    #: the full registry counter snapshot after the run, zeros included
    #: (the run ledger needs "zero" and "absent" to be different facts)
    all_counters: Dict[str, int] = field(default_factory=dict)
    #: every section's totals after the run (calls, inclusive, self)
    sections: Dict[str, Dict] = field(default_factory=dict)

    def ledger_record(self, bench: Optional[str] = None, results=None) -> Dict:
        """This run as a ``repro-ledger`` record (see :mod:`repro.obs.ledger`).

        ``bench`` defaults to ``profile-<system>``; pass an explicit
        series key when variants (``--quick``) must not share a
        baseline window.
        """
        from repro.obs.ledger import make_record

        return make_record(
            bench=bench or f"profile-{self.system}",
            samples=[self.total_seconds],
            counters=self.all_counters,
            kind="profile",
            results=results if results is not None else dict(self.summary),
            histograms=self.sections or None,
        )

    def render(self) -> str:
        from repro.flow.report import render_stage_table

        lines = [render_stage_table(self.stages, title=f"{self.system}: pipeline profile")]
        lines.append(
            f"\ntotal {self.total_seconds:.3f}s (stage times are self times; "
            "with unaccounted they sum to the total)"
        )
        if self.summary:
            pairs = ", ".join(f"{k} {v}" for k, v in self.summary.items())
            lines.append(f"plan: {pairs}")
        return "\n".join(lines)


def regenerate_atpg(circuit, seed: int, max_faults: Optional[int]) -> None:
    """Regenerate one core's test set.

    ``max_faults`` caps the fault list at a seeded sample of the
    collapsed universe (quick mode).
    """
    import random

    from repro.atpg.combinational import CombinationalAtpg
    from repro.elaborate import elaborate
    from repro.faults.collapse import collapse_faults
    from repro.faults.model import full_fault_universe

    netlist = elaborate(circuit).netlist
    faults = None
    if max_faults is not None:
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        if len(universe) > max_faults:
            faults = random.Random(seed).sample(universe, max_faults)
    CombinationalAtpg(netlist, seed=seed).run(faults)


#: quick mode's per-core fault cap (``--quick`` in the CLI): small
#: enough for seconds-long runs, large enough that PODEM still
#: backtracks on every example core
QUICK_MAX_FAULTS = 60


def profile_system(
    system: str,
    seed: int = 0,
    max_faults: Optional[int] = None,
) -> ProfileReport:
    """Run every pipeline stage on ``system`` and collect the breakdown.

    ``max_faults`` caps the per-core ATPG fault list (a seeded sample of
    the collapsed universe) -- the CLI's ``--quick`` mode, which keeps
    every stage and counter live while cutting minutes to seconds.
    """
    from repro.designs import system_builders
    from repro.soc.optimizer import SocetOptimizer, design_space
    from repro.soc.plan import plan_soc_test

    builders = system_builders()
    if system not in builders:
        raise UsageError(f"unknown system {system!r}; choose from {sorted(builders)}")

    METRICS.reset()
    with profile_section("profile.total", system=system):
        # core-level + transparency: building the SOC runs HSCAN insertion
        # and version synthesis for every core
        logger.info("building %s (HSCAN + transparency versions)", system)
        soc = builders[system]()

        # ATPG + fault-sim: regenerate each core's precomputed test set
        # (system builders ship vendor vector counts, so run it explicitly)
        for core in soc.testable_cores():
            regenerate_atpg(core.circuit, seed, max_faults)

        # chip-level: the reservation-aware path search over the whole
        # design space (every version selection)
        plan = plan_soc_test(soc)
        points = design_space(soc)

        # optimizer: iterative improvement up to the largest design's area
        budget = max(point.chip_cells for point in points)
        optimized, _trajectory = SocetOptimizer(soc).minimize_tat(budget)

        # schedule: both schedulers on the minimum-area plan
        greedy = plan.schedule(algorithm="greedy")
        plan.schedule(algorithm="sessions")

    report = ProfileReport(
        system=system,
        seed=seed,
        total_seconds=METRICS.section("profile.total").seconds,
        stages=stage_rows(METRICS, "profile.total"),
        summary={
            "serial TAT": plan.total_tat,
            "scheduled TAT": greedy.makespan,
            "optimized TAT": optimized.total_tat,
            "min-area DFT cells": plan.chip_dft_cells,
        },
        all_counters=dict(METRICS.counters()),
        sections=METRICS.sections(),
    )
    return report
