"""The one pipeline run behind ``repro profile``, ``report`` and ``explain``.

:func:`run_pipeline` runs one registered system through every SOCET
stage -- core-level HSCAN insertion, transparency version synthesis,
per-core ATPG and fault simulation, chip-level planning (including the
Figure 10 design-space sweep), iterative-improvement optimization, and
both concurrent-session schedulers -- under the single root section
``profile.total``, with the :mod:`repro.obs.attrib` collector on.  It
returns one :class:`PipelineRun` record, which the three commands
render: ``profile`` prints its stage table and plan summary, ``report``
renders it as markdown, HTML or JSON, and ``explain`` writes its
``repro-attrib`` artifact.

Each stage's time is the self time of its sections (time in a nested
section counts only there), and an ``unaccounted`` row holds the time
spent outside every section, so the rows sum to the run's total.  The
registry and the collector are reset together at run start, so the
numbers describe exactly one pipeline execution and the artifact's
reconciliation section can hold the attributed PODEM totals to the
``atpg.podem.*`` counters *exactly*.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import UsageError
from repro.obs import METRICS, profile_section, stage_rows
from repro.obs.attrib import ATTRIB, artifact_json, build_artifact
from repro.obs.profiler import ROOT_SECTION

logger = logging.getLogger("repro.flow.profile")

#: quick mode's per-core fault cap (``--quick`` in the CLI): small
#: enough for seconds-long runs, large enough that PODEM still
#: backtracks on every example core
QUICK_MAX_FAULTS = 60


def series_key(system: str, quick: bool) -> str:
    """The ledger series of a run (quick runs do less work, so they
    must not share a baseline window with full runs)."""
    return f"profile-{system}" + ("-quick" if quick else "")


@dataclass
class PipelineRun:
    """One pipeline run: stage times, plan summary, counters, artifact."""

    system: str
    quick: bool
    total_seconds: float
    stages: List[Dict] = field(default_factory=list)
    #: headline plan numbers (serial TAT, makespan, DFT cells)
    summary: Dict[str, int] = field(default_factory=dict)
    #: the full registry counter snapshot after the run, zeros included
    #: (the run ledger needs "zero" and "absent" to be different facts)
    all_counters: Dict[str, int] = field(default_factory=dict)
    #: every section's totals after the run (calls, inclusive, self)
    sections: Dict[str, Dict] = field(default_factory=dict)
    #: the schema-valid ``repro-attrib`` artifact (see :mod:`repro.obs.attrib`)
    artifact: Dict = field(default_factory=dict)

    def artifact_json(self) -> str:
        """Canonical byte-stable serialization of the artifact."""
        return artifact_json(self.artifact)

    def ledger_record(self) -> Dict:
        """This run as a ``repro-ledger`` record, artifact embedded."""
        from repro.obs.ledger import make_record

        return make_record(
            bench=series_key(self.system, self.quick),
            samples=[self.total_seconds],
            counters=self.all_counters,
            kind="profile",
            results=dict(self.summary),
            histograms=self.sections or None,
            attrib=self.artifact,
        )

    def render(self) -> str:
        from repro.flow.report import render_stage_table

        lines = [render_stage_table(self.stages, title=f"{self.system}: pipeline profile")]
        lines.append(
            f"\ntotal {self.total_seconds:.3f}s (stage times are self times; "
            "with unaccounted they sum to the total)"
        )
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


def run_pipeline(
    system: str,
    seed: int = 0,
    max_faults: Optional[int] = None,
    top_k: int = 10,
) -> PipelineRun:
    """Run every pipeline stage on ``system`` and record the run.

    ``max_faults`` caps the per-core ATPG fault list (a seeded sample of
    the collapsed universe) -- the CLI's ``--quick`` mode, which keeps
    every stage and counter live while cutting minutes to seconds.
    ``top_k`` is the artifact's hard-fault table length.  Attribution
    is on for the run; its previous state is restored on exit.
    """
    from repro.designs import system_builders
    from repro.soc.optimizer import SocetOptimizer, design_space
    from repro.soc.plan import plan_soc_test

    builders = system_builders()
    if system not in builders:
        raise UsageError(f"unknown system {system!r}; choose from {sorted(builders)}")

    previous = ATTRIB.enabled
    METRICS.reset()
    ATTRIB.reset()
    ATTRIB.enabled = True
    try:
        with profile_section(ROOT_SECTION):
            # core-level + transparency: building the SOC runs HSCAN
            # insertion and version synthesis for every core
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

        counters = dict(METRICS.counters())
        artifact = build_artifact(
            ATTRIB,
            counters,
            system=system,
            seed=seed,
            quick=max_faults is not None,
            top_k=top_k,
        )
    finally:
        ATTRIB.enabled = previous

    return PipelineRun(
        system=system,
        quick=max_faults is not None,
        total_seconds=METRICS.section(ROOT_SECTION).seconds,
        stages=stage_rows(METRICS),
        summary={
            "serial TAT": plan.total_tat,
            "scheduled TAT": greedy.makespan,
            "optimized TAT": optimized.total_tat,
            "min-area DFT cells": plan.chip_dft_cells,
        },
        all_counters=counters,
        sections=METRICS.sections(),
        artifact=artifact,
    )
