"""The ``repro explain`` driver: attribute search effort, not just time.

Where ``repro profile`` answers "where did the seconds go", explain
answers "where did the *search* go": which faults burned the PODEM
backtrack budget, which logic levels the fault simulator swept over and
over, and which optimizer moves were wasted.  It runs the same pipeline
stages as the profiler -- SOC construction, per-core ATPG, chip-level
planning, the design-space sweep, and TAT minimization -- with the
:mod:`repro.obs.attrib` collector forced on, then folds the three
attribution planes into one byte-stable ``repro-attrib`` artifact.

The metrics registry and the attribution collector are reset together
at run start, so the artifact's reconciliation section can hold the
attributed totals to the ``atpg.*``/``faultsim.*`` counters *exactly*;
a mismatch means an instrumentation bug, not noise.  Schedulers are
skipped: they search nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import UsageError
from repro.obs import METRICS, profile_section
from repro.obs.attrib import (
    ATTRIB,
    artifact_json,
    build_artifact,
    resolve_attrib_mode,
)

logger = logging.getLogger("repro.flow.explain")

_RUNS = METRICS.counter("explain.runs")


@dataclass
class ExplainReport:
    """One attributed pipeline run: the artifact plus run bookkeeping."""

    system: str
    seed: int
    total_seconds: float
    #: the schema-valid ``repro-attrib`` artifact (see :mod:`repro.obs.attrib`)
    artifact: Dict = field(default_factory=dict)
    #: full registry counter snapshot after the run (feeds the ledger)
    all_counters: Dict[str, int] = field(default_factory=dict)

    def artifact_json(self) -> str:
        """Canonical byte-stable serialization of the artifact."""
        return artifact_json(self.artifact)

    def ledger_record(self, bench: Optional[str] = None, results=None) -> Dict:
        """This run as a ``repro-ledger`` record carrying the artifact."""
        from repro.obs.ledger import make_record

        atpg = self.artifact["planes"]["atpg"]
        optimizer = self.artifact["planes"]["optimizer"]["summary"]
        summary = results if results is not None else {
            "atpg effort": atpg["totals"]["effort"],
            "faults attributed": atpg["faults"],
            "optimizer candidates": optimizer["candidates"],
            "optimizer wasted": optimizer["rejected"],
        }
        return make_record(
            bench=bench or f"explain-{self.system}",
            samples=[self.total_seconds],
            counters=self.all_counters,
            kind="explain",
            results=summary,
            attrib=self.artifact,
        )


def explain_system(
    system: str,
    seed: int = 0,
    max_faults: Optional[int] = None,
    top_k: int = 10,
    mode: Optional[str] = None,
) -> ExplainReport:
    """Run the search stages on ``system`` and attribute their effort.

    ``mode`` overrides ``REPRO_ATTRIB`` (``on``/``deep``); an unset or
    ``off`` resolution is promoted to ``on`` -- explain without
    collection would be an empty report.  ``max_faults`` is the same
    quick-mode cap as :func:`repro.flow.profile.profile_system`.  The
    previous attribution mode is restored on exit, so a surrounding
    always-on session keeps its setting.
    """
    from repro.designs import system_builders
    from repro.flow.profile import regenerate_atpg
    from repro.soc.optimizer import SocetOptimizer, design_space
    from repro.soc.plan import plan_soc_test

    builders = system_builders()
    if system not in builders:
        raise UsageError(f"unknown system {system!r}; choose from {sorted(builders)}")

    resolved = resolve_attrib_mode(mode)
    if resolved == "off":
        resolved = "on"
    previous = ATTRIB.mode
    METRICS.reset()
    ATTRIB.reset()
    ATTRIB.configure(resolved)
    try:
        with profile_section("explain.total", system=system):
            _RUNS.inc()
            logger.info("building %s (HSCAN + transparency versions)", system)
            soc = builders[system]()

            # plane 1+2: per-core ATPG regeneration drives PODEM and the
            # fault simulator
            for core in soc.testable_cores():
                regenerate_atpg(core.circuit, seed, max_faults)

            # plane 3: the design-space sweep plus iterative improvement
            plan_soc_test(soc)
            points = design_space(soc)
            budget = max(point.chip_cells for point in points)
            SocetOptimizer(soc).minimize_tat(budget)

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
        ATTRIB.configure(previous)

    time_hist = METRICS.histogram("explain.total.time")
    return ExplainReport(
        system=system,
        seed=seed,
        total_seconds=time_hist.sum,
        artifact=artifact,
        all_counters=counters,
    )
