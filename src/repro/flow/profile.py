"""The one flow driver: the paper's whole evaluation of one system.

:func:`run_pipeline` runs one registered system through every stage
(:func:`run_stages`) under the single root section ``profile.total``:
build the SOC (HSCAN insertion and transparency versions for every
core), run ATPG once per core, sweep the design space and name four of
its points, minimize TAT, schedule the fewest-cells and least-TAT plans,
and compute the FSCAN-BSCAN baseline with the Table 2 and Table 3 rows.
The paper's "min. area" design is the fewest-cells point throughout.

It returns the run's ``repro-ledger`` record (kind ``profile``), and
every renderer reads that record: ``repro profile`` prints its run
report, Tables 2 and 3 included
(:func:`repro.flow.report.render_run_report`), and ``--ledger`` appends
it, its ``repro-attrib`` artifact with it; the Table 1-3 benches and
``examples/system2_report.py`` print its points and table rows
(:func:`repro.flow.report.record_rows`).

The record carries the run's total wall time (``samples``), every
section's totals (``histograms``), the full counter snapshot, zeros
included (``counters``), the ``results`` -- headline numbers, the four
named design ``points``, the ``schedules``, ``area`` and ``testability``
rows, and the functional ``grading`` budget -- and the attribution
artifact (``attrib``), built from the stages' ATPG outcomes and
optimizer moves.  Each stage's time is the self time of its sections, and
an ``unaccounted`` row holds the time spent outside every section, so
the rows sum to the run's total.  The registry is reset at run start,
so the numbers describe exactly one run and the artifact's
reconciliation section can hold the PODEM totals of the outcomes to the
``atpg.podem.*`` counters *exactly*.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import UsageError
from repro.flow.report import AreaRow, ScheduleRow, TestabilityRow
from repro.obs import METRICS, profile_section
from repro.obs.attrib import build_artifact
from repro.obs.ledger import make_record
from repro.obs.profiler import ROOT_SECTION

#: quick mode's per-core fault cap (``--quick`` in the CLI): small
#: enough for seconds-long runs, large enough that PODEM still
#: backtracks on every example core
QUICK_MAX_FAULTS = 60

#: Table 3's functional grading budget (the Orig. and HSCAN rows): random
#: input sequences of so many cycles, graded over a seeded sample of the
#: flattened chip's faults (quick mode caps the sample at its fault cap)
GRADING_BUDGET = {"sequences": 16, "cycles": 12, "faults": 120}


def series_key(system: str, quick: bool) -> str:
    """The ledger series of a run (quick runs do less work, so they
    must not share a baseline window with full runs)."""
    return f"profile-{system}" + ("-quick" if quick else "")


def regenerate_atpg(circuit, seed: int, max_faults: Optional[int]):
    """Generate one core's test set; returns the elaborated netlist and
    the ATPG outcome.

    ``max_faults`` caps the fault list at a seeded sample of the
    collapsed universe (quick mode).
    """
    from repro.atpg.combinational import CombinationalAtpg
    from repro.elaborate import elaborate
    from repro.faults.collapse import collapsed_fault_universe

    netlist = elaborate(circuit).netlist
    faults = None
    if max_faults is not None:
        universe = collapsed_fault_universe(netlist)
        if len(universe) > max_faults:
            faults = random.Random(seed).sample(universe, max_faults)
    return netlist, CombinationalAtpg(netlist, seed=seed).run(faults)


def _functional_coverage(soc, with_hscan: bool, seed: int, sample: int) -> float:
    """Fault coverage of random functional sequences on the flattened chip.

    With ``with_hscan`` the cores carry their scan logic but the chip
    gives no access to it (scan pins unrouted): core-level testability
    alone leaves the chip poorly testable.
    """
    from repro.faults.collapse import collapsed_fault_universe
    from repro.faults.simulator import sequential_fault_grade
    from repro.flow.system_netlist import flatten_soc

    with profile_section("faultsim.functional"):
        netlist = flatten_soc(soc, with_hscan=with_hscan, scan_access="none")
        faults = collapsed_fault_universe(netlist)
        rng = random.Random(seed)
        inputs = [g.name for g in netlist.inputs]
        stimuli = [
            [{name: rng.getrandbits(1) for name in inputs} for _ in range(GRADING_BUDGET["cycles"])]
            for _ in range(GRADING_BUDGET["sequences"])
        ]
        graded = sequential_fault_grade(netlist, stimuli, faults, sample=sample, seed=seed)
    return graded.coverage


def run_stages(
    build: Callable, seed: int, max_faults: Optional[int]
) -> Tuple[Dict, List[Tuple[Any, Any]], List[Dict[str, Any]]]:
    """The driver's stage sequence on the SOC ``build()`` returns.

    Times every stage under ``profile.total`` and returns the record's
    ``results``, each core's ``(netlist, AtpgOutcome)`` in run order, and
    the optimizer's moves: what :func:`run_pipeline` attributes.
    """
    from repro.baselines.fscan_bscan import fscan_bscan_report
    from repro.faults.coverage import CoverageReport
    from repro.soc.optimizer import SocetOptimizer, design_space

    # every module the stages load lazily is loaded here, so the root
    # section's own time (the run report's `unaccounted` row) holds no
    # first import
    import repro.atpg.combinational  # noqa: F401
    import repro.faults.collapse  # noqa: F401
    import repro.faults.kernel  # noqa: F401
    import repro.faults.simulator  # noqa: F401
    import repro.flow.system_netlist  # noqa: F401
    import repro.schedule  # noqa: F401

    with profile_section(ROOT_SECTION):
        # core-level + transparency: building the SOC runs HSCAN
        # insertion and version synthesis for every core
        soc = build()
        cores = soc.testable_cores()

        # ATPG + fault-sim: each core's test set, once (the plans size
        # the tests by the builders' vector counts)
        coverage = CoverageReport(total=0, detected=0)
        atpg = [regenerate_atpg(core.circuit, seed, max_faults) for core in cores]
        for _netlist, outcome in atpg:
            coverage = coverage.merged_with(outcome.report)

        # chip-level: the reservation-aware path search over the whole
        # design space (every version selection), and its named points
        points = design_space(soc)
        cheapest = {core.name: 0 for core in cores}
        fastest = {core.name: core.version_count - 1 for core in cores}
        named = {
            "fewest cells": min(points, key=lambda p: (p.chip_cells, p.tat)),
            "all cheapest": next(p for p in points if p.selection == cheapest),
            "all fastest": next(p for p in points if p.selection == fastest),
            "least TAT": min(points, key=lambda p: (p.tat, p.chip_cells)),
        }
        designs = [("Min. Area", named["fewest cells"]), ("Min. TApp.", named["least TAT"])]

        # optimizer: iterative improvement up to the largest design's area
        budget = max(point.chip_cells for point in points)
        optimizer = SocetOptimizer(soc)
        optimized, _trajectory = optimizer.minimize_tat(budget)

        # schedule: the greedy scheduler on both designs
        schedules = []
        for variant, point in designs:
            schedule = point.plan.schedule()
            schedules.append(ScheduleRow(
                soc.name, variant, schedule.algorithm, point.tat, schedule.makespan,
                len(schedule.sessions()),
            ))

        # Tables 2 and 3: the FSCAN-BSCAN baseline, functional grading of
        # the chip without and with HSCAN, and the scan rows, whose
        # coverage is the ATPG's
        baseline = fscan_bscan_report(soc)
        hscan_cells = sum(core.hscan.extra_area for core in cores)
        area = [
            AreaRow(soc.name, soc.total_functional_area(), baseline.fscan_cells, hscan_cells,
                    baseline.bscan_cells, variant, point.chip_cells)
            for variant, point in designs
        ]
        sample = GRADING_BUDGET["faults"]
        if max_faults is not None:
            sample = min(sample, max_faults)
        testability = []
        for configuration, with_hscan in (("Orig.", False), ("HSCAN", True)):
            graded = _functional_coverage(soc, with_hscan, seed, sample)
            testability.append(TestabilityRow(soc.name, configuration, graded, graded))
        scan = [("FSCAN-BSCAN", baseline.total_tat)]
        scan += [(f"SOCET {variant}", point.tat) for variant, point in designs]
        for configuration, tat in scan:
            testability.append(TestabilityRow(
                soc.name, configuration, coverage.fault_coverage, coverage.test_efficiency, tat,
            ))

    fewest = named["fewest cells"]
    results = {
        "serial TAT": fewest.tat,
        "scheduled TAT": schedules[0].makespan,
        "optimized TAT": optimized.total_tat,
        "min-area DFT cells": fewest.chip_cells,
        "points": {
            name: {"point": point.index, "cells": point.chip_cells, "tat": point.tat,
                   "selection": dict(point.selection)}
            for name, point in named.items()
        },
        "schedules": [asdict(row) for row in schedules],
        "area": [asdict(row) for row in area],
        "testability": [asdict(row) for row in testability],
        "grading": dict(GRADING_BUDGET, faults=sample, seed=seed),
    }
    return results, atpg, optimizer.moves


def run_pipeline(
    system: str,
    seed: int = 0,
    max_faults: Optional[int] = None,
) -> Dict:
    """Run every stage on ``system`` and return the run's record.

    ``max_faults`` caps the per-core ATPG fault list and the functional
    grading sample at seeded samples -- the CLI's ``--quick`` mode, which
    keeps every stage and counter live while cutting the run's work.
    """
    from repro.designs import system_builders

    builders = system_builders()
    if system not in builders:
        raise UsageError(f"unknown system {system!r}; choose from {sorted(builders)}")

    METRICS.reset()
    results, atpg, moves = run_stages(builders[system], seed, max_faults)
    counters = dict(METRICS.counters())
    artifact = build_artifact(
        atpg,
        moves,
        counters,
        system=system,
        seed=seed,
        quick=max_faults is not None,
    )

    return make_record(
        bench=series_key(system, max_faults is not None),
        samples=[METRICS.section(ROOT_SECTION).seconds],
        counters=counters,
        kind="profile",
        results=results,
        histograms=METRICS.sections(),
        attrib=artifact,
    )
