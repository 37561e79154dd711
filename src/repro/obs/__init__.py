"""Observability for the SOCET pipeline: metrics, timed sections, attribution.

Zero-dependency subsystem; instrumentation never forks hot-path code:

* :mod:`repro.obs.metrics` -- an always-on registry of counters the hot
  paths feed through cached instruments (PODEM backtracks, fault-sim
  events, BFS expansions, scheduler reservation waits, optimizer moves,
  ...) and of timed-section totals;
* :mod:`repro.obs.profiler` -- :func:`profile_section`, the one way code
  is timed: it keeps calls, inclusive and self seconds per section name,
  and :func:`stage_rows` rolls them into the per-stage self-time table
  of ``repro profile``;
* :mod:`repro.obs.attrib` -- the ``repro-attrib`` search-effort
  artifact, built from what a pipeline run returns (each ATPG outcome's
  PODEM results, the optimizer's moves), and its shape;
* :mod:`repro.obs.ledger` -- the ``repro-ledger`` record, the one form a
  measured run (a bench, a pipeline run) takes, its shape, and the
  JSONL ledger that stores records;
* :mod:`repro.obs.regress` -- the exact counter gate over ledgers.

One pipeline run's record is rendered as text tables by
:func:`repro.flow.report.render_run_report` (``repro profile``).

Typical instrumentation, cached at module scope::

    from repro.obs import METRICS, profile_section
    _WAITS = METRICS.counter("schedule.reservation.waits")

    def place(...):
        with profile_section("schedule.pack"):
            ...
            _WAITS.inc()

See DESIGN.md ("Observability") for the instrument naming contract.
"""

from __future__ import annotations

from repro.obs.attrib import artifact_json, build_artifact
from repro.obs.metrics import Counter, DEFAULT_REGISTRY, MetricsRegistry
from repro.obs.profiler import PIPELINE_STAGES, profile_section, stage_rows
from repro.obs.regress import (
    COUNTER_IGNORE,
    RegressionReport,
    compare_ledgers,
    compare_records,
)

#: the process-wide registry every instrumented module shares
METRICS = DEFAULT_REGISTRY

__all__ = [
    "artifact_json",
    "build_artifact",
    "Counter",
    "MetricsRegistry",
    "METRICS",
    "PIPELINE_STAGES",
    "profile_section",
    "stage_rows",
    "COUNTER_IGNORE",
    "RegressionReport",
    "compare_ledgers",
    "compare_records",
]

