"""Observability for the SOCET pipeline: metrics, timed sections, attribution.

Zero-dependency subsystem; instrumentation never forks hot-path code:

* :mod:`repro.obs.metrics` -- an always-on registry of counters the hot
  paths feed through cached instruments (PODEM backtracks, fault-sim
  events, BFS expansions, scheduler reservation waits, optimizer moves,
  ...) and of timed-section totals;
* :mod:`repro.obs.profiler` -- :func:`profile_section`, the one way code
  is timed: it keeps calls, inclusive and self seconds per section name,
  and powers the per-stage self-time table of ``repro profile`` and
  ``repro report``;
* :mod:`repro.obs.attrib` -- the search-effort collector (PODEM effort
  records, optimizer moves) the pipeline run switches on, and its
  ``repro-attrib`` artifact;
* :mod:`repro.obs.ledger` -- the ``repro-ledger`` record, the one form a
  measured run (a bench, a pipeline run) takes, the JSONL ledger that
  stores records, and their file validator.  It runs as ``python -m
  repro.obs.ledger``, so this package does not import it;
* :mod:`repro.obs.regress` -- the exact counter gate over ledgers, and
  :mod:`repro.obs.report` -- one pipeline run's record as markdown,
  HTML or JSON.

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

import logging

from repro.obs.attrib import (
    ATTRIB,
    AttribCollector,
    artifact_json,
    build_artifact,
    validate_artifact,
)
from repro.obs.metrics import Counter, DEFAULT_REGISTRY, MetricsRegistry
from repro.obs.profiler import PIPELINE_STAGES, profile_section, stage_rows
from repro.obs.regress import (
    COUNTER_IGNORE,
    RegressionReport,
    compare_ledgers,
    compare_records,
)
from repro.obs.report import RunReport

#: the process-wide registry every instrumented module shares
METRICS = DEFAULT_REGISTRY

__all__ = [
    "ATTRIB",
    "AttribCollector",
    "artifact_json",
    "build_artifact",
    "validate_artifact",
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
    "RunReport",
    "configure_logging",
]


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger tree from a ``-v`` count.

    0 leaves the library silent (WARNING), 1 enables INFO, 2+ DEBUG.
    Handlers are installed once on the ``repro`` root logger so repeated
    CLI invocations in one process do not duplicate output lines.
    """
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(levelname).1s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
        logger.propagate = False
    return logger
