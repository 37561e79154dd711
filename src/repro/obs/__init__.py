"""Observability for the SOCET pipeline: tracing, metrics, profiling.

Zero-dependency subsystem with three cooperating parts:

* :mod:`repro.obs.tracer` -- a span tracer (Chrome ``trace_event`` JSON
  + JSONL export) that is a shared no-op until enabled;
* :mod:`repro.obs.metrics` -- an always-on registry of counters the hot
  paths feed through cached instruments (PODEM backtracks, fault-sim
  events, BFS expansions, scheduler reservation waits, optimizer moves,
  ...) and of timed-section totals;
* :mod:`repro.obs.profiler` -- :func:`profile_section`, the one way code
  is timed: it keeps calls, inclusive and self seconds per section name
  (and records a span when tracing), and powers the per-stage self-time
  table of ``repro profile``, ``repro report`` and ``repro explain``.

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
from typing import Optional

from repro.obs.attrib import (
    ATTRIB,
    AttribCollector,
    artifact_json,
    build_artifact,
    resolve_attrib_mode,
    validate_artifact,
)
from repro.obs.ledger import RunLedger, environment_fingerprint, make_record
from repro.obs.metrics import Counter, DEFAULT_REGISTRY, MetricsRegistry
from repro.obs.profiler import PIPELINE_STAGES, profile_section, stage_rows
from repro.obs.regress import (
    COUNTER_IGNORE,
    RegressionReport,
    compare_ledgers,
    compare_records,
)
from repro.obs.report import RunReport, build_run_report
from repro.obs.tracer import (
    DEFAULT_TRACER,
    NOOP_SPAN,
    Span,
    Tracer,
    span_tree_problems,
)

#: process-wide singletons every instrumented module shares
METRICS = DEFAULT_REGISTRY
TRACER = DEFAULT_TRACER

__all__ = [
    "ATTRIB",
    "AttribCollector",
    "artifact_json",
    "build_artifact",
    "resolve_attrib_mode",
    "validate_artifact",
    "Counter",
    "MetricsRegistry",
    "METRICS",
    "Span",
    "Tracer",
    "TRACER",
    "NOOP_SPAN",
    "span_tree_problems",
    "PIPELINE_STAGES",
    "profile_section",
    "stage_rows",
    "RunLedger",
    "make_record",
    "environment_fingerprint",
    "COUNTER_IGNORE",
    "RegressionReport",
    "compare_ledgers",
    "compare_records",
    "RunReport",
    "build_run_report",
    "enable_tracing",
    "disable_tracing",
    "configure_logging",
]


def enable_tracing(clear: bool = True) -> Tracer:
    if clear:
        TRACER.clear()
    TRACER.enable()
    return TRACER


def disable_tracing() -> Tracer:
    TRACER.disable()
    return TRACER


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
