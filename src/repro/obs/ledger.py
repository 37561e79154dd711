"""Append-only JSONL run ledger: the one form a measured run takes.

Every measured run -- a benchmark's timing rounds or one pipeline run --
is one ``repro-ledger`` record, and a ledger file holds one record per
line, so a run's history is a queryable series.  Benchmarks append
their records to their results ledger, and ``repro profile --ledger``
appends a pipeline run's, the one machine-readable form of that run
(its ``attrib`` field is the run's search-effort artifact).  Records
are self-describing and versioned::

    {
      "schema": "repro-ledger",
      "schema_version": 4,
      "bench": "schedule",              # series key (bench or profile name)
      "kind": "bench",                  # "bench" | "profile"
      "timestamp": "2026-08-06T12:00:00Z",
      "git_sha": "b9c0110...",          # null outside a git checkout
      "samples": [0.0041, 0.0043],      # per-round raw wall times (seconds)
      "counters": {"atpg.podem.backtracks": 7010, ...},  # zeros included
      "env": {"python": "3.12.1", "platform": "linux", "cpus": 8},
      "histograms": {"atpg.run": {"count": 4, "sum": 0.8,
                     "self": 0.6}, ...},  # optional (v3), section totals
      "results": {...},                 # optional free-form payload
      "attrib": {...}                   # optional (v4), repro-attrib artifact
    }

Counters record *every* touched instrument (including zero values):
the counter gate in :mod:`repro.obs.regress` needs "counter is zero"
and "counter never existed" to be distinguishable facts.  The
``histograms`` field keeps its v3 name; records written now fill it
with each timed section's calls (``count``), inclusive seconds
(``sum``) and self seconds (``self``).  Older records carry
percentile summaries there, which still validate.

Appends are atomic: each record is serialized to one line and written
with a single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
writers (parallel bench shards, CI matrix jobs sharing a volume)
interleave whole records, never partial lines.

:data:`RECORD_SHAPE` is the record's schema; ``repro validate FILE...``
checks ledgers and single records against it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import LedgerSchemaError
from repro.obs.attrib import ARTIFACT_SHAPE
from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry
from repro.util.schema import (
    ANY,
    NUMBER,
    STRING,
    TEXT,
    ListOf,
    Object,
    check,
    is_number,
    leaf,
    one_of,
    version,
)

# module scope so the instrument exists (as zero) in any snapshot taken
# after this module is imported -- lazy creation would make the counter
# universe depend on whether an append already happened in the process
_APPENDS = DEFAULT_REGISTRY.counter("ledger.appends")

LEDGER_SCHEMA = "repro-ledger"
#: version history: 1 -- initial (kinds "bench"/"profile");
#: 2 -- adds kind "serve" (a planning-daemon session; the daemon and
#: the kind are since retired, so such records no longer validate);
#: 3 -- adds the optional ``histograms`` field ({name: summary dict};
#: first percentile summaries, now section totals);
#: 4 -- adds the optional ``attrib`` field (a full ``repro-attrib``
#: search-effort artifact, checked against the artifact's own shape on
#: append; every profile record carries one) and a kind "explain", since
#: retired (no command writes it)
LEDGER_SCHEMA_VERSION = 4

#: record kinds the schema admits
RECORD_KINDS = ("bench", "profile")

#: what :func:`make_record` writes, checked on every append and read
#: and by ``repro validate``.  ``histograms`` entries hold ``count`` and
#: ``sum`` and any other statistic (``self``, or an older record's order
#: statistics, null when empty); ``env`` may carry extra keys (older
#: records have ``repro_jobs``)
RECORD_SHAPE = Object(
    {
        "schema": one_of(LEDGER_SCHEMA),
        "schema_version": version(LEDGER_SCHEMA_VERSION),
        "bench": TEXT,
        "kind": one_of(*RECORD_KINDS),
        "timestamp": STRING,
        "git_sha": leaf("a string or null",
                        lambda value: value is None or isinstance(value, str)),
        "samples": ListOf(
            leaf("a non-negative number", lambda value: is_number(value) and value >= 0),
            nonempty=True,
        ),
        "counters": Object({}, extra=NUMBER),
        "env": Object({"python": ANY, "platform": ANY, "cpus": ANY}),
    },
    optional={
        "histograms": Object({}, extra=Object(
            {"count": NUMBER, "sum": NUMBER},
            extra=leaf("a number or null", lambda value: value is None or is_number(value)),
        )),
        "attrib": ARTIFACT_SHAPE,
    },
)


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
def environment_fingerprint() -> Dict:
    """The run environment facts a wall time depends on.

    Python version and CPU count move wall times, so a record's samples
    are read together with its fingerprint; counters are pure functions
    of the seed and do not depend on it.  Extra keys (older records
    carry ``repro_jobs``) are allowed.
    """
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count() or 1,
    }


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The checkout's HEAD SHA, or ``None`` outside a usable git repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def utc_timestamp(epoch_s: Optional[float] = None) -> str:
    """ISO-8601 UTC timestamp (``2026-08-06T12:00:00Z``)."""
    if epoch_s is None:
        epoch_s = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch_s))


def make_record(
    bench: str,
    samples: Sequence[float],
    counters: Optional[Dict] = None,
    registry: Optional[MetricsRegistry] = None,
    results=None,
    kind: str = "bench",
    env: Optional[Dict] = None,
    git_sha: Optional[str] = "auto",
    timestamp: Optional[str] = None,
    histograms: Optional[Dict] = None,
    attrib: Optional[Dict] = None,
) -> Dict:
    """Build a schema-valid ledger record.

    ``counters`` defaults to every counter in ``registry`` (the shared
    registry when neither is given), zeros included.  ``git_sha="auto"``
    resolves HEAD; pass ``None`` to record an unversioned run.
    ``histograms`` (optional, schema v3) carries summary dicts keyed by
    section name -- :meth:`MetricsRegistry.sections` output; omitted
    entirely when not given.
    ``attrib`` (optional, schema v4) embeds a ``repro-attrib``
    search-effort artifact, schema-checked on its own terms.
    """
    if counters is None:
        registry = registry if registry is not None else DEFAULT_REGISTRY
        counters = dict(registry.counters())
    record = {
        "schema": LEDGER_SCHEMA,
        "schema_version": LEDGER_SCHEMA_VERSION,
        "bench": bench,
        "kind": kind,
        "timestamp": timestamp if timestamp is not None else utc_timestamp(),
        "git_sha": current_git_sha() if git_sha == "auto" else git_sha,
        "samples": [float(value) for value in samples],
        "counters": dict(counters),
        "env": dict(env) if env is not None else environment_fingerprint(),
    }
    if results is not None:
        record["results"] = results
    if histograms is not None:
        record["histograms"] = {
            name: dict(summary) for name, summary in histograms.items()
        }
    if attrib is not None:
        record["attrib"] = dict(attrib)
    validate_record(record)
    return record


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_record(record: Dict) -> None:
    """Raise :class:`LedgerSchemaError` listing every schema violation."""
    problems = check(RECORD_SHAPE, record)
    if problems:
        raise LedgerSchemaError("; ".join(problems))


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
class RunLedger:
    """One JSONL ledger file: append records, read series back.

    Reading tolerates nothing: a malformed line raises
    :class:`LedgerSchemaError` with its line number, because a ledger
    that silently skips records cannot be trusted as a baseline.  The
    file is read and validated once, on first use, and again only after
    :meth:`append`; records another writer appends in between stay unseen.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._loaded: Optional[List[Dict]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({self.path!r})"

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # ------------------------------------------------------------------
    def append(self, record: Dict) -> Dict:
        """Validate and atomically append one record (one line)."""
        validate_record(record)
        line = json.dumps(record, sort_keys=True) + "\n"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self._loaded = None
        _APPENDS.inc()
        return record

    # ------------------------------------------------------------------
    def records(self, bench: Optional[str] = None) -> List[Dict]:
        """Every record (oldest first), optionally for one series."""
        if self._loaded is None:
            if not self.exists():
                return []
            self._loaded = self._read()
        return [record for record in self._loaded if bench is None or record["bench"] == bench]

    def _read(self) -> List[Dict]:
        loaded: List[Dict] = []
        with open(self.path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    validate_record(record)
                except (ValueError, RecursionError, LedgerSchemaError) as error:
                    # RecursionError: a line nested too deep to decode
                    raise LedgerSchemaError(f"{self.path}:{lineno}: {error}")
                loaded.append(record)
        return loaded

    def latest(self, bench: str) -> Optional[Dict]:
        """The newest record of one series (file order, not timestamps)."""
        series = self.records(bench)
        return series[-1] if series else None
