"""The machine-readable benchmark format (``BENCH_<name>.json``).

Every benchmark writes one JSON document so the performance trajectory
is diffable across PRs: wall time plus the key pipeline counters from
the metrics registry.  The schema is deliberately small and validated
by hand (no external JSON-schema dependency)::

    {
      "schema": "repro-bench",
      "schema_version": 2,
      "bench": "schedule",          # short name, file is BENCH_<bench>.json
      "wall_time_s": 0.0042,        # mean wall time of the measured call
      "rounds": 3,                  # timing rounds the mean is over
      "samples": [0.0041, ...],     # v2: per-round raw wall times (seconds)
      "counters": {"schedule.reservation.waits": 7, ...},
      "results": {...}              # bench-specific payload (free-form)
    }

Version history:

* **v1** -- mean wall time only, and only non-zero counters.
* **v2** -- adds per-round raw ``samples`` (the mean alone makes
  statistics impossible) and records *every* touched counter, zeros
  included, so a counter diff can distinguish "zero" from "absent".
  v1 files still validate (the ``samples`` requirement is gated on the
  declared ``schema_version``).
* **v3** -- adds the optional ``histograms`` field, matching run-ledger
  schema v3: first percentile summaries (null order statistics when
  empty), now each timed section's ``count``/``sum``/``self`` from
  :meth:`MetricsRegistry.sections`.  Both shapes validate.

Run ``python -m repro.obs.benchjson FILE...`` to validate bench files,
``*.jsonl`` run ledgers (or one ``repro-ledger`` record), and
``repro-attrib`` artifacts; any other document fails (CI fails the job
on any schema error).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import BenchSchemaError
from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry

SCHEMA = "repro-bench"
SCHEMA_VERSION = 3

_REQUIRED_FIELDS = {
    "schema": str,
    "schema_version": int,
    "bench": str,
    "wall_time_s": (int, float),
    "rounds": int,
    "counters": dict,
    "results": (dict, list),
}


def bench_payload(
    bench: str,
    wall_time_s: float,
    results,
    rounds: int = 1,
    registry: Optional[MetricsRegistry] = None,
    samples: Optional[Sequence[float]] = None,
    histograms: Optional[Dict] = None,
) -> Dict:
    """Build a schema-valid bench document (counters from the registry).

    With ``samples`` (the per-round raw wall times) the payload is
    schema v2; without, it stays a v1 document for callers that only
    have a mean.  ``histograms`` (section totals, requires ``samples``)
    makes it v3.  Counters record every touched instrument, zeros
    included -- the regression gate needs "zero" and "absent" to be
    different facts.
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if samples is not None:
        version = SCHEMA_VERSION if histograms is not None else 2
    else:
        version = 1
    payload = {
        "schema": SCHEMA,
        "schema_version": version,
        "bench": bench,
        "wall_time_s": float(wall_time_s),
        "rounds": int(rounds),
        "counters": dict(registry.counters()),
        "results": results,
    }
    if samples is not None:
        payload["samples"] = [float(value) for value in samples]
        payload["rounds"] = len(payload["samples"])
    if histograms is not None:
        payload["histograms"] = {
            name: dict(summary) for name, summary in histograms.items()
        }
    validate_bench(payload)
    return payload


def validate_bench(payload: Dict) -> None:
    """Raise :class:`BenchSchemaError` listing every schema violation."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        raise BenchSchemaError(f"bench payload must be an object, got {type(payload).__name__}")
    for field, kinds in _REQUIRED_FIELDS.items():
        if field not in payload:
            problems.append(f"missing field {field!r}")
        elif not isinstance(payload[field], kinds):
            problems.append(
                f"field {field!r} has type {type(payload[field]).__name__}"
            )
    if not problems:
        if payload["schema"] != SCHEMA:
            problems.append(f"schema is {payload['schema']!r}, expected {SCHEMA!r}")
        if payload["schema_version"] > SCHEMA_VERSION:
            problems.append(
                f"schema_version {payload['schema_version']} is newer than {SCHEMA_VERSION}"
            )
        if payload["wall_time_s"] < 0:
            problems.append("wall_time_s is negative")
        for key, value in payload["counters"].items():
            if not isinstance(key, str) or not isinstance(value, (int, float)):
                problems.append(f"counter {key!r} is not a string->number entry")
        if payload["schema_version"] >= 2:
            problems.extend(_sample_problems(payload))
        elif "samples" in payload:
            problems.append("v1 payload carries a 'samples' field; declare v2")
        if payload["schema_version"] >= 3:
            if "histograms" in payload:
                from repro.obs.ledger import _histogram_problems

                problems.extend(_histogram_problems(payload["histograms"]))
        elif "histograms" in payload:
            problems.append("pre-v3 payload carries a 'histograms' field; declare v3")
    if problems:
        raise BenchSchemaError("; ".join(problems))


def _sample_problems(payload: Dict) -> List[str]:
    """The v2 ``samples`` constraints (shared with the run ledger)."""
    samples = payload.get("samples")
    if not isinstance(samples, list) or not samples:
        return ["v2 payload requires a non-empty 'samples' list"]
    problems = []
    for index, value in enumerate(samples):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"sample {index} is not a number")
        elif value < 0:
            problems.append(f"sample {index} is negative")
    if not problems and payload.get("rounds") != len(samples):
        problems.append(
            f"rounds is {payload.get('rounds')} but {len(samples)} samples recorded"
        )
    return problems


def write_bench(path: str, payload: Dict) -> str:
    validate_bench(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def validate_file(path: str) -> str:
    """Validate one artifact (bench JSON, run ledger or ledger record, or
    ``repro-attrib`` attribution artifact); anything else is an error."""
    from repro.obs.attrib import ATTRIB_SCHEMA, require_valid_artifact
    from repro.obs.ledger import LEDGER_SCHEMA, validate_ledger_file, validate_record

    if str(path).endswith(".jsonl"):
        validate_ledger_file(path)
        return "ledger"
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema == SCHEMA:
        validate_bench(payload)
        return "bench"
    if schema == LEDGER_SCHEMA:
        validate_record(payload)
        return "ledger-record"
    if schema == ATTRIB_SCHEMA:
        require_valid_artifact(payload)
        return "attrib"
    raise BenchSchemaError(
        f"not a {SCHEMA}, {LEDGER_SCHEMA} or {ATTRIB_SCHEMA} document"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ObservabilityError

    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.benchjson FILE [FILE...]", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            kind = validate_file(path)
        except (OSError, ValueError, ObservabilityError) as error:
            print(f"FAIL {path}: {error}")
            failures += 1
        else:
            print(f"ok   {path} ({kind})")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
