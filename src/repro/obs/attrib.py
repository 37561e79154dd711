"""Deterministic search-effort attribution (the *why* behind the cost).

The metrics registry answers "how much work happened" (counters) and the
profiler answers "where did the wall time go" (per-stage self times).  This
module answers the question between the two: *which faults and which
optimizer moves consumed the search effort?*  Two attribution planes
feed one collector:

* **ATPG plane** -- :func:`repro.atpg.podem.podem` records one effort
  ledger entry per targeted fault: decisions, backtracks, implication
  passes, backtrace restarts, and the abort cause (backtrack budget vs
  untestable proof).  Effort is a wall-free unit
  (``decisions + 2*backtracks + implications``) so the ledger is a pure
  function of the seed.
* **Optimizer plane** -- every candidate move evaluated by
  :class:`repro.soc.optimizer.SocetOptimizer` appends an
  :class:`AttribEvent`-shaped dict (move kind, subject, version delta,
  objective before/after, accept/reject, revisit classification) to an
  append-only stream, summarized into wasted-move ratio, plateau
  length, and per-move-kind yield.

Collection is off by default.  The pipeline run
(:func:`repro.flow.profile.run_pipeline`) switches it on, restores the
previous state on exit, and embeds the artifact in its ledger record's
``attrib`` field; each hook is behind one ``enabled`` check.

Artifacts are byte-stable sorted JSON under the ``repro-attrib`` schema
(version |ATTRIB_SCHEMA_VERSION|), validated by the dependency-free
checker in :func:`validate_artifact`; ``python -m repro.obs.ledger
FILE...`` runs it on artifact files.  Attribution counters are
advisory: they never feed gating except through explicitly-declared
regress gates.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import AttribSchemaError
from repro.obs.metrics import DEFAULT_REGISTRY

_PODEM_RECORDS = DEFAULT_REGISTRY.counter("attrib.podem.records")
_MOVE_EVENTS = DEFAULT_REGISTRY.counter("attrib.optimizer.events")

#: JSON schema marker / version of the attribution artifact.
ATTRIB_SCHEMA = "repro-attrib"
ATTRIB_SCHEMA_VERSION = 2

_PODEM_STATUSES = ("detected", "aborted", "redundant")

#: abort-cause label per terminal PODEM status
ABORT_CAUSES = {
    "detected": None,
    "aborted": "backtrack-budget",
    "redundant": "untestable-proof",
}


def effort_units(decisions: int, backtracks: int, implications: int) -> int:
    """Wall-free effort of one PODEM call.

    Backtracks weigh double: each one both undoes a decision and forces
    a re-implication of the flipped assignment.
    """
    return decisions + 2 * backtracks + implications


def _band(value: int) -> str:
    """Power-of-two bucket label (exclusive upper bound) for histograms."""
    if value <= 0:
        return "0"
    return str(1 << value.bit_length())


class AttribCollector:
    """Append-only effort ledgers for the two attribution planes.

    State is plain lists appended in execution order, so the collected
    state is a pure function of the seed.  ``enabled`` is the one switch
    every hook checks.
    """

    __slots__ = ("enabled", "_podem", "_moves", "_seen_points")

    def __init__(self) -> None:
        self.enabled = False
        self._podem: List[Dict[str, Any]] = []
        self._moves: List[Dict[str, Any]] = []
        #: optimizer design points already evaluated this run (revisits)
        self._seen_points: Set[Tuple] = set()

    def reset(self) -> None:
        """Drop all collected state (``enabled`` survives)."""
        del self._podem[:]
        del self._moves[:]
        self._seen_points.clear()

    # -- plane 1: ATPG -------------------------------------------------
    def podem_record(self, record: Dict[str, Any]) -> None:
        """Append one per-fault PODEM effort record (see ``podem()``)."""
        self._podem.append(record)
        _PODEM_RECORDS.inc()

    # -- plane 2: optimizer --------------------------------------------
    def move_event(
        self,
        *,
        kind: str,
        subject: str,
        version_from: int,
        version_to: int,
        tat_before: int,
        tat_after: Optional[int],
        outcome: str,
        point: Optional[Tuple] = None,
    ) -> None:
        """Append one candidate-move event to the trajectory stream.

        ``point`` is a hashable design-point key; a point seen earlier in
        the same run classifies the event as a revisit (``cache: hit``),
        the baseline wasted-work signal the metaheuristic PR must beat.
        """
        cache = "none"
        if point is not None:
            if point in self._seen_points:
                cache = "hit"
            else:
                self._seen_points.add(point)
                cache = "miss"
        self._moves.append({
            "cache": cache,
            "kind": kind,
            "outcome": outcome,
            "seq": len(self._moves),
            "subject": subject,
            "tat_after": tat_after,
            "tat_before": tat_before,
            "version_from": version_from,
            "version_to": version_to,
        })
        _MOVE_EVENTS.inc()


#: process-wide collector every hook feeds
ATTRIB = AttribCollector()


# ----------------------------------------------------------------------
# artifact construction
# ----------------------------------------------------------------------
def _fault_id(record: Mapping[str, Any]) -> str:
    location = record["gate"]
    if record["pin"] is not None:
        location = f"{location}.pin{record['pin']}"
    return f"{record['netlist']}::{location}/sa{record['stuck']}"


def _atpg_plane(records: Sequence[Mapping[str, Any]], top_k: int) -> Dict[str, Any]:
    totals = {
        "aborted": 0, "backtracks": 0, "calls": 0, "decisions": 0,
        "detected": 0, "effort": 0, "implications": 0, "redundant": 0,
        "restarts": 0,
    }
    difficulty: Dict[str, int] = {}
    by_fault: Dict[str, Dict[str, Any]] = {}
    classes: Dict[str, Dict[str, Dict[str, int]]] = {
        "cone_depth": {}, "gate_kind": {}, "site": {},
    }
    for record in records:
        effort = effort_units(
            record["decisions"], record["backtracks"], record["implications"]
        )
        totals["calls"] += 1
        totals["decisions"] += record["decisions"]
        totals["backtracks"] += record["backtracks"]
        totals["implications"] += record["implications"]
        totals["restarts"] += record["restarts"]
        totals["effort"] += effort
        totals[record["status"]] += 1
        bucket = _band(effort)
        difficulty[bucket] = difficulty.get(bucket, 0) + 1

        fault = _fault_id(record)
        entry = by_fault.get(fault)
        if entry is None:
            entry = by_fault[fault] = {
                "abort_cause": None, "backtracks": 0, "calls": 0,
                "cone_depth": record["cone_depth"], "decisions": 0,
                "effort": 0, "fault": fault, "gate_kind": record["gate_kind"],
                "implications": 0, "restarts": 0, "site": record["site"],
                "status": record["status"],
            }
        entry["calls"] += 1
        entry["decisions"] += record["decisions"]
        entry["backtracks"] += record["backtracks"]
        entry["implications"] += record["implications"]
        entry["restarts"] += record["restarts"]
        entry["effort"] += effort
        entry["status"] = record["status"]
        entry["abort_cause"] = ABORT_CAUSES[record["status"]]

        for plane, key in (
            ("cone_depth", _band(record["cone_depth"])),
            ("gate_kind", record["gate_kind"]),
            ("site", record["site"]),
        ):
            rollup = classes[plane].get(key)
            if rollup is None:
                rollup = classes[plane][key] = {
                    "aborted": 0, "calls": 0, "effort": 0, "redundant": 0,
                }
            rollup["calls"] += 1
            rollup["effort"] += effort
            if record["status"] != "detected":
                rollup[record["status"]] += 1

    ranked = sorted(
        by_fault.values(), key=lambda entry: (-entry["effort"], entry["fault"])
    )
    return {
        "classes": classes,
        "difficulty": difficulty,
        "faults": len(by_fault),
        "hard_faults": ranked[:top_k],
        "totals": totals,
    }


def _optimizer_plane(moves: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    accepted = sum(1 for event in moves if event["outcome"] == "accept")
    rejected = len(moves) - accepted
    revisits = sum(1 for event in moves if event["cache"] == "hit")
    plateau = 0
    for event in reversed(moves):
        if event["outcome"] == "accept":
            break
        plateau += 1
    move_yield: Dict[str, Dict[str, int]] = {}
    for event in moves:
        row = move_yield.get(event["kind"])
        if row is None:
            row = move_yield[event["kind"]] = {"accepted": 0, "candidates": 0}
        row["candidates"] += 1
        if event["outcome"] == "accept":
            row["accepted"] += 1
    candidates = len(moves)
    summary = {
        "accepted": accepted,
        "candidates": candidates,
        "plateau": plateau,
        "rejected": rejected,
        "revisits": revisits,
        "wasted_ratio": round(rejected / candidates, 6) if candidates else 0.0,
        "yield": move_yield,
    }
    return {"events": [dict(sorted(event.items())) for event in moves],
            "summary": summary}


def build_artifact(
    collector: AttribCollector,
    counters: Mapping[str, int],
    *,
    system: str,
    seed: int,
    quick: bool,
    top_k: int,
) -> Dict[str, Any]:
    """Assemble the byte-stable ``repro-attrib`` artifact.

    ``counters`` must be the metrics-registry counter values accumulated
    over exactly the attributed run (reset to run end), so the
    reconciliation section can hold the ATPG plane to the existing
    ``atpg.podem.*`` counters *exactly*.
    """
    atpg = _atpg_plane(collector._podem, top_k)
    totals = atpg["totals"]
    checks = (
        ("atpg.podem.calls", totals["calls"], counters.get("atpg.podem.calls", 0)),
        ("atpg.podem.decisions", totals["decisions"],
         counters.get("atpg.podem.decisions", 0)),
        ("atpg.podem.backtracks", totals["backtracks"],
         counters.get("atpg.podem.backtracks", 0)),
        ("atpg.podem.aborts", totals["aborted"],
         counters.get("atpg.podem.aborts", 0)),
        ("atpg.podem.redundant", totals["redundant"],
         counters.get("atpg.podem.redundant", 0)),
    )
    reconciliation = {
        name: {"attrib": attributed, "counter": counted,
               "ok": attributed == counted}
        for name, attributed, counted in checks
    }
    return {
        "planes": {
            "atpg": atpg,
            "optimizer": _optimizer_plane(collector._moves),
        },
        "quick": quick,
        "reconciliation": reconciliation,
        "schema": ATTRIB_SCHEMA,
        "schema_version": ATTRIB_SCHEMA_VERSION,
        "seed": seed,
        "system": system,
        "top_k": top_k,
    }


def artifact_json(artifact: Mapping[str, Any]) -> str:
    """Canonical byte-stable serialization of an attribution artifact."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# schema validation (dependency-free; ``python -m repro.obs.ledger``)
# ----------------------------------------------------------------------
_HARD_FAULT_FIELDS = (
    "abort_cause", "backtracks", "calls", "cone_depth", "decisions",
    "effort", "fault", "gate_kind", "implications", "restarts", "site",
    "status",
)
_EVENT_FIELDS = (
    "cache", "kind", "outcome", "seq", "subject", "tat_after",
    "tat_before", "version_from", "version_to",
)


def _count_problems(mapping: Any, fields: Sequence[str], label: str,
                    problems: List[str]) -> None:
    if not isinstance(mapping, dict):
        problems.append(f"{label} must be an object")
        return
    for name in fields:
        value = mapping.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{label}.{name} must be a non-negative integer")


def validate_artifact(payload: Any) -> List[str]:
    """Return all schema problems of one artifact (empty when valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["artifact must be a JSON object"]
    if payload.get("schema") != ATTRIB_SCHEMA:
        problems.append(f"schema must be {ATTRIB_SCHEMA!r}")
    version = payload.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append("schema_version must be an integer")
    elif version > ATTRIB_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than this checker "
            f"({ATTRIB_SCHEMA_VERSION})"
        )
    elif version < ATTRIB_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is no longer read; this checker "
            f"reads only v{ATTRIB_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("system"), str) or not payload.get("system"):
        problems.append("system must be a non-empty string")
    if not isinstance(payload.get("seed"), int) or isinstance(payload.get("seed"), bool):
        problems.append("seed must be an integer")
    if not isinstance(payload.get("quick"), bool):
        problems.append("quick must be a boolean")
    top_k = payload.get("top_k")
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        problems.append("top_k must be a positive integer")

    planes = payload.get("planes")
    if not isinstance(planes, dict):
        problems.append("planes must be an object")
        planes = {}
    for name in ("atpg", "optimizer"):
        if not isinstance(planes.get(name), dict):
            problems.append(f"planes.{name} must be an object")

    atpg = planes.get("atpg")
    if isinstance(atpg, dict):
        _count_problems(
            atpg.get("totals"),
            ("aborted", "backtracks", "calls", "decisions", "detected",
             "effort", "implications", "redundant", "restarts"),
            "planes.atpg.totals", problems,
        )
        hard = atpg.get("hard_faults")
        if not isinstance(hard, list):
            problems.append("planes.atpg.hard_faults must be a list")
        else:
            for index, entry in enumerate(hard):
                if not isinstance(entry, dict):
                    problems.append(
                        f"planes.atpg.hard_faults[{index}] must be an object")
                    continue
                missing = [f for f in _HARD_FAULT_FIELDS if f not in entry]
                if missing:
                    problems.append(
                        f"planes.atpg.hard_faults[{index}] missing "
                        f"{', '.join(missing)}"
                    )
                elif entry.get("status") not in _PODEM_STATUSES:
                    problems.append(
                        f"planes.atpg.hard_faults[{index}].status must be "
                        f"one of {', '.join(_PODEM_STATUSES)}"
                    )

    optimizer = planes.get("optimizer")
    if isinstance(optimizer, dict):
        events = optimizer.get("events")
        if not isinstance(events, list):
            problems.append("planes.optimizer.events must be a list")
        else:
            for index, event in enumerate(events):
                if not isinstance(event, dict):
                    problems.append(
                        f"planes.optimizer.events[{index}] must be an object")
                    continue
                missing = [f for f in _EVENT_FIELDS if f not in event]
                if missing:
                    problems.append(
                        f"planes.optimizer.events[{index}] missing "
                        f"{', '.join(missing)}"
                    )
                elif event.get("seq") != index:
                    problems.append(
                        f"planes.optimizer.events[{index}].seq must be {index}"
                    )
        if not isinstance(optimizer.get("summary"), dict):
            problems.append("planes.optimizer.summary must be an object")

    reconciliation = payload.get("reconciliation")
    if not isinstance(reconciliation, dict):
        problems.append("reconciliation must be an object")
    else:
        for name, entry in sorted(reconciliation.items()):
            if not isinstance(entry, dict):
                problems.append(f"reconciliation[{name!r}] must be an object")
                continue
            _count_problems(entry, ("attrib", "counter"),
                            f"reconciliation[{name!r}]", problems)
            if isinstance(entry.get("attrib"), int) and isinstance(entry.get("counter"), int):
                expected = entry["attrib"] == entry["counter"]
                if entry.get("ok") is not expected:
                    problems.append(
                        f"reconciliation[{name!r}].ok disagrees with its "
                        f"attrib/counter values"
                    )
    return problems


def require_valid_artifact(payload: Any) -> Dict[str, Any]:
    """Validate an artifact, raising :class:`AttribSchemaError` on problems."""
    problems = validate_artifact(payload)
    if problems:
        raise AttribSchemaError("; ".join(problems))
    return payload
