"""Deterministic search-effort attribution (the *why* behind the cost).

The metrics registry answers "how much work happened" (counters) and the
profiler answers "where did the wall time go" (per-stage self times).  This
module answers the question between the two: *which faults, which gate
populations, and which optimizer moves consumed the search effort?*
Three attribution planes feed one collector:

* **ATPG plane** -- :func:`repro.atpg.podem.podem` records one effort
  ledger entry per targeted fault: decisions, backtracks, implication
  passes, backtrace restarts, and the abort cause (backtrack budget vs
  untestable proof).  Effort is a wall-free unit
  (``decisions + 2*backtracks + implications``) so the ledger is a pure
  function of the seed.
* **Simulation plane** -- the fault-grading kernels attribute
  good-value batches, survivor-sweep candidates, and detection cone
  walks to ``level:kind`` gate buckets.  They hook the *same*
  oracle-semantic events as the scalar reference graders (the ones
  behind ``faultsim.batches`` / ``faultsim.events`` /
  ``faultsim.cone.*``), so the artifact is bit-identical whichever of
  the two grades; kernel-mechanical work (``kernel.words_evaluated``) is
  deliberately excluded.
* **Optimizer plane** -- every candidate move evaluated by
  :class:`repro.soc.optimizer.SocetOptimizer` appends an
  :class:`AttribEvent`-shaped dict (move kind, subject, version delta,
  objective before/after, accept/reject, revisit classification) to an
  append-only stream, summarized into wasted-move ratio, plateau
  length, and per-move-kind yield.

Collection is off by default.  The pipeline run
(:func:`repro.flow.profile.run_pipeline`) turns it on, in ``deep`` mode
when ``REPRO_ATTRIB=deep``; :meth:`AttribCollector.configure` sets it
directly.  Every hook early-returns on one attribute check when off.

Artifacts are byte-stable sorted JSON under the ``repro-attrib`` schema
(version |ATTRIB_SCHEMA_VERSION|), validated by the dependency-free
checker in :func:`validate_artifact`; ``python -m repro.obs.benchjson
FILE...`` runs it on artifact files.  Attribution counters are
advisory: they never feed gating except through explicitly-declared
regress gates.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import AttribSchemaError, UsageError
from repro.obs.metrics import DEFAULT_REGISTRY

_PODEM_RECORDS = DEFAULT_REGISTRY.counter("attrib.podem.records")
_MOVE_EVENTS = DEFAULT_REGISTRY.counter("attrib.optimizer.events")

#: JSON schema marker / version of the attribution artifact.
ATTRIB_SCHEMA = "repro-attrib"
ATTRIB_SCHEMA_VERSION = 1

#: collection modes: disabled, aggregate planes, aggregate + per-site detail
ATTRIB_MODES = ("off", "on", "deep")

#: environment toggle honored by :func:`resolve_attrib_mode`
ATTRIB_ENV = "REPRO_ATTRIB"

_PODEM_STATUSES = ("detected", "aborted", "redundant")

#: abort-cause label per terminal PODEM status
ABORT_CAUSES = {
    "detected": None,
    "aborted": "backtrack-budget",
    "redundant": "untestable-proof",
}


def resolve_attrib_mode(value: Optional[str] = None) -> str:
    """Resolve the attribution mode from ``REPRO_ATTRIB`` (or ``value``).

    Unset/empty/``0``/``off`` disable collection, ``1``/``on`` enable the
    cheap aggregate planes, ``deep`` additionally keeps per-site cone
    detail.  Anything else is a :class:`UsageError`, mirroring the other
    ``REPRO_*`` switches.
    """
    raw = os.environ.get(ATTRIB_ENV, "") if value is None else value
    text = raw.strip().lower()
    if text in ("", "0", "off", "false", "no"):
        return "off"
    if text in ("1", "on", "true", "yes"):
        return "on"
    if text == "deep":
        return "deep"
    raise UsageError(
        f"{ATTRIB_ENV} must be one of off/on/deep (got {raw!r})"
    )


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
    """Append-only effort ledgers for the three attribution planes.

    State is plain ints/lists/dicts appended in execution order, so
    the collected state is a pure function of the seed.
    """

    __slots__ = ("mode", "_podem", "_sim", "_scalars", "_cones", "_moves",
                 "_seen_points")

    def __init__(self) -> None:
        self.mode = "off"
        self._podem: List[Dict[str, Any]] = []
        #: ``level:kind`` bucket -> [good_words, sweep_words]
        self._sim: Dict[str, List[int]] = {}
        self._scalars: Dict[str, int] = {
            "cone_walks": 0, "good_batches": 0, "sweep_candidates": 0,
        }
        #: deep mode only: fault-site key -> cone walks
        self._cones: Dict[str, int] = {}
        self._moves: List[Dict[str, Any]] = []
        #: optimizer design points already evaluated this run (revisits)
        self._seen_points: Set[Tuple] = set()

    # -- lifecycle -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def deep(self) -> bool:
        return self.mode == "deep"

    def configure(self, mode: str) -> None:
        """Set the collection mode (``off``/``on``/``deep``)."""
        if mode not in ATTRIB_MODES:
            raise UsageError(
                f"attribution mode must be one of {'/'.join(ATTRIB_MODES)} "
                f"(got {mode!r})"
            )
        self.mode = mode

    def reset(self) -> None:
        """Drop all collected state (the mode survives)."""
        del self._podem[:]
        self._sim.clear()
        for name in sorted(self._scalars):
            self._scalars[name] = 0
        self._cones.clear()
        del self._moves[:]
        self._seen_points.clear()

    # -- plane 1: ATPG -------------------------------------------------
    def podem_record(self, record: Dict[str, Any]) -> None:
        """Append one per-fault PODEM effort record (see ``podem()``)."""
        self._podem.append(record)
        _PODEM_RECORDS.inc()

    # -- plane 2: simulation -------------------------------------------
    def sim_good(self, profile: Mapping[str, int], words: int = 1) -> None:
        """Attribute ``words`` good-value batches over a netlist profile."""
        self._scalars["good_batches"] += words
        sim = self._sim
        for bucket, gates in sorted(profile.items()):
            row = sim.get(bucket)
            if row is None:
                row = sim[bucket] = [0, 0]
            row[0] += gates * words

    def sim_sweep(self, candidates: int) -> None:
        """Attribute survivor-sweep work (fault x word candidates)."""
        self._scalars["sweep_candidates"] += candidates

    def sim_cone(self, profile: Mapping[str, int], site: str) -> None:
        """Attribute one detection cone walk over the cone's profile."""
        self._scalars["cone_walks"] += 1
        sim = self._sim
        for bucket, gates in sorted(profile.items()):
            row = sim.get(bucket)
            if row is None:
                row = sim[bucket] = [0, 0]
            row[1] += gates
        if self.mode == "deep":
            self._cones[site] = self._cones.get(site, 0) + 1

    # -- plane 3: optimizer --------------------------------------------
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
    reconciliation section can hold the attribution planes to the
    existing ``atpg.*`` / ``faultsim.*`` counters *exactly*.
    """
    atpg = _atpg_plane(collector._podem, top_k)
    scalars = collector._scalars
    buckets = {
        bucket: {"good_words": row[0], "sweep_words": row[1]}
        for bucket, row in sorted(collector._sim.items())
    }
    sim: Dict[str, Any] = {
        "buckets": buckets,
        "cone_walks": scalars["cone_walks"],
        "good_batches": scalars["good_batches"],
        "sweep_candidates": scalars["sweep_candidates"],
    }
    if collector.deep:
        sim["cones"] = dict(sorted(collector._cones.items()))

    totals = atpg["totals"]
    cone_touches = (
        counters.get("faultsim.cone.builds", 0)
        + counters.get("faultsim.cone.reuses", 0)
    )
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
        ("faultsim.batches", scalars["good_batches"],
         counters.get("faultsim.batches", 0)),
        ("faultsim.events", scalars["sweep_candidates"],
         counters.get("faultsim.events", 0)),
        ("faultsim.cone.builds+reuses", scalars["cone_walks"], cone_touches),
    )
    reconciliation = {
        name: {"attrib": attributed, "counter": counted,
               "ok": attributed == counted}
        for name, attributed, counted in checks
    }
    return {
        "deep": collector.deep,
        "planes": {
            "atpg": atpg,
            "optimizer": _optimizer_plane(collector._moves),
            "sim": sim,
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
# schema validation (dependency-free; ``python -m repro.obs.benchjson``)
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
    elif version < 1:
        problems.append("schema_version must be >= 1")
    if not isinstance(payload.get("system"), str) or not payload.get("system"):
        problems.append("system must be a non-empty string")
    if not isinstance(payload.get("seed"), int) or isinstance(payload.get("seed"), bool):
        problems.append("seed must be an integer")
    for flag in ("deep", "quick"):
        if not isinstance(payload.get(flag), bool):
            problems.append(f"{flag} must be a boolean")
    top_k = payload.get("top_k")
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        problems.append("top_k must be a positive integer")

    planes = payload.get("planes")
    if not isinstance(planes, dict):
        problems.append("planes must be an object")
        planes = {}
    for name in ("atpg", "optimizer", "sim"):
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

    sim = planes.get("sim")
    if isinstance(sim, dict):
        _count_problems(
            sim, ("cone_walks", "good_batches", "sweep_candidates"),
            "planes.sim", problems,
        )
        buckets = sim.get("buckets")
        if not isinstance(buckets, dict):
            problems.append("planes.sim.buckets must be an object")
        else:
            for bucket, row in sorted(buckets.items()):
                level, _, kind = bucket.partition(":")
                if not level.isdigit() or not kind:
                    problems.append(
                        f"planes.sim.buckets key {bucket!r} must look like "
                        f"'<level>:<kind>'"
                    )
                _count_problems(
                    row, ("good_words", "sweep_words"),
                    f"planes.sim.buckets[{bucket!r}]", problems,
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
