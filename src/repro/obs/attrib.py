"""Deterministic search-effort attribution (the *why* behind the cost).

The metrics registry answers "how much work happened" (counters) and the
profiler answers "where did the wall time go" (per-stage self times).  This
module answers the question between the two: *which faults and which
optimizer moves consumed the search effort?*  The artifact is a pure
function of what the pipeline run already returns, in two planes:

* **ATPG plane** -- every :class:`repro.atpg.combinational.AtpgOutcome`
  keeps each PODEM call's fault and :class:`~repro.atpg.podem.PodemResult`
  (decisions, backtracks, implication passes, backtrace restarts, and
  the status that names the abort cause: backtrack budget vs untestable
  proof).  Effort is a wall-free unit
  (``decisions + 2*backtracks + implications``) so the plane is a pure
  function of the seed.
* **Optimizer plane** -- :class:`repro.soc.optimizer.SocetOptimizer`
  keeps every candidate move it tries in its ``moves`` list (move kind,
  subject, version delta, objective before/after, accept/reject,
  revisit classification), summarized into wasted-move ratio, plateau
  length, and per-move-kind yield.

:func:`repro.flow.profile.run_pipeline` builds the artifact from its
ATPG outcomes and its optimizer's moves and embeds it in its ledger
record's ``attrib`` field; nothing is collected on the side.

Artifacts are byte-stable sorted JSON under the ``repro-attrib`` schema
(version |ATTRIB_SCHEMA_VERSION|), whose shape is :data:`ARTIFACT_SHAPE`;
``repro validate FILE...`` checks artifact files against it.  The
artifact's reconciliation section holds the ATPG plane, summed from the
outcomes, to the ``atpg.podem.*`` counters ``podem()`` feeds: two
independent paths to the same totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Mapping, Sequence, Tuple

from repro.util.schema import (
    ANY,
    BOOLEAN,
    COUNT,
    INTEGER,
    POSITIVE,
    TEXT,
    ListOf,
    Object,
    one_of,
    version,
)

#: JSON schema marker / version of the attribution artifact.
ATTRIB_SCHEMA = "repro-attrib"
ATTRIB_SCHEMA_VERSION = 2

_PODEM_STATUSES = ("detected", "aborted", "redundant")

#: rows of the hard-fault table, the most effortful faults first (the
#: artifact's ``top_k`` field)
HARD_FAULTS = 10

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


# ----------------------------------------------------------------------
# artifact construction
# ----------------------------------------------------------------------
def _search_records(atpg: Sequence[Tuple[Any, Any]]) -> Iterator[Dict[str, Any]]:
    """One effort record per PODEM call, in call order, from
    ``(netlist, AtpgOutcome)`` pairs: the call's counts, status and
    target, and the target's class -- site (stem, gate pin or flop pin),
    gate kind and logic depth."""
    # not at import: the gate layer imports ``repro.obs`` for its counters
    from repro.gates.cells import STATE_KINDS
    from repro.gates.levelize import depth_levels

    for netlist, outcome in atpg:
        depths = depth_levels(netlist)
        for fault, result in outcome.searches:
            gate = netlist.gate(fault.gate)
            if fault.pin is None:
                site = "stem"
            elif gate.kind in STATE_KINDS:
                site = "flop-pin"
            else:
                site = "pin"
            yield {
                "backtracks": result.backtracks,
                "cone_depth": depths.get(fault.gate, 0),
                "decisions": result.decisions,
                "gate": fault.gate,
                "gate_kind": gate.kind.value,
                "implications": result.implications,
                "netlist": netlist.name,
                "pin": fault.pin,
                "restarts": result.restarts,
                "site": site,
                "status": result.status.value,
                "stuck": fault.stuck,
            }


def _fault_id(record: Mapping[str, Any]) -> str:
    location = record["gate"]
    if record["pin"] is not None:
        location = f"{location}.pin{record['pin']}"
    return f"{record['netlist']}::{location}/sa{record['stuck']}"


def _atpg_plane(records: Iterator[Dict[str, Any]]) -> Dict[str, Any]:
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
        "hard_faults": ranked[:HARD_FAULTS],
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
    atpg: Sequence[Tuple[Any, Any]],
    moves: Sequence[Mapping[str, Any]],
    counters: Mapping[str, int],
    *,
    system: str,
    seed: int,
    quick: bool,
) -> Dict[str, Any]:
    """Assemble the byte-stable ``repro-attrib`` artifact.

    ``atpg`` is the run's ``(netlist, AtpgOutcome)`` pairs in run order
    and ``moves`` its optimizer's :attr:`~repro.soc.optimizer.SocetOptimizer.moves`.
    ``counters`` must be the metrics-registry counter values accumulated
    over exactly that run (reset to run end), so the reconciliation
    section can hold the ATPG plane to the ``atpg.podem.*`` counters
    *exactly*.
    """
    atpg_plane = _atpg_plane(_search_records(atpg))
    totals = atpg_plane["totals"]
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
            "atpg": atpg_plane,
            "optimizer": _optimizer_plane(moves),
        },
        "quick": quick,
        "reconciliation": reconciliation,
        "schema": ATTRIB_SCHEMA,
        "schema_version": ATTRIB_SCHEMA_VERSION,
        "seed": seed,
        "system": system,
        "top_k": HARD_FAULTS,
    }


def artifact_json(artifact: Mapping[str, Any]) -> str:
    """Canonical byte-stable serialization of an attribution artifact."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# the artifact's shape (``repro validate``)
# ----------------------------------------------------------------------
def _seq_is_index(events):
    """Events are numbered in order from 0, without gaps."""
    for index, event in enumerate(events):
        if event["seq"] != index:
            yield f"[{index}].seq", f"must be {index}"


def _ok_is_agreement(row):
    """A reconciliation row is ok exactly when its two counts agree."""
    agree = row["attrib"] == row["counter"]
    if row["ok"] is not agree:
        yield ".ok", (f"must be {str(agree).lower()}: attrib {row['attrib']}, "
                      f"counter {row['counter']}")


#: what :func:`build_artifact` writes; a ledger record's ``attrib``
#: field has the same shape
ARTIFACT_SHAPE = Object({
    "schema": one_of(ATTRIB_SCHEMA),
    "schema_version": version(ATTRIB_SCHEMA_VERSION, oldest=ATTRIB_SCHEMA_VERSION),
    "system": TEXT,
    "seed": INTEGER,
    "quick": BOOLEAN,
    "top_k": POSITIVE,
    "planes": Object({
        "atpg": Object({
            "totals": Object({
                name: COUNT
                for name in ("aborted", "backtracks", "calls", "decisions",
                             "detected", "effort", "implications", "redundant",
                             "restarts")
            }),
            "hard_faults": ListOf(Object({
                "abort_cause": ANY, "backtracks": ANY, "calls": ANY,
                "cone_depth": ANY, "decisions": ANY, "effort": ANY, "fault": ANY,
                "gate_kind": ANY, "implications": ANY, "restarts": ANY,
                "site": ANY, "status": one_of(*_PODEM_STATUSES),
            })),
        }),
        "optimizer": Object({
            "events": ListOf(
                Object({
                    name: ANY
                    for name in ("cache", "kind", "outcome", "seq", "subject",
                                 "tat_after", "tat_before", "version_from",
                                 "version_to")
                }),
                rules=(_seq_is_index,),
            ),
            "summary": Object({}),
        }),
    }),
    "reconciliation": Object({}, extra=Object(
        {"attrib": COUNT, "counter": COUNT, "ok": BOOLEAN},
        rules=(_ok_is_agreement,),
    )),
})
