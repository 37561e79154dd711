"""Machine-checkable transparency certificates: the one transparency checker.

:func:`certify_soc` runs the slice-provenance prover
(:mod:`repro.analysis.provenance`) and the mux-select consistency
solver (:mod:`repro.analysis.muxsat`) over **every** transparency path
of every version of every testable core, and records each version's
coverage gaps: a core input without a propagate path, or an output
slice without a justify path.  It then composes the per-core proofs
across the interconnect: a chip-level test plan's access routes
(deliveries and observations) are certified only when every
transparency usage they lean on is itself a proved path of the selected
version.  The result is a :class:`Certificate` -- a stable JSON
artifact (``repro certify SYSTEM --json``) that the lint rules
(``trans.*`` and ``analysis.*``) and CI check instead of trusting
declared version metadata.

Determinism contract: every iteration in this module is over
explicitly sorted sequences, so the same design always serializes to
byte-identical JSON (enforced by codestyle rule DET004 and the
byte-stability tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.muxsat import SelectSolver, check_path_selects
from repro.analysis.provenance import SliceProof, prove_path
from repro.errors import ReproError
from repro.lint.diagnostics import Diagnostic, Severity, location
from repro.obs import METRICS, profile_section
from repro.rtl.types import Slice
from repro.transparency.rcg import RCG

CERTIFICATE_SCHEMA_VERSION = 2
CERTIFICATE_KIND = "repro-certificate"


def path_location(system: str, core: str, version_index: int, port: str) -> str:
    """``<system>/core:C/version:V/port:P``, V one-based as in ``repro certify``."""
    return location(system, ("core", core), ("version", version_index + 1), ("port", port))


def fresh_known_arcs(circuit, version, hscan) -> Dict[Tuple, "object"]:
    """Re-extract the admissible arc set from the *actual* netlist.

    The RCG stored on a :class:`~repro.transparency.versions.CoreVersion`
    was computed at generation time; if the shipped circuit has since
    diverged (a tampered or mis-packaged core), its declared arcs can be
    phantoms.  Proofs must therefore admit only arcs backed by the
    circuit in hand:

    * structural arcs re-derived by :meth:`RCG.from_circuit` -- plus any
      HSCAN-plan arc that is an offset-aligned sub-slice of one (split
      scan units ride real wires);
    * the version's own added bypass muxes, which are materialized by
      ``apply_transparency_path`` and so exist by construction.

    HSCAN-plan arcs with *no* structural backing are dropped: the plan
    is generation-time metadata and must not vouch for wiring the
    netlist no longer has.
    """
    structural = RCG.from_circuit(circuit, None).arcs

    def backed(arc) -> bool:
        for real in structural:
            if (
                real.mux_path == arc.mux_path
                and real.source.comp == arc.source.comp
                and real.dest.comp == arc.dest.comp
                and real.source.lo <= arc.source.lo
                and arc.source.hi <= real.source.hi
                and real.dest.lo <= arc.dest.lo
                and arc.dest.hi <= real.dest.hi
                and arc.source.lo - real.source.lo == arc.dest.lo - real.dest.lo
            ):
                return True
        return False

    known = {
        arc.key(): arc
        for arc in RCG.from_circuit(circuit, hscan).arcs
        if backed(arc)
    }
    for arc in version.added_muxes:
        known[arc.key()] = arc
    return known


@dataclass
class PathProof:
    """Everything the certifier established about one transparency path."""

    core: str
    version_index: int
    version_name: str
    direction: str
    key: Tuple  # justify: (output, lo, width); propagate: (input,)
    proof: SliceProof
    solver: SelectSolver
    structure_problems: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        if self.direction == "justify":
            return str(Slice(self.key[0], self.key[1], self.key[2]))
        return self.key[0]

    @property
    def proved(self) -> bool:
        return (
            self.proof.proved
            and self.solver.consistent
            and not self.structure_problems
        )

    @property
    def status(self) -> str:
        return "proved" if self.proved else "refuted"

    @property
    def latency_overrun(self) -> bool:
        """Every root bit is accounted for, at a latency other than the declared one."""
        return (
            self.proof.proved_width == self.proof.root.width
            and self.proof.derived_latency != self.proof.claimed_latency
        )

    def problems(self) -> List[str]:
        """Every refutation reason, across all three checkers."""
        found = list(self.structure_problems)
        found.extend(self.proof.reasons)
        if self.proof.proved_width < self.proof.root.width and not self.proof.reasons:
            found.append(
                f"only {self.proof.proved_width} of {self.proof.root.width} "
                f"root bits have terminal provenance"
            )
        found.extend(conflict.describe() for conflict in self.solver.conflicts)
        found.extend(self.solver.structural)
        return found

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "version": self.version_index,
            "version_name": self.version_name,
            "direction": self.direction,
            "port": self.label,
            "status": self.status,
            "proof": self.proof.to_dict(),
            "select_demands": [demand.to_dict() for demand in self.solver.demands],
            "select_conflicts": [c.to_dict() for c in self.solver.conflicts],
            "select_advisories": list(self.solver.advisories),
            "problems": self.problems(),
        }


@dataclass
class VersionCertificate:
    """Per-version bundle: one :class:`PathProof` per declared path.

    ``missing`` lists the version's coverage gaps as sorted
    ``(direction, port)`` pairs: a core input with no propagate path, or
    an output slice with no justify path.  A version with a gap is not
    proved.
    """

    core: str
    index: int
    name: str
    paths: List[PathProof]
    missing: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return not self.missing and all(path.proved for path in self.paths)

    def lookup(self) -> Dict[Tuple[str, Tuple], PathProof]:
        """(direction, path key) -> proof, for plan-route certification."""
        return {(p.direction, p.key): p for p in self.paths}

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "index": self.index,
            "name": self.name,
            "proved": self.proved,
            "paths": [path.to_dict() for path in self.paths],
            "missing": [
                {"direction": direction, "port": port} for direction, port in self.missing
            ],
        }


@dataclass
class RouteRecord:
    """One certified (or refuted) chip-level access route of a plan."""

    core: str
    kind: str  # "delivery" | "observation"
    port: str
    latency: int
    via_test_mux: bool
    status: str  # "pin" | "certified" | "refuted"
    problems: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "kind": self.kind,
            "port": self.port,
            "latency": self.latency,
            "via_test_mux": self.via_test_mux,
            "status": self.status,
            "problems": list(self.problems),
        }


@dataclass
class Certificate:
    """The full chip-level analysis result for one system + selection."""

    system: str
    selection: Dict[str, int]
    versions: List[VersionCertificate]
    routes: List[RouteRecord]
    plan_error: Optional[str] = None
    test_muxes: List[str] = field(default_factory=list)
    replays: Optional[List[Dict[str, object]]] = None

    def iter_paths(self) -> List[PathProof]:
        found: List[PathProof] = []
        for version in self.versions:
            found.extend(version.paths)
        return found

    def summary(self) -> Dict[str, int]:
        paths = self.iter_paths()
        return {
            "versions": len(self.versions),
            "paths": len(paths),
            "proved": sum(1 for p in paths if p.proved),
            "refuted": sum(1 for p in paths if not p.proved),
            "routes": len(self.routes),
            "routes_refuted": sum(1 for r in self.routes if r.status == "refuted"),
        }

    @property
    def certified(self) -> bool:
        """Selected versions all proved and every planned route certified."""
        for version in self.versions:
            if self.selection.get(version.core) == version.index and not version.proved:
                return False
        if self.plan_error is not None:
            return False
        return all(route.status != "refuted" for route in self.routes)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": CERTIFICATE_KIND,
            "schema": CERTIFICATE_SCHEMA_VERSION,
            "system": self.system,
            "selection": {name: self.selection[name] for name in sorted(self.selection)},
            "certified": self.certified,
            "summary": self.summary(),
            "versions": [version.to_dict() for version in self.versions],
            "routes": [route.to_dict() for route in self.routes],
            "plan_error": self.plan_error,
            "test_muxes": list(self.test_muxes),
        }
        if self.replays is not None:
            payload["replays"] = self.replays
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def diagnostics(self, escalate: bool = False) -> List[Diagnostic]:
        """Render the certificate as lint diagnostics (see rules_analysis).

        Coverage gaps are ``trans.input-propagation`` and
        ``trans.output-justification`` ERRORs; a path whose proof derives
        another latency than it declares is a ``trans.latency-overrun``
        WARNING; refutations are ``analysis.*`` WARNINGs.
        ``escalate=True`` (the ``repro certify`` CLI) reports refutations
        that poison the *selected* configuration -- a refuted path in a
        selected version, a refuted route, a failed plan -- as ERROR.
        """
        found: List[Diagnostic] = []
        for version in self.versions:
            for direction, port in version.missing:
                rule, kind = (
                    ("trans.input-propagation", "input") if direction == "propagate"
                    else ("trans.output-justification", "output slice")
                )
                found.append(
                    Diagnostic(
                        rule=rule,
                        severity=Severity.ERROR,
                        location=path_location(self.system, version.core, version.index, port),
                        message=(
                            f"{kind} {port} has no {direction} path in "
                            f"{version.name} of {version.core}"
                        ),
                        hint=(
                            "regenerate the version with "
                            "repro.transparency.generate_versions (Core.from_circuit "
                            "runs it), or add a transparency mux"
                        ),
                    )
                )
        for proof in self.iter_paths():
            if proof.proved and not proof.solver.advisories:
                continue
            where = path_location(self.system, proof.core, proof.version_index, proof.label)
            selected = self.selection.get(proof.core) == proof.version_index
            if proof.latency_overrun:
                found.append(
                    Diagnostic(
                        rule="trans.latency-overrun",
                        severity=Severity.WARNING,
                        location=where,
                        message=(
                            f"{proof.direction} path for {proof.label} declares latency "
                            f"{proof.proof.claimed_latency} but its proof derives "
                            f"{proof.proof.derived_latency}"
                        ),
                        hint="recompute the path latency; the TAT model relies on it",
                    )
                )
            if not proof.proved:
                conflict = bool(proof.solver.conflicts or proof.solver.structural)
                rule = "analysis.mux-conflict" if conflict else "analysis.slice-provenance"
                reasons = proof.problems()
                found.append(
                    Diagnostic(
                        rule=rule,
                        severity=Severity.ERROR if escalate and selected else Severity.WARNING,
                        location=where,
                        message=(
                            f"{proof.direction} path for {proof.label} is refuted: "
                            + "; ".join(reasons[:3])
                            + ("; ..." if len(reasons) > 3 else "")
                        ),
                        hint=(
                            "the declared transparency mode cannot transport this "
                            "slice; regenerate the version with "
                            "repro.transparency.generate_versions (Core.from_circuit "
                            "does this) or select a different version"
                        ),
                    )
                )
            for advisory in proof.solver.advisories:
                found.append(
                    Diagnostic(
                        rule="analysis.select-sharing",
                        severity=Severity.INFO,
                        location=where,
                        message=(
                            f"{proof.direction} path for {proof.label} drives a "
                            f"shared select net both ways: {advisory}"
                        ),
                        hint=(
                            "realizable in test mode (per-mux tsel overrides "
                            "decouple the shared net) but costs one extra select "
                            "override mux"
                        ),
                    )
                )
        if self.plan_error is not None:
            found.append(
                Diagnostic(
                    rule="analysis.access-route",
                    severity=Severity.ERROR if escalate else Severity.WARNING,
                    location=location(self.system),
                    message=f"no test plan exists for this selection: {self.plan_error}",
                    hint="fix the planning failure before trusting TAT/area numbers",
                )
            )
        for route in self.routes:
            if route.status == "refuted":
                found.append(
                    Diagnostic(
                        rule="analysis.access-route",
                        severity=Severity.ERROR if escalate else Severity.WARNING,
                        location=path_location(
                            self.system, route.core,
                            self.selection.get(route.core, 0), route.port,
                        ),
                        message=(
                            f"{route.kind} route for {route.core}.{route.port} leans "
                            f"on unproved transparency: " + "; ".join(route.problems[:3])
                        ),
                        hint=(
                            "the plan counts cycles through a path the certifier "
                            "refuted; regenerate versions or change the selection"
                        ),
                    )
                )
        return found


# ----------------------------------------------------------------------
def certify_version(
    circuit, version, hscan, core_name: Optional[str] = None
) -> VersionCertificate:
    """Prove (or refute) every declared path of one transparency version.

    Proofs admit only arcs re-extracted from ``circuit`` and the core's
    ``hscan`` plan (:func:`fresh_known_arcs`), never the version's
    recorded RCG.  Coverage is judged on the same circuit: every input
    of its RCG needs a propagate path and every output slice a justify
    path.
    """
    core_name = core_name or version.core
    known_arcs = fresh_known_arcs(circuit, version, hscan)
    rcg = RCG.from_circuit(circuit, hscan)
    missing = sorted(
        [
            ("justify", str(piece))
            for output in rcg.output_names()
            for piece in rcg.output_slices(output)
            if (piece.comp, piece.lo, piece.width) not in version.justify_paths
        ]
        + [
            ("propagate", name)
            for name in rcg.input_names()
            if name not in version.propagate_paths
        ]
    )
    proofs: List[PathProof] = []

    def examine(direction: str, key: Tuple, path) -> None:
        structure: List[str] = []
        if path.direction != direction:
            structure.append(
                f"stored in the {direction} table but declares direction "
                f"{path.direction!r}"
            )
        if direction == "justify":
            declared_root = Slice(key[0], key[1], key[2])
            if path.root != declared_root:
                structure.append(
                    f"keyed as {declared_root} but the path root is {path.root}"
                )
        elif path.root.comp != key[0]:
            structure.append(
                f"keyed as input {key[0]!r} but the path root is {path.root}"
            )
        tree_arcs = frozenset(arc.key() for arc in path.tree.walk_arcs())
        if frozenset(path.arcs_used) != tree_arcs:
            structure.append(
                "declared resource set (arcs_used) disagrees with the path tree"
            )
        if sorted(map(str, path.terminals)) != sorted(map(str, path.tree.walk_terminals())):
            structure.append(
                "declared terminal list disagrees with the path tree's leaves"
            )
        proofs.append(
            PathProof(
                core=core_name,
                version_index=version.index,
                version_name=version.name,
                direction=direction,
                key=key,
                proof=prove_path(circuit, path, known_arcs=known_arcs),
                solver=check_path_selects(circuit, path),
                structure_problems=structure,
            )
        )

    for key in sorted(version.justify_paths):
        examine("justify", key, version.justify_paths[key])
    for port in sorted(version.propagate_paths):
        examine("propagate", (port,), version.propagate_paths[port])

    certificate = VersionCertificate(
        core=core_name, index=version.index, name=version.name, paths=proofs,
        missing=missing,
    )
    METRICS.counter("analysis.paths.proved").inc(sum(1 for p in proofs if p.proved))
    METRICS.counter("analysis.paths.refuted").inc(sum(1 for p in proofs if not p.proved))
    METRICS.counter("analysis.mux.conflicts").inc(
        sum(len(p.solver.conflicts) for p in proofs)
    )
    return certificate


def certify_plan(plan, versions: List[VersionCertificate]) -> List[RouteRecord]:
    """Certify every access route of a built plan against path proofs.

    A usage key ``(core, "justify", (out, lo, width))`` or
    ``(core, "propagate", port)`` is certified when the selected
    version of that core carries a *proved* path under exactly that
    key -- composition across the interconnect is then sound because
    the planner already matched slice widths net by net.
    """
    lookups: Dict[Tuple[str, int], Dict[Tuple[str, Tuple], PathProof]] = {
        (version.core, version.index): version.lookup() for version in versions
    }

    def usage_problems(usages) -> List[str]:
        problems: List[str] = []
        for used_core, direction, used_key in sorted(usages):
            spot = (used_core, plan.selection.get(used_core, 0))
            table = lookups.get(spot, {})
            key = used_key if direction == "justify" else (used_key,)
            proof = table.get((direction, key))
            if proof is None:
                problems.append(
                    f"plan uses {direction} of {used_core} port "
                    f"{key[0]} but the selected version declares no such path"
                )
            elif not proof.proved:
                problems.append(
                    f"{direction} path of {used_core} for {proof.label} is refuted: "
                    + "; ".join(proof.problems()[:2])
                )
        return problems

    routes: List[RouteRecord] = []
    for core_name in sorted(plan.core_plans):
        core_plan = plan.core_plans[core_name]
        for delivery in sorted(
            core_plan.deliveries, key=lambda d: (d.port, d.latency)
        ):
            problems = usage_problems(delivery.usages)
            if delivery.via_test_mux or (not delivery.usages and delivery.latency == 0):
                status = "pin"
            else:
                status = "refuted" if problems else "certified"
            routes.append(
                RouteRecord(
                    core=core_name,
                    kind="delivery",
                    port=delivery.port,
                    latency=delivery.latency,
                    via_test_mux=delivery.via_test_mux,
                    status=status,
                    problems=problems,
                )
            )
        for observation in sorted(
            core_plan.observations, key=lambda o: (o.port, o.lo, o.width, o.latency)
        ):
            problems = usage_problems(observation.usages)
            if observation.via_test_mux or (
                not observation.usages and observation.latency == 0
            ):
                status = "pin"
            else:
                status = "refuted" if problems else "certified"
            routes.append(
                RouteRecord(
                    core=core_name,
                    kind="observation",
                    port=str(Slice(observation.port, observation.lo, observation.width)),
                    latency=observation.latency,
                    via_test_mux=observation.via_test_mux,
                    status=status,
                    problems=problems,
                )
            )
    refuted = sum(1 for route in routes if route.status == "refuted")
    METRICS.counter("analysis.routes.certified").inc(len(routes) - refuted)
    METRICS.counter("analysis.routes.refuted").inc(refuted)
    return routes


def certify_versions(soc) -> List[VersionCertificate]:
    """Certify every version of every testable core, cores in name order."""
    return [
        certify_version(core.circuit, version, core.hscan, core_name=core.name)
        for core in sorted(soc.testable_cores(), key=lambda c: c.name)
        for version in core.versions
    ]


def certify_soc(soc, selection: Optional[Dict[str, int]] = None) -> Certificate:
    """Certify every version of every testable core, then the plan's routes."""
    with profile_section("analysis.certify"):
        if selection is None:
            selection = {core.name: 0 for core in soc.testable_cores()}
        versions = certify_versions(soc)
        routes: List[RouteRecord] = []
        plan_error: Optional[str] = None
        test_muxes: List[str] = []
        try:
            from repro.soc.plan import plan_soc_test

            plan = plan_soc_test(soc, selection=dict(selection))
        except ReproError as error:
            plan_error = str(error)
        else:
            routes = certify_plan(plan, versions)
            test_muxes = sorted(str(mux) for mux in plan.test_muxes)

        result = Certificate(
            system=soc.name,
            selection=dict(selection),
            versions=versions,
            routes=routes,
            plan_error=plan_error,
            test_muxes=test_muxes,
        )
        METRICS.counter("analysis.certificates").inc()
    return result
