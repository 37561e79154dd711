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
artifact (``repro certify SYSTEM --json``) and the one transparency
verdict: the lint rules (``trans.*`` and ``analysis.*``) and ``repro
certify`` report its :meth:`Certificate.findings`, and the gate-level
replay (:func:`repro.analysis.replay_soc`) replays the paths it proved,
instead of trusting declared version metadata.

Determinism contract: every iteration in this module is over
explicitly sorted sequences, so the same design always serializes to
byte-identical JSON (enforced by codestyle rule DET004 and the
byte-stability tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.muxsat import SelectSolver, check_path_selects
from repro.analysis.provenance import SliceProof, prove_path
from repro.errors import ReproError
from repro.lint.diagnostics import location
from repro.obs import METRICS, profile_section
from repro.rtl.arcs import extract_arcs
from repro.rtl.types import Slice
from repro.transparency.rcg import RCG
from repro.transparency.search import TransparencyPath
from repro.util.schema import ANY, INTEGER, ListOf, Object, one_of

CERTIFICATE_SCHEMA_VERSION = 2
CERTIFICATE_KIND = "repro-certificate"

def _status_agrees_with_problems(path):
    """A proved path lists no problems; a refuted one lists at least one."""
    if path["status"] == "proved" and path["problems"]:
        yield ".problems", "must be empty on a proved path"
    if path["status"] == "refuted" and not path["problems"]:
        yield ".problems", "must not be empty on a refuted path"


def _proved_version_misses_nothing(version):
    """A proved version has no coverage gap."""
    if version["proved"] is True and version["missing"]:
        yield ".missing", "must be empty on a proved version"


def _summary_counts_what_is_listed(certificate):
    """The summary's path, proved and refuted-route counts match the lists."""
    paths = [path for version in certificate["versions"] for path in version["paths"]]
    listed = (
        ("paths", len(paths), "paths listed"),
        ("proved", sum(1 for path in paths if path["status"] == "proved"),
         "proved paths"),
        ("routes_refuted",
         sum(1 for route in certificate["routes"] if route["status"] == "refuted"),
         "refuted routes"),
    )
    for key, count, what in listed:
        if certificate["summary"][key] != count:
            yield f".summary.{key}", f"must be {count}, the number of {what}"


#: what :meth:`Certificate.to_dict` writes, checked by ``repro validate``
CERTIFICATE_SHAPE = Object(
    {
        "kind": one_of(CERTIFICATE_KIND),
        "schema": one_of(CERTIFICATE_SCHEMA_VERSION),
        "system": ANY,
        "selection": ANY,
        "certified": ANY,
        "summary": Object({
            key: INTEGER
            for key in ("versions", "paths", "proved", "refuted", "routes",
                        "routes_refuted")
        }),
        "versions": ListOf(Object(
            {
                "core": ANY, "index": ANY, "name": ANY, "proved": ANY,
                "paths": ListOf(Object(
                    {
                        "core": ANY, "version": ANY, "version_name": ANY,
                        "direction": ANY, "port": ANY,
                        "status": one_of("proved", "refuted"),
                        "proof": ANY, "select_demands": ANY,
                        "select_conflicts": ANY, "select_advisories": ANY,
                        "problems": ANY,
                    },
                    rules=(_status_agrees_with_problems,),
                )),
                "missing": ListOf(ANY),
            },
            rules=(_proved_version_misses_nothing,),
        )),
        "routes": ListOf(Object({
            "core": ANY, "kind": ANY, "port": ANY, "latency": ANY,
            "via_test_mux": ANY, "status": one_of("pin", "certified", "refuted"),
            "problems": ANY,
        })),
        "plan_error": ANY,
        "test_muxes": ANY,
    },
    rules=(_summary_counts_what_is_listed,),
)


def path_location(system: str, core: str, version_index: int, port: str) -> str:
    """``<system>/core:C/version:V/port:P``, V one-based as in ``repro certify``."""
    return location(system, ("core", core), ("version", version_index + 1), ("port", port))


def _rides_structure(arc, structural) -> bool:
    """``arc`` is an offset-aligned sub-slice of a structural arc on the
    same mux path: split scan units ride real wires."""
    return any(
        real.mux_path == arc.mux_path
        and real.source.comp == arc.source.comp
        and real.dest.comp == arc.dest.comp
        and real.source.lo <= arc.source.lo
        and arc.source.hi <= real.source.hi
        and real.dest.lo <= arc.dest.lo
        and arc.dest.hi <= real.dest.hi
        and arc.source.lo - real.source.lo == arc.dest.lo - real.dest.lo
        for real in structural
    )


@dataclass
class PathProof:
    """Everything the certifier established about one transparency path."""

    core: str
    version_index: int
    version_name: str
    direction: str
    key: Tuple  # justify: (output, lo, width); propagate: (input,)
    path: TransparencyPath
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


@dataclass(frozen=True)
class CertificateFinding:
    """One thing a certificate reports, without a severity.

    ``rule`` is the lint rule id it reports under; the lint rule table is
    the one place that rule's severity is declared.  ``refutes_selection``
    marks a refutation of the selected configuration -- a refuted path of
    a selected version, a refuted route, a failed plan -- which ``repro
    certify`` reports as an error.
    """

    rule: str
    location: str
    message: str
    hint: str
    refutes_selection: bool


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
        return [path for version in self.versions for path in version.paths]

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

    def findings(self) -> Iterator[CertificateFinding]:
        """Every finding, in one walk: coverage gaps, path verdicts, routes.

        Coverage gaps report under ``trans.input-propagation`` and
        ``trans.output-justification``; a path whose proof derives another
        latency than it declares under ``trans.latency-overrun``;
        refutations under ``analysis.*``.
        """
        for version in self.versions:
            for direction, port in version.missing:
                rule, kind = (
                    ("trans.input-propagation", "input") if direction == "propagate"
                    else ("trans.output-justification", "output slice")
                )
                yield CertificateFinding(
                    rule=rule,
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
                    refutes_selection=False,
                )
        for proof in self.iter_paths():
            if proof.proved and not proof.solver.advisories:
                continue
            where = path_location(self.system, proof.core, proof.version_index, proof.label)
            if proof.latency_overrun:
                yield CertificateFinding(
                    rule="trans.latency-overrun",
                    location=where,
                    message=(
                        f"{proof.direction} path for {proof.label} declares latency "
                        f"{proof.proof.claimed_latency} but its proof derives "
                        f"{proof.proof.derived_latency}"
                    ),
                    hint="recompute the path latency; the TAT model relies on it",
                    refutes_selection=False,
                )
            if not proof.proved:
                conflict = bool(proof.solver.conflicts or proof.solver.structural)
                reasons = proof.problems()
                yield CertificateFinding(
                    rule="analysis.mux-conflict" if conflict else "analysis.slice-provenance",
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
                    refutes_selection=self.selection.get(proof.core) == proof.version_index,
                )
            for advisory in proof.solver.advisories:
                yield CertificateFinding(
                    rule="analysis.select-sharing",
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
                    refutes_selection=False,
                )
        if self.plan_error is not None:
            yield CertificateFinding(
                rule="analysis.access-route",
                location=location(self.system),
                message=f"no test plan exists for this selection: {self.plan_error}",
                hint="fix the planning failure before trusting TAT/area numbers",
                refutes_selection=True,
            )
        for route in self.routes:
            if route.status == "refuted":
                yield CertificateFinding(
                    rule="analysis.access-route",
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
                    refutes_selection=True,
                )


# ----------------------------------------------------------------------
def _structure_problems(direction: str, key: Tuple, path) -> List[str]:
    """Where a stored path contradicts its table, its key or its own tree."""
    found: List[str] = []
    if path.direction != direction:
        found.append(
            f"stored in the {direction} table but declares direction "
            f"{path.direction!r}"
        )
    if direction == "justify":
        declared_root = Slice(key[0], key[1], key[2])
        if path.root != declared_root:
            found.append(f"keyed as {declared_root} but the path root is {path.root}")
    elif path.root.comp != key[0]:
        found.append(f"keyed as input {key[0]!r} but the path root is {path.root}")
    tree_arcs = frozenset(arc.key() for arc in path.tree.walk_arcs())
    if frozenset(path.arcs_used) != tree_arcs:
        found.append("declared resource set (arcs_used) disagrees with the path tree")
    if sorted(map(str, path.terminals)) != sorted(map(str, path.tree.walk_terminals())):
        found.append("declared terminal list disagrees with the path tree's leaves")
    return found


def certify_core(core) -> List[VersionCertificate]:
    """Prove (or refute) every declared path of every version of one core.

    The RCG stored on a :class:`~repro.transparency.versions.CoreVersion`
    was computed at generation time; if the shipped circuit has since
    diverged (a tampered or mis-packaged core), its declared arcs can be
    phantoms.  Proofs therefore admit only arcs backed by the circuit in
    hand, extracted once for all the core's versions:

    * structural arcs of the circuit's RCG with the core's HSCAN plan --
      an HSCAN-plan arc counts only as an offset-aligned sub-slice of a
      structural arc, since the plan is generation-time metadata and must
      not vouch for wiring the netlist no longer has;
    * each version's own added bypass muxes, which
      ``apply_transparency_path`` materializes, so they exist by
      construction.

    Coverage is judged on the same RCG: every input needs a propagate
    path and every output slice a justify path.
    """
    circuit = core.circuit
    structural = RCG.from_circuit(circuit, None).arcs
    # the plan's HSCAN flags over the circuit's arcs, not the plan's own copy
    rcg = RCG.from_circuit(circuit, replace(core.hscan, arcs=extract_arcs(circuit)))
    backed = {arc.key(): arc for arc in rcg.arcs if _rides_structure(arc, structural)}
    pieces = [piece for output in rcg.output_names() for piece in rcg.output_slices(output)]
    certificates: List[VersionCertificate] = []
    for version in core.versions:
        known_arcs = dict(backed)
        known_arcs.update((arc.key(), arc) for arc in version.added_muxes)
        missing = sorted(
            [
                ("justify", str(piece))
                for piece in pieces
                if (piece.comp, piece.lo, piece.width) not in version.justify_paths
            ]
            + [
                ("propagate", name)
                for name in rcg.input_names()
                if name not in version.propagate_paths
            ]
        )
        declared = [
            ("justify", key, version.justify_paths[key])
            for key in sorted(version.justify_paths)
        ] + [
            ("propagate", (port,), version.propagate_paths[port])
            for port in sorted(version.propagate_paths)
        ]
        proofs = [
            PathProof(
                core=core.name,
                version_index=version.index,
                version_name=version.name,
                direction=direction,
                key=key,
                path=path,
                proof=prove_path(circuit, path, known_arcs=known_arcs),
                solver=check_path_selects(circuit, path),
                structure_problems=_structure_problems(direction, key, path),
            )
            for direction, key, path in declared
        ]
        certificates.append(VersionCertificate(
            core=core.name, index=version.index, name=version.name, paths=proofs,
            missing=missing,
        ))
    paths = [path for certificate in certificates for path in certificate.paths]
    METRICS.counter("analysis.paths.proved").inc(sum(1 for p in paths if p.proved))
    METRICS.counter("analysis.paths.refuted").inc(sum(1 for p in paths if not p.proved))
    METRICS.counter("analysis.mux.conflicts").inc(
        sum(len(p.solver.conflicts) for p in paths)
    )
    return certificates


def certify_plan(plan, versions: List[VersionCertificate]) -> List[RouteRecord]:
    """Certify every access route of a built plan against path proofs.

    A usage key ``(core, "justify", (out, lo, width))`` or
    ``(core, "propagate", port)`` is certified when the selected
    version of that core carries a *proved* path under exactly that
    key -- composition across the interconnect is then sound because
    the planner already matched slice widths net by net.
    """
    lookups: Dict[Tuple[str, int], Dict[Tuple[str, Tuple], PathProof]] = {
        (version.core, version.index): {(p.direction, p.key): p for p in version.paths}
        for version in versions
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
        accesses = [
            ("delivery", delivery.port, delivery)
            for delivery in sorted(core_plan.deliveries, key=lambda d: (d.port, d.latency))
        ] + [
            ("observation", str(Slice(observation.port, observation.lo, observation.width)),
             observation)
            for observation in sorted(
                core_plan.observations, key=lambda o: (o.port, o.lo, o.width, o.latency)
            )
        ]
        for kind, port, access in accesses:
            problems = usage_problems(access.usages)
            if access.via_test_mux or (not access.usages and access.latency == 0):
                status = "pin"
            else:
                status = "refuted" if problems else "certified"
            routes.append(RouteRecord(
                core=core_name, kind=kind, port=port, latency=access.latency,
                via_test_mux=access.via_test_mux, status=status, problems=problems,
            ))
    refuted = sum(1 for route in routes if route.status == "refuted")
    METRICS.counter("analysis.routes.certified").inc(len(routes) - refuted)
    METRICS.counter("analysis.routes.refuted").inc(refuted)
    return routes


def certify_versions(soc) -> List[VersionCertificate]:
    """Certify every version of every testable core, cores in name order."""
    return [
        certificate
        for core in sorted(soc.testable_cores(), key=lambda c: c.name)
        for certificate in certify_core(core)
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
