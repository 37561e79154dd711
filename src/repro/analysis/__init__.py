"""Symbolic static analysis: transparency proofs and access certificates.

This package is the one transparency checker.  It proves, at the
bit-slice level, that every input of a core version propagates and
every output slice justifies within the declared latency, and packages
the result as a machine-checkable artifact; the lint layer's
``trans.*`` and ``analysis.*`` rules report its verdicts:

``provenance``
    slice-provenance dataflow over path trees -- which terminal bits
    provably reach which root bits, at what latency
    (:func:`prove_path`).
``muxsat``
    unit-propagation consistency of the ``mux_path`` select demands
    along a path (:func:`check_path_selects`); same-mux double-leg
    demands are hard refutations, shared-select-net disagreements are
    advisories.
``certify``
    per-version proofs and coverage gaps, and chip-level composition,
    into a stable JSON :class:`Certificate` (:func:`certify_soc`).
``differential``
    the identity anchor: replay every proved path on the gate-level
    simulator (:func:`replay_soc`) -- "proved" must mean "transports".
``schema``
    structural validation of emitted certificate JSON (CI).

Everything here is deterministic by construction: iteration is over
sorted sequences only (codestyle rule DET004), so certificates are
byte-stable across runs and machines.
"""

from repro.analysis.certify import (
    CERTIFICATE_KIND,
    CERTIFICATE_SCHEMA_VERSION,
    Certificate,
    PathProof,
    RouteRecord,
    VersionCertificate,
    certify_plan,
    certify_soc,
    certify_version,
    certify_versions,
    fresh_known_arcs,
    path_location,
)
from repro.analysis.differential import (
    ReplayResult,
    replay_path,
    replay_refutes,
    replay_soc,
)
from repro.analysis.muxsat import (
    SelectConflict,
    SelectDemand,
    SelectSolver,
    check_path_selects,
)
from repro.analysis.provenance import ProvenanceSegment, SliceProof, prove_path

# NOTE: repro.analysis.schema is intentionally not imported here -- it
# runs as ``python -m repro.analysis.schema`` in CI, and importing it
# from the package __init__ would trip the double-import RuntimeWarning.

__all__ = [
    "CERTIFICATE_KIND",
    "CERTIFICATE_SCHEMA_VERSION",
    "Certificate",
    "PathProof",
    "ProvenanceSegment",
    "ReplayResult",
    "RouteRecord",
    "SelectConflict",
    "SelectDemand",
    "SelectSolver",
    "SliceProof",
    "VersionCertificate",
    "certify_plan",
    "certify_soc",
    "certify_version",
    "certify_versions",
    "check_path_selects",
    "fresh_known_arcs",
    "path_location",
    "prove_path",
    "replay_path",
    "replay_refutes",
    "replay_soc",
]
