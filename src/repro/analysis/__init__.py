"""Symbolic static analysis: transparency proofs and access certificates.

This package is the one transparency checker.  It proves, at the
bit-slice level, that every input of a core version propagates and
every output slice justifies within the declared latency, and packages
the result as a machine-checkable artifact, the certificate.  The
certificate is the one verdict; everything else reads it: the lint
layer's ``trans.*`` and ``analysis.*`` rules and ``repro certify``
report its findings, each at the severity the lint rule table declares,
and the gate-level replay replays the paths it proved.

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
    per-version proofs and coverage gaps (each core's RCG extracted
    once, :func:`certify_core`), and chip-level composition, into a
    stable JSON :class:`Certificate` (:func:`certify_soc`) whose shape
    is ``CERTIFICATE_SHAPE`` (``repro validate`` checks it) and whose
    :meth:`~Certificate.findings` are severity-free records.
``differential``
    the identity anchor: replay every path a certificate proved on the
    gate-level simulator, against the certificate's own segment map
    (:func:`replay_soc`) -- "proved" must mean "transports".

Everything here is deterministic by construction: iteration is over
sorted sequences only (codestyle rule DET004), so certificates are
byte-stable across runs and machines.
"""

from repro.analysis.certify import (
    CERTIFICATE_KIND,
    CERTIFICATE_SCHEMA_VERSION,
    Certificate,
    CertificateFinding,
    PathProof,
    RouteRecord,
    VersionCertificate,
    certify_core,
    certify_plan,
    certify_soc,
    certify_versions,
    path_location,
)
from repro.analysis.differential import (
    ReplayResult,
    replay_path,
    replay_soc,
)
from repro.analysis.muxsat import (
    SelectConflict,
    SelectDemand,
    SelectSolver,
    check_path_selects,
)
from repro.analysis.provenance import ProvenanceSegment, SliceProof, prove_path

__all__ = [
    "CERTIFICATE_KIND",
    "CERTIFICATE_SCHEMA_VERSION",
    "Certificate",
    "CertificateFinding",
    "PathProof",
    "ProvenanceSegment",
    "ReplayResult",
    "RouteRecord",
    "SelectConflict",
    "SelectDemand",
    "SelectSolver",
    "SliceProof",
    "VersionCertificate",
    "certify_core",
    "certify_plan",
    "certify_soc",
    "certify_versions",
    "check_path_selects",
    "path_location",
    "prove_path",
    "replay_path",
    "replay_soc",
]
