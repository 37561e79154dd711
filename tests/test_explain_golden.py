"""Golden ``repro explain System1 --quick`` artifact.

The artifact records, per PODEM call, the decisions, backtracks,
implication passes, and restarts, reconciled exactly against the
``atpg.podem.*`` counters -- so a byte-identical regeneration proves the
ATPG engine made the same decisions as when the fixture was written.

A change that alters decisions *on purpose* (a new backtrace heuristic,
a different fault order) regenerates the fixture with::

    PYTHONPATH=src python -m repro explain System1 --quick \\
        > tests/fixtures/attrib-System1-quick.json

and records the regeneration, and why, in CHANGES.md.
"""

from pathlib import Path

from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline
from repro.obs.attrib import ATTRIB

FIXTURE = Path(__file__).parent / "fixtures" / "attrib-System1-quick.json"


def test_system1_quick_artifact_is_byte_identical():
    try:
        report = run_pipeline("System1", max_faults=QUICK_MAX_FAULTS)
    finally:
        ATTRIB.reset()
    assert report.artifact_json() == FIXTURE.read_text()
