"""Golden search-effort artifact of a quick System1 pipeline run.

The artifact records, per PODEM call, the decisions, backtracks,
implication passes, and restarts, reconciled exactly against the
``atpg.podem.*`` counters -- so a byte-identical regeneration proves the
ATPG engine made the same decisions as when the fixture was written.

A change that alters decisions *on purpose* (a new backtrace heuristic,
a different fault order) regenerates the fixture with::

    PYTHONPATH=src python -c "import sys; \\
    from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline; \\
    from repro.obs.attrib import artifact_json; \\
    sys.stdout.write(artifact_json(run_pipeline('System1', \\
        max_faults=QUICK_MAX_FAULTS)['attrib']))" \\
        > tests/fixtures/attrib-System1-quick.json

and records the regeneration, and why, in CHANGES.md.
"""

from pathlib import Path

from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline
from repro.obs.attrib import artifact_json

FIXTURE = Path(__file__).parent / "fixtures" / "attrib-System1-quick.json"


def test_system1_quick_artifact_is_byte_identical():
    record = run_pipeline("System1", max_faults=QUICK_MAX_FAULTS)
    assert artifact_json(record["attrib"]) == FIXTURE.read_text()
