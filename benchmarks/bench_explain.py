"""Search-effort attribution: hard-fault stability.

The search-effort artifact a pipeline run's record carries (its
``attrib`` field, written by ``repro profile --ledger``) is a pure
function of the run's own results (each ATPG outcome's PODEM results
and the optimizer's moves), so there is no collector to switch and no
overhead arm to time: recording is always on, and its cost is part of
every end-to-end measurement of the run.  This bench pins the artifact
itself: System1's quick artifact must be byte-identical when re-run at
the same seed, and the top-10 hardest-fault table is recorded per seed
(0, 1, 2) so the difficulty ranking's trajectory is diffable across
changes.  The ledger record carries the summed counters of the six
pipeline runs.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline
from repro.obs.attrib import artifact_json
from repro.util import render_table

SEEDS = (0, 1, 2)


def _hard_fault_tables():
    """Per-seed top-10 hardest faults, each seed proved byte-stable;
    returns the tables and the pipeline runs' records."""
    tables, runs = {}, []
    for seed in SEEDS:
        record = run_pipeline("System1", seed=seed, max_faults=QUICK_MAX_FAULTS)
        rerun = run_pipeline("System1", seed=seed, max_faults=QUICK_MAX_FAULTS)
        runs += [record, rerun]
        artifact = record["attrib"]
        assert artifact_json(artifact) == artifact_json(rerun["attrib"]), (
            f"seed {seed}: attribution artifact is not byte-stable across runs"
        )
        tables[str(seed)] = [
            {"fault": entry["fault"], "effort": entry["effort"],
             "status": entry["status"]}
            for entry in artifact["planes"]["atpg"]["hard_faults"]
        ]
    return tables, runs


def test_explain_stability(benchmark, results_dir):
    hard_faults, runs = benchmark.pedantic(_hard_fault_tables, rounds=1, iterations=1)
    record_bench(results_dir, "explain", benchmark, {"hard_faults": hard_faults}, runs=runs)

    rows = [
        [seed, row["fault"], row["effort"], row["status"]]
        for seed in sorted(hard_faults)
        for row in hard_faults[seed][:3]
    ]
    text = render_table(
        ["seed", "hardest faults (top 3)", "effort", "status"], rows,
        title="Hardest faults of System1's quick runs (byte-stable per seed)",
    )
    write_result(results_dir, "explain", text)

    # every seed's table is ranked by descending effort; fewer than 10
    # rows just means fewer than 10 faults needed explicit PODEM targeting
    for seed, table in sorted(hard_faults.items()):
        efforts = [row["effort"] for row in table]
        assert efforts == sorted(efforts, reverse=True), seed
        assert 1 <= len(table) <= 10, seed
