"""Search-effort attribution: overhead and hard-fault stability.

Attribution must be *always-on-cheap*: every hook early-returns on one
attribute check when collection is off, so leaving the hooks compiled
into the hot paths may not tax an uninstrumented run.  This bench holds
that claim to the schedule workload (the same one ``bench_schedule``
gates) with a two-part trip condition -- deep-mode timings are
only a regression when the median ratio exceeds 1.02x *and* a one-sided
Mann-Whitney test on the raw samples is significant -- so timing noise
on an unchanged pipeline cannot trip it, but a hook that grew real work
on the off path will.

The second half pins the artifact itself: ``repro explain`` on System1
must produce a byte-identical artifact when re-run at the same seed,
and the top-10 hardest-fault table is recorded per seed (0, 1, 2) so
the difficulty ranking's trajectory is diffable across PRs.
"""

from __future__ import annotations

import statistics
import time

from bench_schedule import schedule_all
from conftest import write_bench_json, write_result

from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline
from repro.obs import METRICS
from repro.obs.attrib import ATTRIB
from repro.obs.regress import mann_whitney_p
from repro.util import render_table

#: per-arm timing rounds; 5v5 gives the rank test room to be significant
ROUNDS = 5
#: the trip condition needs both a ratio above this threshold and rank-test
#: significance; the threshold is tight because attribution overhead is a
#: design promise (<= 2%), not a noise band
MAX_OVERHEAD_RATIO = 1.02
ALPHA = 0.05
SEEDS = (0, 1, 2)


def _timed_arm(mode, systems):
    """ROUNDS wall-time samples of the schedule workload under ``mode``."""
    ATTRIB.configure(mode)
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        schedule_all(systems)
        samples.append(time.perf_counter() - start)
    return samples


def _hard_fault_tables():
    """Per-seed top-10 hardest faults, each seed proved byte-stable."""
    tables = {}
    for seed in SEEDS:
        report = run_pipeline(
            "System1", seed=seed, max_faults=QUICK_MAX_FAULTS
        )
        rerun = run_pipeline(
            "System1", seed=seed, max_faults=QUICK_MAX_FAULTS
        )
        assert report.artifact_json() == rerun.artifact_json(), (
            f"seed {seed}: explain artifact is not byte-stable across runs"
        )
        tables[str(seed)] = [
            {"fault": entry["fault"], "effort": entry["effort"],
             "status": entry["status"]}
            for entry in report.artifact["planes"]["atpg"]["hard_faults"]
        ]
    return tables


def test_explain_overhead_and_stability(benchmark, all_systems, results_dir):
    # stability first: run_pipeline resets the registry, so it must not
    # run between METRICS.reset() and write_bench_json below
    hard_faults = _hard_fault_tables()

    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    schedule_all(all_systems)  # warm the plan caches for both arms equally
    try:
        off = benchmark.pedantic(
            _timed_arm, args=("off", all_systems), rounds=1, iterations=1
        )
        deep = _timed_arm("deep", all_systems)
    finally:
        ATTRIB.configure("off")
        ATTRIB.reset()

    ratio = statistics.median(deep) / statistics.median(off)
    p_value = mann_whitney_p(deep, off)
    tripped = p_value < ALPHA and ratio > MAX_OVERHEAD_RATIO
    overhead = {
        "alpha": ALPHA,
        "deep_median_s": statistics.median(deep),
        "deep_over_off": round(ratio, 4),
        "mann_whitney_p": round(p_value, 4),
        "max_ratio": MAX_OVERHEAD_RATIO,
        "off_median_s": statistics.median(off),
        "rounds": ROUNDS,
        "tripped": tripped,
    }
    write_bench_json(
        results_dir, "explain", benchmark,
        {"hard_faults": hard_faults, "overhead": overhead},
    )

    rows = [
        [seed, row["fault"], row["effort"], row["status"]]
        for seed in sorted(hard_faults)
        for row in hard_faults[seed][:3]
    ]
    text = render_table(
        ["seed", "hardest faults (top 3)", "effort", "status"], rows,
        title=(
            f"Attribution overhead deep/off = {ratio:.3f}x "
            f"(p={p_value:.3f}, trip at >{MAX_OVERHEAD_RATIO}x)"
        ),
    )
    write_result(results_dir, "explain", text)

    # the always-on-cheap promise: attribution may not tax the gated
    # schedule path even in deep mode, let alone with collection off
    assert not tripped, (
        f"attribution overhead {ratio:.3f}x (p={p_value:.3f}) exceeds "
        f"{MAX_OVERHEAD_RATIO}x on the schedule workload"
    )
    # every seed's table is ranked by descending effort; fewer than 10
    # rows just means fewer than 10 faults needed explicit PODEM targeting
    for seed, table in sorted(hard_faults.items()):
        efforts = [row["effort"] for row in table]
        assert efforts == sorted(efforts, reverse=True), seed
        assert 1 <= len(table) <= 10, seed
