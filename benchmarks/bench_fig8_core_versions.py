"""Figure 8: PREPROCESSOR and DISPLAY version trade-offs.

Paper's tables:

    PREPROCESSOR (NUM->DB, NUM->A):      V1 5/2 @2,  V2 1/2 @19,  V3 1/1 @37
    DISPLAY (D->OUT, A->OUT):            V1 2/3 @5,  V2 2/1 @20,  V3 1/1 @55

Our PREPROCESSOR reproduces the latency ladder exactly.  The DISPLAY's
Version 1 matches (D->OUT = 2, A->OUT = 3); its later versions improve
the justification side first (our reconstruction lacks the original's
direct address-display path), so the propagate ladder diverges after V1
-- recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.designs import build_display, build_preprocessor
from repro.dft import insert_hscan
from repro.transparency import generate_versions
from repro.util import render_table

PRE_PAPER = {"Version 1": (5, 2), "Version 2": (1, 2), "Version 3": (1, 1)}
DISPLAY_PAPER = {"Version 1": (2, 3), "Version 2": (2, 1), "Version 3": (1, 1)}


def generate_both():
    results = {}
    for builder in (build_preprocessor, build_display):
        circuit = builder()
        results[circuit.name] = generate_versions(circuit, insert_hscan(circuit))
    return results


def _address_latency(version) -> int:
    return max(p.latency for k, p in version.justify_paths.items() if k[0] == "Address")


def test_fig8_core_version_tradeoffs(benchmark, results_dir):
    from repro.obs import METRICS

    METRICS.reset()  # the record carries exactly the measured runs' counters
    results = benchmark.pedantic(generate_both, rounds=3, iterations=1)
    record_bench(
        results_dir,
        "fig8_core_versions",
        benchmark,
        {
            "PREPROCESSOR": {
                "cells": [v.extra_cells for v in results["PREPROCESSOR"]],
                "latencies": [
                    [v.justify_latency("DB", 0, 8), _address_latency(v)]
                    for v in results["PREPROCESSOR"]
                ],
            },
            "DISPLAY": {
                "cells": [v.extra_cells for v in results["DISPLAY"]],
                "latencies": [
                    [v.propagate_paths["D"].latency, v.propagate_paths["A"].latency]
                    for v in results["DISPLAY"]
                ],
                "justify_latencies": [
                    {key[0]: path.latency for key, path in sorted(v.justify_paths.items())}
                    for v in results["DISPLAY"]
                ],
            },
        },
    )

    rows = []
    for version in results["PREPROCESSOR"]:
        db = version.justify_latency("DB", 0, 8)
        address = _address_latency(version)
        paper = PRE_PAPER[version.name]
        rows.append(["PREPROCESSOR", version.name, f"NUM->DB={db}", f"NUM->A={address}",
                     version.extra_cells, f"{paper[0]}/{paper[1]}"])
        assert (db, address) == paper, version.name

    for version in results["DISPLAY"]:
        d_out = version.propagate_paths["D"].latency
        a_out = version.propagate_paths["A"].latency
        paper = DISPLAY_PAPER[version.name]
        rows.append(["DISPLAY", version.name, f"D->OUT={d_out}", f"A->OUT={a_out}",
                     version.extra_cells, f"{paper[0]}/{paper[1]}"])
    # the DISPLAY's Version 1 must match the paper exactly
    v1 = results["DISPLAY"][0]
    assert v1.propagate_paths["D"].latency == 2
    assert v1.propagate_paths["A"].latency == 3
    # costs must grow along each ladder
    for name in ("PREPROCESSOR", "DISPLAY"):
        cells = [v.extra_cells for v in results[name]]
        assert cells == sorted(cells)

    text = render_table(
        ["Core", "Version", "Latency 1", "Latency 2", "Ovhd(cells)", "paper latencies"],
        rows,
        title="Figure 8: PREPROCESSOR and DISPLAY transparency trade-offs",
    )
    write_result(results_dir, "fig8_core_versions", text)
