"""The measured numbers quoted in EXPERIMENTS.md and README.md are the benches'.

Each claim below is a sentence fragment of a document with its measured
numbers written as fields of the ``results`` payloads of the benches'
newest records in ``benchmarks/results/ledger.jsonl``.  The test renders
every claim from those payloads and requires it verbatim (up to line
wrapping) in the document, so a bench whose output moves makes the stale
prose fail here.
Paper numbers are literal text.  Wall times are not reproducible across
hosts, so no claim renders one.
"""

import re
from pathlib import Path

import pytest

from repro.obs.ledger import RunLedger

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

BENCHES = {
    "f6": "fig6_cpu_versions",
    "f8": "fig8_core_versions",
    "s3": "sec3_display_example",
    "f10": "fig10_design_space",
    "t1": "table1_design_points",
    "t2": "table2_area_overheads",
    "t3": "table3_testability",
    "s5": "sec5_iterative_improvement",
    "ab": "ablation_reservations",
    "ic": "interconnect",
    "mb": "march_bist",
}


def _results():
    ledger = RunLedger(RESULTS / "ledger.jsonl")
    fields = {key: ledger.latest(name)["results"] for key, name in BENCHES.items()}
    t1, t2, t3 = fields["t1"], fields["t2"], fields["t3"]
    display = fields["f8"]["DISPLAY"]["justify_latencies"]
    totals = [
        t2[system]["fscan_bscan_total_percent"] / total
        for system in ("System1", "System2")
        for total in t2[system]["socet_total_percent"]
    ]
    sweeps = []
    for system in ("System1", "System2"):
        # format fields read a digit key as an int
        sweep = {int(limit): row for limit, row in t3[system]["backtrack_limits"].items()}
        t3[system]["backtrack_limits"] = sweep
        sweeps.append(sweep)
    backtracks = [sweep[600]["backtracks"] / sweep[150]["backtracks"] for sweep in sweeps]
    bist = fields["mb"]["system1_bist"]["cycles"]
    c_minus = fields["mb"]["March C-"]
    # numbers the prose derives from the results (ratios, differences);
    # a derived claim that no longer holds renders as a phrase the
    # document does not contain
    fields["d"] = {
        "e2_ports": (
            f"{display[0]['PORT5']} → {display[1]['PORT5']}"
            if (display[0]["PORT5"], display[1]["PORT5"])
            == (display[1]["PORT6"], display[2]["PORT6"])
            else "PORT5 and PORT6 differ"
        ),
        "e4_ratio": t1["min_area"]["tat"] / t1["min_tat"]["tat"],
        "e5_saving": t1["min_latency"]["cells"] - t1["min_tat"]["cells"],
        "e6_low": min(totals),
        "e6_high": max(totals),
        "e7_area": t3["System1"]["FSCAN-BSCAN"]["tat"] / t3["System1"]["SOCET Min. Area"]["tat"],
        "e7_tapp": t3["System1"]["FSCAN-BSCAN"]["tat"] / t3["System1"]["SOCET Min. TApp."]["tat"],
        "e7_gap": (
            "60+"
            if t3["System1"]["FSCAN-BSCAN"]["fc"]
            - max(t3["System1"]["Orig."]["fc"], t3["System1"]["HSCAN"]["fc"]) >= 60
            else "fewer than 60"
        ),
        "e7_teff_low": min(t3[s]["FSCAN-BSCAN"]["teff"] for s in ("System1", "System2")),
        "e7_teff_high": max(t3[s]["FSCAN-BSCAN"]["teff"] for s in ("System1", "System2")),
        "e7_bt_low": min(backtracks),
        "e7_bt_high": max(backtracks),
        "e11_both": (
            fields["ic"]["System1"]["socet_coverage_percent"]
            if fields["ic"]["System1"]["socet_coverage_percent"]
            == fields["ic"]["System2"]["socet_coverage_percent"]
            else -1.0
        ),
        "e12_bist": f"{len(bist)} × {max(bist.values()):,}" if len(set(bist.values())) == 1
        else "memories differ",
        "e12_c_minus": 100 * min(
            c_minus["stuck_detected"] / c_minus["stuck_total"],
            c_minus["coupling_detected"] / c_minus["coupling_total"],
        ),
    }
    return fields


def _e7_row(label, configuration, paper1, paper2, tat=False):
    def cell(system, paper):
        field = f"t3[{system}][{configuration}]"
        row = f"{{{field}[fc]:.1f}} / {{{field}[teff]:.1f}}"
        if tat:
            row += f" / {{{field}[tat]:,}}"
        return f"{row} ({paper})"

    return f"| {label} | {cell('System1', paper1)} | {cell('System2', paper2)} |"


def _e6_row(label, system, papers):
    fscan, hscan, bscan, chip, total, socet = papers
    field = f"t2[{system}]"
    return (
        f"| {label} | {{{field}[fscan_percent]:.1f}} ({fscan}) "
        f"| {{{field}[hscan_percent]:.1f}} ({hscan}) "
        f"| {{{field}[bscan_percent]:.1f}} ({bscan}) "
        f"| {{{field}[socet_chip_percent][0]:.1f}} / "
        f"{{{field}[socet_chip_percent][1]:.1f}} ({chip}) "
        f"| {{{field}[fscan_bscan_total_percent]:.1f}} ({total}) "
        f"| {{{field}[socet_total_percent][0]:.1f}} / {{{field}[socet_total_percent][1]:.1f}} "
        f"({socet}) |"
    )


def _e1_row(row, version, paper_lat, paper_cells):
    field = f"f6[Version {version}]"
    return (
        f"| {row} | {paper_lat} | **{{{field}[low_latency]}} / {{{field}[high_latency]}} / "
        f"{{{field}[total_latency]}}** ✓ | {paper_cells} | {{{field}[extra_cells]}} |"
    )


EXPERIMENTS_CLAIMS = [
    # E1
    _e1_row(1, 1, "6 / 2 / 8", 3),
    _e1_row(2, 2, "1 / 2 / 3", 10),
    _e1_row(3, 3, "1 / 1 / 2", 30),
    # E2
    "measured **{f8[PREPROCESSOR][latencies][0][0]}/{f8[PREPROCESSOR][latencies][0][1]} → "
    "{f8[PREPROCESSOR][latencies][1][0]}/{f8[PREPROCESSOR][latencies][1][1]} → "
    "{f8[PREPROCESSOR][latencies][2][0]}/{f8[PREPROCESSOR][latencies][2][1]}** ✓ "
    "(cells {f8[PREPROCESSOR][cells][0]}/{f8[PREPROCESSOR][cells][1]}/"
    "{f8[PREPROCESSOR][cells][2]} vs paper",
    "measured **{f8[DISPLAY][latencies][0][0]}/{f8[DISPLAY][latencies][0][1]}** ✓ for "
    "Version 1, then {f8[DISPLAY][latencies][1][0]}/{f8[DISPLAY][latencies][1][1]} → "
    "{f8[DISPLAY][latencies][2][0]}/{f8[DISPLAY][latencies][2][1]}.",
    "(PORT5 in Version 2 and PORT6 in Version 3, each {d[e2_ports]}).",
    # E3
    "| DISPLAY via CPU V1 | 525×9+3 = 4,728 | **{s3[cpu_v1_tat]:,}** ✓ |",
    "| DISPLAY via CPU V2 | 525×4+3 = 2,103 | **{s3[cpu_v2_tat]:,}** ✓ |",
    "| DISPLAY via CPU V3 | 525×3+3 = 1,578 | **{s3[cpu_v3_tat]:,}** ✓ |",
    "| FSCAN-BSCAN | (66+20)×105+85 = 9,115 | **{s3[fscan_bscan_tat]:,}** ✓ |",
    "derives the {s3[cadences][0]}/{s3[cadences][1]}/{s3[cadences][2]}-cycle cadences",
    "({s5[db_latencies][1]}-cycle PREPROCESSOR hop",
    "the {s3[scan_steps]} scan steps from the {s3[display_scan_depth]}-deep DISPLAY chains, "
    "and the {s3[flush]}-cycle flush",
    "the DISPLAY core's {s3[display_flip_flops]} FFs / {s3[display_input_bits]} internal inputs",
    # E4
    "Measured: {f10[points]} points (3 versions per core), TAT {t1[min_area][tat]:,} → "
    "{f10[min_tat]:,} cycles (**{d[e4_ratio]:.1f}×**) for {f10[min_area_cells]} → "
    "{t1[min_tat][cells]} chip-DFT cells, with a monotone Pareto front of "
    "{f10[pareto_points]} points.",
    "({f10[test_vectors][CPU]}/{f10[test_vectors][PREPROCESSOR]}/{f10[test_vectors][DISPLAY]} "
    "vectors vs the paper's",
    # E5
    "| each core min. area | 156 / 17,387 | {t1[min_area][cells]} / {t1[min_area][tat]:,} |",
    "| each core min. latency | 325 / 3,818 | "
    "{t1[min_latency][cells]} / {t1[min_latency][tat]:,} |",
    "| min. chip TApp. | 307 / 3,806 | {t1[min_tat][cells]} / {t1[min_tat][tat]:,} |",
    "with {d[e5_saving]} fewer cells",
    # E6
    _e6_row("System 1", "System1", ("18.8", "10.1", "5.2", "2.0 / 3.8", "24.0", "12.1 / 13.9")),
    _e6_row("System 2", "System2", ("15.6", "10.3", "9.9", "1.2 / 4.7", "25.5", "11.5 / 15.0")),
    "(ours {d[e6_low]:.1f}–{d[e6_high]:.1f}×, paper ~1.9×)",
    "over a {t2[System1][original_area]:,}-cell System 1 and a "
    "{t2[System2][original_area]:,}-cell System 2",
    # E7
    _e7_row("Orig.", "Orig.", "10.6 / 10.8", "11.2 / 11.3"),
    _e7_row("HSCAN, no chip DFT", "HSCAN", "14.6 / 14.9", "13.8 / 13.8"),
    _e7_row("FSCAN-BSCAN", "FSCAN-BSCAN", "98.4 / 99.8 / 36,152", "98.2 / 99.9 / 46,394",
            tat=True),
    _e7_row("SOCET min. area", "SOCET Min. Area", "98.4 / 99.8 / 17,387",
            "98.2 / 99.9 / 16,435", tat=True),
    _e7_row("SOCET min. TApp", "SOCET Min. TApp.", "98.4 / 99.8 / 3,806",
            "98.2 / 99.9 / 3,998", tat=True),
    "*above* Orig. ({t3[System1][HSCAN][fc]:.1f} vs {t3[System1][Orig.][fc]:.1f})",
    "both stay {d[e7_gap]} points below the scan rows",
    "beats the baseline by {d[e7_area]:.1f}× at the min-area point",
    "and by {d[e7_tapp]:.1f}× (paper 9.5×)",
    "Our FC tops out at {t3[System1][FSCAN-BSCAN][fc]:.1f}% / TEff "
    "{d[e7_teff_low]:.1f}–{d[e7_teff_high]:.1f}%",
    "(System 1 {t3[System1][backtrack_limits][150][teff]:.1f} → "
    "{t3[System1][backtrack_limits][600][teff]:.1f}, System 2 "
    "{t3[System2][backtrack_limits][150][teff]:.1f} → "
    "{t3[System2][backtrack_limits][600][teff]:.1f}) for "
    "{d[e7_bt_low]:.1f}–{d[e7_bt_high]:.1f}× the PODEM backtracks "
    "({t3[System1][backtrack_limits][150][backtracks]:,} → "
    "{t3[System1][backtrack_limits][600][backtracks]:,} and "
    "{t3[System2][backtrack_limits][150][backtracks]:,} → "
    "{t3[System2][backtrack_limits][600][backtracks]:,})",
    # E8
    "used **{s5[db_uses]}×** per step",
    "and Eoc **{s5[eoc_uses]}×**;",
    "improves the latency number by {s5[db_uses]} × ({s5[db_latencies][0]}−"
    "{s5[db_latencies][1]}) = **{s5[gains][PREPROCESSOR][0]} = the paper's ΔTAT**",
    "ours is {s5[gains][PREPROCESSOR][1]} under our cost model",
    # E10
    "= {ab[Version 1][naive_tat]:,} cycles instead of {ab[Version 1][tat]:,} — a "
    "{ab[Version 1][underestimate_percent]:.1f}% underestimate",
    "Version 3 still differs ({ab[Version 3][reserved]} vs {ab[Version 3][naive]}:",
    # E11
    "under the SOCET plan {d[e11_both]:.1f}% of the logic-side interconnect bits of both "
    "systems ({ic[System1][logic_bits]} in System 1, {ic[System2][logic_bits]} in System 2)",
    "exercises **{ic[System1][bus_coverage_percent]:.0f}%** by construction",
    # E12
    "March C- detects {d[e12_c_minus]:.0f}% of cell stuck-ats",
    "need {d[e12_bist]} BIST cycles",
]

README_CLAIMS = [
    "latencies {f6[Version 1][low_latency]}/{f6[Version 1][high_latency]} "
    "(total {f6[Version 1][total_latency]}), {f6[Version 2][low_latency]}/"
    "{f6[Version 2][high_latency]} ({f6[Version 2][total_latency]}), "
    "{f6[Version 3][low_latency]}/{f6[Version 3][high_latency]} "
    "({f6[Version 3][total_latency]});",
    "NUM→DB / NUM→A = {f8[PREPROCESSOR][latencies][0][0]}/{f8[PREPROCESSOR][latencies][0][1]}, "
    "{f8[PREPROCESSOR][latencies][1][0]}/{f8[PREPROCESSOR][latencies][1][1]}, "
    "{f8[PREPROCESSOR][latencies][2][0]}/{f8[PREPROCESSOR][latencies][2][1]};",
    "DISPLAY test time {s3[scan_steps]}×{s3[cadences][0]}+{s3[flush]} = "
    "**{s3[cpu_v1_tat]:,}** cycles with CPU V1, **{s3[cpu_v2_tat]:,}** with V2, "
    "**{s3[cpu_v3_tat]:,}** with V3, vs ({s3[display_flip_flops]}+{s3[display_input_bits]})"
    "×105+85 = **{s3[fscan_bscan_tat]:,}** for FSCAN-BSCAN;",
    "improvement ΔTAT = **{s5[gains][PREPROCESSOR][0]}** ({s5[db_uses]} uses × "
    "({s5[db_latencies][0]}−{s5[db_latencies][1]}))",
]


def _normalized(text):
    return re.sub(r"\s+", " ", text)


def _quoted_text(document):
    """The whole of EXPERIMENTS.md; README's "What reproduces exactly" section."""
    text = (ROOT / document).read_text()
    if document == "README.md":
        text = text.split("## What reproduces exactly", 1)[1].split("\n## ", 1)[0]
    return _normalized(text)


@pytest.fixture(scope="module")
def results():
    return _results()


@pytest.mark.parametrize(
    "document, claims",
    [("EXPERIMENTS.md", EXPERIMENTS_CLAIMS), ("README.md", README_CLAIMS)],
    ids=["EXPERIMENTS", "README"],
)
def test_quoted_numbers_match_bench_results(results, document, claims):
    text = _quoted_text(document)
    stale = [
        claim
        for claim in (_normalized(template.format(**results)) for template in claims)
        if claim not in text
    ]
    assert not stale, f"{document} does not say (from the results ledger):\n" + "\n".join(stale)
