"""Tests for the exact counter gate and the rank test (:mod:`repro.obs.regress`)."""

import json
import math

import pytest

from repro.errors import RegressionError
from repro.obs.ledger import RunLedger, make_record
from repro.obs.regress import (
    COUNTER_IGNORE,
    BenchVerdict,
    compare_counters,
    compare_ledgers,
    compare_records,
    mann_whitney_p,
    rank_sum_u,
)

ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}


def record(bench="b", samples=(1.0,), counters=None, env=ENV):
    return make_record(
        bench,
        list(samples),
        counters=counters if counters is not None else {"c": 1},
        env=env,
        git_sha=None,
        timestamp="2026-08-06T12:00:00Z",
    )


class TestMannWhitney:
    def test_u_statistic_no_overlap(self):
        u, ties = rank_sum_u([10.0, 11.0], [1.0, 2.0, 3.0])
        assert u == 6.0  # every candidate beats every baseline: U = n1*n2
        assert not ties

    def test_u_statistic_with_ties_uses_midranks(self):
        u, ties = rank_sum_u([1.0], [1.0])
        assert ties
        assert u == 0.5

    def test_exact_p_matches_closed_forms(self):
        # all-greater candidate: p = 1 / C(n1+n2, n1)
        p = mann_whitney_p([10.0, 11.0, 12.0], list(map(float, range(9))))
        assert p == pytest.approx(1.0 / 220.0)
        assert p == pytest.approx(1 / math.comb(12, 3))
        # all-smaller candidate: the whole distribution is in the tail
        assert mann_whitney_p([0.1], [1.0, 2.0]) == pytest.approx(1.0)

    def test_exact_p_is_a_valid_distribution(self):
        # P(U >= 0) must be exactly 1 -- the counts sum to C(n1+n2, n1)
        from repro.obs.regress import _exact_u_tail

        assert _exact_u_tail(0, 4, 5) == pytest.approx(1.0)
        assert _exact_u_tail(4 * 5 + 1, 4, 5) == 0.0

    def test_all_identical_samples_are_indistinguishable(self):
        assert mann_whitney_p([5.0] * 4, [5.0] * 6) == pytest.approx(1.0)

    def test_tied_samples_use_normal_approximation(self):
        # a tie forces the normal path; a clearly slower candidate still
        # lands near significance despite the tiny sample (n=4 vs 4)
        p = mann_whitney_p([9.0, 10.0, 10.0, 11.0], [1.0, 2.0, 3.0, 10.0])
        assert 0.0 < p < 0.10

    def test_empty_sides_rejected(self):
        with pytest.raises(RegressionError):
            mann_whitney_p([], [1.0])


class TestCounterGate:
    def test_exact_match_passes(self):
        assert compare_counters({"a": 1, "z": 0}, {"a": 1, "z": 0}) == []

    def test_changed_added_removed_and_zero_vs_absent(self):
        drifts = compare_counters(
            {"a.b": 6, "new": 1}, {"a.b": 5, "gone": 2, "z": 0}
        )
        described = [d.describe() for d in drifts]
        assert described == [
            "a.b: 5 -> 6",
            "gone: 2 -> absent",
            "new: absent -> 1",
            "z: 0 -> absent",  # zero and absent are different facts
        ]

    def test_ignore_prefixes(self):
        drifts = compare_counters(
            {"exec.cache.misses": 1, "real": 2},
            {"exec.cache.misses": 0, "real": 2},
            ignore=("exec.cache.",),
        )
        assert drifts == []


class TestCompareRecords:
    def test_no_baseline_skips(self):
        verdict = compare_records(record(), None)
        assert verdict.skipped and verdict.status == "skipped"
        assert not verdict.failed

    def test_counter_drift_fails_even_with_identical_timing(self):
        verdict = compare_records(record(counters={"a": 2}), record(counters={"a": 1}))
        assert verdict.failed and verdict.status == "drift"
        assert verdict.drifts[0].describe() == "a: 1 -> 2"

    def test_drift_checked_against_newest_baseline_record(self, tmp_path):
        baseline = RunLedger(tmp_path / "baseline.jsonl")
        baseline.append(record(counters={"a": 1}))
        baseline.append(record(counters={"a": 2}))
        candidate = RunLedger(tmp_path / "fresh.jsonl")
        candidate.append(record(counters={"a": 2}))
        (verdict,) = compare_ledgers(candidate, baseline).verdicts
        assert verdict.status == "ok" and not verdict.drifts

    def test_wall_time_is_not_gated(self):
        slow = record(samples=[60.0, 61.0, 59.0])
        verdict = compare_records(slow, record(samples=[1.0, 1.01, 0.99]))
        assert verdict.status == "ok" and not verdict.failed

    def test_ignored_prefixes_default_to_bookkeeping(self):
        assert COUNTER_IGNORE == ("exec.", "attrib.")
        verdict = compare_records(
            record(counters={"c": 1, "exec.cache.hits": 9}),
            record(counters={"c": 1, "exec.cache.hits": 0}),
        )
        assert verdict.status == "ok"

    def test_histograms_are_carried_not_gated(self):
        def with_sections(scale):
            return make_record(
                "b", [1.0], counters={"c": 1}, env=ENV, git_sha=None,
                timestamp="2026-08-06T12:00:00Z",
                histograms={"profile.total": {"count": 1, "sum": 0.2 * scale,
                                              "self": 0.1 * scale}},
            )

        verdict = compare_records(with_sections(5.0), with_sections(1.0))
        assert verdict.status == "ok" and not verdict.failed

    def test_to_dict_round_trips_through_json(self):
        verdict = compare_records(record(counters={"c": 2}), record())
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["bench"] == "b"
        assert payload["failed"] is True
        assert payload["counter_drifts"] == [
            {"counter": "c", "baseline": 1, "candidate": 2}
        ]


class TestCompareLedgers:
    def fill(self, ledger, bench, runs, counters=None, env=ENV):
        for samples in runs:
            ledger.append(record(bench, samples, counters=counters, env=env))

    def test_self_history_three_unchanged_runs_pass(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(
            ledger, "b",
            [[1.0, 1.01, 0.99], [1.02, 0.98, 1.0], [0.99, 1.0, 1.01]],
        )
        report = compare_ledgers(ledger)
        assert report.exit_code() == 0
        assert report.verdicts[0].status == "ok"

    def test_self_history_compares_with_the_record_before(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0]], counters={"a": 1})
        self.fill(ledger, "b", [[1.0]] * 2, counters={"a": 2})
        (verdict,) = compare_ledgers(ledger).verdicts
        assert verdict.status == "ok"

    def test_injected_counter_drift_fails(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0]] * 3, counters={"a": 1, "z": 0})
        ledger.append(record("b", [1.0], counters={"a": 1}))
        report = compare_ledgers(ledger)
        assert report.exit_code() == 1
        (drift,) = report.verdicts[0].drifts
        assert drift.describe() == "z: 0 -> absent"

    def test_separate_baseline_ledger(self, tmp_path):
        baseline = RunLedger(tmp_path / "baseline.jsonl")
        self.fill(baseline, "b", [[1.0, 1.0, 1.0]] * 2)
        candidate = RunLedger(tmp_path / "fresh.jsonl")
        candidate.append(record("b", [1.0, 1.0, 1.0]))
        report = compare_ledgers(candidate, baseline)
        assert report.exit_code() == 0
        assert report.baseline_path == baseline.path

    def test_single_record_series_skips_and_exit_3(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record("only"))
        report = compare_ledgers(ledger)
        assert report.compared == 0
        assert report.exit_code() == 3

    def test_unknown_series_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record("b"))
        with pytest.raises(RegressionError, match="missing"):
            compare_ledgers(ledger, benches=["missing"])

    def test_render_mentions_each_series(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.fill(ledger, "b", [[1.0, 1.0, 1.0]] * 2)
        report = compare_ledgers(ledger)
        text = report.render()
        assert "b" in text and "series compared" in text


class TestCliRegress:
    def seed_ledger(self, path, runs, counters=None):
        ledger = RunLedger(path)
        for samples in runs:
            ledger.append(record("b", samples, counters=counters))
        return ledger

    def test_unchanged_runs_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0, 1.01, 0.99]] * 3)
        assert main(["regress", "--ledger", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_json_reports_counter_drift(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]], counters={"a": 5})
        RunLedger(path).append(record("b", [9.0], counters={"a": 6}))
        assert main(["regress", "--ledger", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["verdicts"][0]["status"] == "drift"

    def test_counter_drift_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]] * 3, counters={"a": 5})
        RunLedger(path).append(record("b", [1.0], counters={"a": 6}))
        assert main(["regress", "--ledger", str(path)]) == 1
        assert "5 -> 6" in capsys.readouterr().out

    def test_missing_ledger_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["regress", "--ledger", str(tmp_path / "none.jsonl")])
        assert exc.value.code == 2

    def test_unknown_series_is_usage_error(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]])
        with pytest.raises(SystemExit) as exc:
            main(["regress", "nope", "--ledger", str(path)])
        assert exc.value.code == 2

    def test_nothing_comparable_exits_three(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]])
        assert main(["regress", "--ledger", str(path)]) == 3

    @pytest.mark.parametrize("flag", [
        ["--window", "5"], ["--min-ratio", "1.25"], ["--alpha", "0.05"],
        ["--small-sample-ratio", "2"], ["--wall-gate", "off"],
        ["--no-counter-gate"],
    ], ids=lambda flag: flag[0].lstrip("-"))
    def test_wall_gate_flags_are_gone(self, tmp_path, flag):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]] * 2)
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--ledger", str(path)] + flag)
        assert exc.value.code == 2

    def test_ignore_counter_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [[1.0]] * 3, counters={"noisy.x": 5})
        RunLedger(path).append(record("b", [1.0], counters={"noisy.x": 6}))
        assert main(
            ["regress", "--ledger", str(path), "--ignore-counter", "noisy."]
        ) == 0


def test_verdict_status_priorities():
    verdict = BenchVerdict(bench="b")
    assert verdict.status == "ok" and not verdict.failed
