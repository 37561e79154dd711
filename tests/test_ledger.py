"""Tests for the append-only run ledger (:mod:`repro.obs.ledger`)."""

import copy
import json
import re
import threading

import pytest

from repro.errors import LedgerSchemaError
from repro.obs import METRICS
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    environment_fingerprint,
    make_record,
    utc_timestamp,
    validate_record,
)


def validate(paths):
    """``repro validate PATHS``'s exit code."""
    from repro.cli import main

    return main(["validate", *paths])


#: a fixed fingerprint so record-construction tests are hermetic
ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}


def record(bench="schedule", samples=(0.004, 0.005), counters=None, **kwargs):
    kwargs.setdefault("env", ENV)
    kwargs.setdefault("git_sha", None)
    kwargs.setdefault("timestamp", "2026-08-06T12:00:00Z")
    return make_record(
        bench,
        list(samples),
        counters=counters if counters is not None else {"schedule.items": 8},
        **kwargs,
    )


class TestRecordConstruction:
    def test_make_record_shape(self):
        rec = record(results={"makespan": 42})
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["schema_version"] == LEDGER_SCHEMA_VERSION
        assert rec["bench"] == "schedule"
        assert rec["kind"] == "bench"
        assert rec["samples"] == [0.004, 0.005]
        assert rec["counters"] == {"schedule.items": 8}
        assert rec["results"] == {"makespan": 42}
        validate_record(rec)  # idempotent

    def test_counters_default_to_full_registry_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a.nonzero").inc(3)
        registry.counter("a.zero")  # touched but never incremented
        rec = make_record(
            "bench", [0.5], registry=registry,
            env=ENV, git_sha=None, timestamp="2026-08-06T12:00:00Z",
        )
        # zeros included: "zero" and "absent" are different facts
        assert rec["counters"] == {"a.nonzero": 3, "a.zero": 0}

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert set(env) == {"python", "platform", "cpus"}
        assert env["cpus"] >= 1

    def test_utc_timestamp_format(self):
        assert utc_timestamp(0.0) == "1970-01-01T00:00:00Z"

    def test_auto_git_sha_resolves_in_this_checkout(self):
        rec = make_record(
            "x", [1.0], counters={}, env=ENV, timestamp="2026-08-06T12:00:00Z"
        )
        assert rec["git_sha"] is None or len(rec["git_sha"]) == 40


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(LedgerSchemaError, match="must be an object"):
            validate_record([1, 2])

    # each case is named by the breach; its problems must name the JSON
    # path of the field the mutation touched
    @pytest.mark.parametrize(
        "mutate, breach",
        [
            (lambda r: r.pop("samples"), "missing field 'samples'"),
            (lambda r: r.update(samples=[]), "samples list is empty"),
            (lambda r: r.update(samples=[-0.1]), "sample 0 is negative"),
            (lambda r: r.update(samples=[True]), "sample 0 is not a number"),
            (lambda r: r.update(kind="trace"), "kind 'trace'"),
            (lambda r: r.update(kind="serve"), "kind 'serve'"),
            (lambda r: r.update(bench=""), "bench name is empty"),
            (lambda r: r.update(schema="other"), "schema is 'other'"),
            (lambda r: r.update(schema_version=99), "newer than"),
            (lambda r: r.pop("git_sha"), "git_sha"),
            (lambda r: r.update(git_sha=7), "string or null"),
            (lambda r: r.update(counters={"a": "x"}), "counter 'a'"),
            (lambda r: r["env"].pop("cpus"), "env misses 'cpus'"),
            # a bool is not a number, though Python's int says it is
            (lambda r: r.update(counters={"a": True}), "counter 'a' is a bool"),
            (lambda r: r.update(schema_version=True), "schema_version is a bool"),
            (lambda r: r.update(schema_version=0), "schema_version 0 predates v1"),
            (lambda r: r.update(schema_version=-1), "schema_version is negative"),
        ],
    )
    def test_rejects_each_violation(self, mutate, breach):
        rec = record()
        rec["env"] = dict(rec["env"])
        before = copy.deepcopy(rec)
        mutate(rec)
        gone = object()
        (field,) = [key for key in set(before) | set(rec)
                    if before.get(key, gone) != rec.get(key, gone)]
        with pytest.raises(LedgerSchemaError) as exc:
            validate_record(rec)
        problems = str(exc.value).split("; ")
        assert problems and all(
            re.match(rf"\$\.{field}[.\[:]", problem) for problem in problems
        ), (breach, problems)

    def test_problems_name_what_is_wrong(self):
        rec = record()
        rec.update(samples=[0.1, -0.1], schema_version=0, kind="serve")
        rec["counters"] = {"atpg.podem.calls": True, "ok": 1}
        rec.pop("git_sha")
        with pytest.raises(LedgerSchemaError) as exc:
            validate_record(rec)
        assert str(exc.value).split("; ") == [
            "$.schema_version: must be a positive integer, got 0",
            '$.kind: must be one of "bench", "profile", got "serve"',
            "$.git_sha: missing",
            "$.samples[1]: must be a non-negative number, got -0.1",
            "$.counters['atpg.podem.calls']: must be a number, got true",
        ]

    def test_older_env_keys_still_validate(self):
        # records written before the job-count knob was retired carry
        # a ``repro_jobs`` env key; extra env keys are allowed
        validate_record(record(env=dict(ENV, repro_jobs=None)))

    def test_collects_all_problems_in_one_error(self):
        rec = record()
        rec["samples"] = []
        rec["kind"] = "bogus"
        with pytest.raises(LedgerSchemaError) as exc:
            validate_record(rec)
        message = str(exc.value)
        assert "$.samples: must not be empty" in message and "bogus" in message


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        assert not ledger.exists()
        assert ledger.records() == []
        ledger.append(record(samples=[0.001]))
        ledger.append(record(bench="parallel", samples=[0.002]))
        ledger.append(record(samples=[0.003]))
        assert ledger.exists()
        schedule = ledger.records("schedule")
        assert [r["samples"] for r in schedule] == [[0.001], [0.003]]
        assert ledger.latest("schedule")["samples"] == [0.003]
        assert ledger.latest("missing") is None

    def test_append_creates_parent_directory(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "ledger.jsonl")
        ledger.append(record())
        assert len(ledger.records()) == 1

    def test_append_rejects_invalid_and_leaves_file_untouched(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record())
        bad = record()
        bad["samples"] = []
        with pytest.raises(LedgerSchemaError):
            ledger.append(bad)
        assert len(ledger.records()) == 1

    def test_each_record_is_one_json_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(record())
        ledger.append(record(bench="other"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == LEDGER_SCHEMA

    def test_concurrent_appends_never_interleave(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        per_thread = 20

        def run(name):
            for _ in range(per_thread):
                ledger.append(record(bench=name))

        threads = [
            threading.Thread(target=run, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loaded = ledger.records()  # strict parse: torn lines would raise
        assert len(loaded) == 4 * per_thread
        for name in ("t0", "t1", "t2", "t3"):
            assert len(ledger.records(name)) == per_thread

    def test_malformed_line_raises_with_location(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(record())
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(LedgerSchemaError, match=r":2"):
            RunLedger(path).records()
        assert validate([str(path)]) == 1
        assert "line 2: not JSON" in capsys.readouterr().out

    def test_too_deep_line_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("[" * 100_000 + "\n")
        with pytest.raises(LedgerSchemaError, match=r":1: maximum recursion depth"):
            RunLedger(path).records()
        assert validate([str(path)]) == 1
        assert "line 1: not JSON: maximum recursion depth" in capsys.readouterr().out

    def test_append_counts_in_shared_registry(self, tmp_path):
        before = METRICS.counter("ledger.appends").value
        RunLedger(tmp_path / "ledger.jsonl").append(record())
        assert METRICS.counter("ledger.appends").value == before + 1

    def test_benchjson_validator_understands_ledgers(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(record())
        RunLedger(path).append(record())
        single = tmp_path / "record.json"
        single.write_text(json.dumps(record()))
        assert validate([str(path), str(single)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"ok   {path} (repro-ledger, 2 records)",
            f"ok   {single} (repro-ledger)",
        ]
        # a missing ledger is an error, not an empty ledger
        missing = tmp_path / "missing.jsonl"
        assert validate([str(missing)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {missing}: cannot read: No such file or directory\n"
        )

    def test_validate_checks_every_line(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps(record())
        bad = record()
        bad["samples"] = []
        path.write_text("\n".join([good, json.dumps(bad), good, "[]", ""]) + "\n")
        assert validate([str(path)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {path}: line 2: $.samples: must not be empty; "
            f"line 4: $: must be an object, got a list\n"
        )


# ----------------------------------------------------------------------
# schema v3: the optional 'histograms' field
# ----------------------------------------------------------------------
class TestFanOutDeterminism:
    """``design_space`` fans out over every version combination in one
    loop; its counters land in ledger records bit-identically however
    many other systems were planned before it in the process (``exec.*``
    is plan cache bookkeeping and explicitly outside the guarantee)."""

    @pytest.mark.parametrize("last_system", [2, 4])
    def test_design_space_counters_identical_after_other_systems(
        self, tmp_path, last_system
    ):
        from repro import designs
        from repro.soc.optimizer import design_space

        def run(number):
            soc = getattr(designs, f"build_system{number}")()
            METRICS.reset()
            design_space(soc)
            return make_record(
                "fanout",
                [1.0],
                registry=METRICS,
                env=ENV,
                git_sha=None,
                timestamp="2026-08-06T12:00:00Z",
            )

        def stable(rec):
            return {
                name: value
                for name, value in rec["counters"].items()
                if not name.startswith("exec.")
            }

        alone = run(1)
        for number in range(2, last_system + 1):
            run(number)
        after = run(1)
        assert stable(alone) == stable(after)
        assert stable(alone)  # the run actually counted work

        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(alone)
        ledger.append(after)
        first, second = ledger.records("fanout")
        assert stable(first) == stable(second)


class TestHistogramsField:
    def sections(self, calls):
        from repro.obs import profile_section
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for _ in range(calls):
            with profile_section("schedule.pack", registry=registry):
                pass
        return registry.sections()

    def test_v3_record_round_trips(self, tmp_path):
        rec = record(histograms=self.sections(2))
        assert rec["schema_version"] == LEDGER_SCHEMA_VERSION >= 3
        validate_record(rec)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(rec)
        (read_back,) = ledger.records("schedule")
        assert read_back["histograms"]["schedule.pack"]["count"] == 2
        assert set(read_back["histograms"]["schedule.pack"]) == {"count", "sum", "self"}

    def test_histograms_field_is_optional(self):
        rec = record()
        assert "histograms" not in rec
        validate_record(rec)

    def test_empty_summary_validates(self):
        # records written before section totals carry percentile
        # summaries, with null order statistics when empty
        empty = {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "mean": None, "p50": None, "p90": None, "p99": None}
        validate_record(record(histograms={"h": empty}))

    @pytest.mark.parametrize("bad, fragment", [
        ("nope", "histograms"),
        ({"h": "nope"}, "h"),
        ({"h": {"sum": 0.0}}, "count"),
        ({"h": {"count": "many", "sum": 0.0}}, "count"),
        ({"h": {"count": 1, "sum": 0.1, "p99": "slow"}}, "p99"),
    ])
    def test_rejects_malformed_histograms(self, bad, fragment):
        rec = record(histograms=self.sections(1))
        rec["histograms"] = bad
        with pytest.raises(LedgerSchemaError, match=fragment):
            validate_record(rec)
