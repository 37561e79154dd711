"""Tests for the observability layer (tracing, metrics, profiling, CLI)."""

import json

import pytest

from repro.errors import BenchSchemaError
from repro.obs import METRICS, Tracer, profile_section, stage_rows
from repro.obs.benchjson import (
    bench_payload,
    validate_bench,
    validate_chrome_trace,
    validate_file,
    write_bench,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NOOP_SPAN


class TestMetrics:
    def test_counter_create_or_get_and_reset_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("atpg.backtracks")
        counter.inc()
        counter.inc(4)
        assert registry.counter("atpg.backtracks") is counter
        assert counter.value == 5
        registry.reset()
        assert counter.value == 0  # cached references survive reset()
        counter.inc()
        assert registry.counters()["atpg.backtracks"] == 1

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_histogram_percentile_small_sample(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t")
        hist.observe(7.0)
        assert hist.percentile(50) == 7.0
        assert hist.percentile(99) == 7.0

    def test_empty_histogram(self):
        from repro.obs.metrics import EMPTY_SUMMARY

        registry = MetricsRegistry()
        hist = registry.histogram("t")
        # an empty histogram has well-defined (null) order statistics,
        # not an exception -- scrapers and reports render it as "-"
        assert hist.percentile(50) is None
        assert hist.percentile(99) is None
        summary = hist.summary()
        assert summary == EMPTY_SUMMARY
        assert summary["count"] == 0 and summary["sum"] == 0.0
        assert summary["p50"] is None and summary["p99"] is None
        assert registry.histograms() == {}  # empty histograms are skipped

    def test_prefix_filters(self):
        registry = MetricsRegistry()
        registry.counter("atpg.a").inc()
        registry.counter("schedule.b").inc(2)
        assert set(registry.counters("atpg.")) == {"atpg.a"}
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"atpg.a": 1, "schedule.b": 2}


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is NOOP_SPAN
        assert tracer.span("b", key=1) is NOOP_SPAN
        with tracer.span("a"):
            pass
        assert tracer.events() == []

    def test_span_nesting_depth_and_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("outer.inner", core="CPU") as inner:
                inner.set(extra=3)
        events = {e["name"]: e for e in tracer.events()}
        assert events["outer.inner"]["args"]["depth"] == 1
        assert events["outer.inner"]["args"]["parent"] == "outer"
        assert events["outer.inner"]["args"]["core"] == "CPU"
        assert events["outer.inner"]["args"]["extra"] == 3
        assert events["outer"]["args"]["depth"] == 0
        assert events["outer"]["args"]["parent"] is None
        # the inner span completes first and lies inside the outer one
        assert events["outer"]["ts"] <= events["outer.inner"]["ts"]
        assert events["outer"]["dur"] >= events["outer.inner"]["dur"]

    def test_chrome_export_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("atpg.run", faults=10):
            pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        (event,) = payload["traceEvents"]
        assert event["name"] == "atpg.run"
        assert event["ph"] == "X"
        assert event["cat"] == "atpg"

    def test_jsonl_export_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in lines] == ["b", "a"]

    def test_clear_resets_events(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.events() == []


class TestProfileSection:
    def test_feeds_time_histogram_without_tracing(self):
        METRICS.reset()
        with profile_section("schedule.unittest"):
            pass
        hist = METRICS.histogram("schedule.unittest.time")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_stage_rows_roll_up_by_prefix(self):
        registry = MetricsRegistry()
        registry.histogram("atpg.run.time").observe(0.5)
        registry.histogram("atpg.podem.time").observe(0.25)
        registry.counter("atpg.podem.backtracks").inc(7)
        registry.counter("schedule.items").inc(3)
        rows = stage_rows(registry, [("ATPG", "atpg"), ("schedule", "schedule")])
        atpg = rows[0]
        assert atpg["seconds"] == pytest.approx(0.75)
        assert atpg["calls"] == 2
        assert atpg["counters"] == {"podem.backtracks": 7}
        assert rows[1]["counters"] == {"items": 3}
        assert rows[1]["seconds"] == 0.0


class TestBenchJson:
    def test_payload_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("schedule.items").inc(8)
        payload = bench_payload(
            "schedule", 0.004, {"System1": {"makespan": 10}}, rounds=3,
            registry=registry,
        )
        path = tmp_path / "BENCH_schedule.json"
        write_bench(str(path), payload)
        assert validate_file(str(path)) == "bench"
        loaded = json.loads(path.read_text())
        assert loaded["counters"] == {"schedule.items": 8}
        assert loaded["rounds"] == 3

    def test_v2_payload_carries_raw_samples(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("schedule.items").inc(8)
        payload = bench_payload(
            "schedule", 0.004, {}, registry=registry,
            samples=[0.0041, 0.0039, 0.0040],
        )
        assert payload["schema_version"] == 2
        assert payload["samples"] == [0.0041, 0.0039, 0.0040]
        assert payload["rounds"] == 3  # rounds follows the sample count
        path = tmp_path / "BENCH_schedule.json"
        write_bench(str(path), payload)
        assert validate_file(str(path)) == "bench"

    def test_zero_valued_counters_are_recorded(self):
        registry = MetricsRegistry()
        registry.counter("a.touched_zero")  # created, never incremented
        registry.counter("a.nonzero").inc(2)
        payload = bench_payload("x", 0.1, {}, registry=registry)
        # "zero" and "absent" must be different facts for counter diffs
        assert payload["counters"] == {"a.touched_zero": 0, "a.nonzero": 2}

    def test_v1_payloads_still_validate(self):
        v1 = {
            "schema": "repro-bench", "schema_version": 1, "bench": "old",
            "wall_time_s": 0.1, "rounds": 5, "counters": {}, "results": {},
        }
        validate_bench(v1)  # no samples required at v1
        with pytest.raises(BenchSchemaError, match="declare v2"):
            validate_bench(dict(v1, samples=[0.1]))

    def test_v2_sample_constraints(self):
        good = bench_payload(
            "x", 0.1, {}, registry=MetricsRegistry(), samples=[0.1, 0.2]
        )
        with pytest.raises(BenchSchemaError, match="non-empty"):
            validate_bench(dict(good, samples=[]))
        with pytest.raises(BenchSchemaError, match="negative"):
            validate_bench(dict(good, samples=[0.1, -0.2]))
        with pytest.raises(BenchSchemaError, match="rounds is 9"):
            validate_bench(dict(good, rounds=9))
        with pytest.raises(BenchSchemaError, match="newer"):
            validate_bench(dict(good, schema_version=4))

    def test_v3_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("schedule.pack.time").observe(0.01)
        payload = bench_payload(
            "x", 0.1, {}, registry=registry, samples=[0.1, 0.2],
            histograms=registry.histograms(),
        )
        assert payload["schema_version"] == 3
        assert payload["histograms"]["schedule.pack.time"]["count"] == 1
        # the well-defined empty summary validates too
        from repro.obs.metrics import EMPTY_SUMMARY

        validate_bench(dict(payload, histograms={"h": dict(EMPTY_SUMMARY)}))
        with pytest.raises(BenchSchemaError, match="declare v3"):
            validate_bench(dict(payload, schema_version=2))
        with pytest.raises(BenchSchemaError):
            validate_bench(
                dict(payload, histograms={"h": {"count": "many", "sum": 0}})
            )

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(BenchSchemaError):
            validate_bench({"schema": "repro-bench"})  # missing fields
        good = bench_payload("x", 0.1, {}, registry=MetricsRegistry())
        bad = dict(good, wall_time_s="fast")
        with pytest.raises(BenchSchemaError):
            validate_bench(bad)
        with pytest.raises(BenchSchemaError):
            validate_bench(dict(good, schema="other"))

    def test_validate_rejects_bad_trace(self):
        with pytest.raises(BenchSchemaError):
            validate_chrome_trace({"noEvents": []})
        with pytest.raises(BenchSchemaError):
            validate_chrome_trace([{"name": "a"}])  # missing ph/ts/pid/tid
        validate_chrome_trace([])  # an empty event array is loadable


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_profile_smoke_with_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["profile", "System1", "--quick", "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        for stage in ("core-level", "transparency", "chip-level", "ATPG",
                      "fault-sim", "optimizer", "schedule"):
            assert stage in stdout
        assert "backtracks" in stdout
        payload = json.loads(out.read_text())
        validate_chrome_trace(payload)
        assert payload["traceEvents"]  # the run recorded real spans
        from repro.obs import TRACER

        assert not TRACER.enabled  # main() disables tracing afterwards

    def test_metrics_flag_appends_table(self, capsys):
        from repro.cli import main

        assert main(["--metrics", "plan", "System1"]) == 0
        stdout = capsys.readouterr().out
        assert "Metrics" in stdout
        assert "chiplevel.plans" in stdout

    def test_usage_errors_become_systemexit(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["profile", "SystemX"])
        assert exc.value.code == 2  # usage errors exit 2, message on stderr
        assert "repro:" in capsys.readouterr().err


class TestDeterminism:
    def test_atpg_is_seed_deterministic(self):
        import random

        from repro.atpg.combinational import CombinationalAtpg
        from repro.designs import build_gcd
        from repro.elaborate import elaborate
        from repro.faults.collapse import collapse_faults
        from repro.faults.model import full_fault_universe

        netlist = elaborate(build_gcd()).netlist
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        faults = random.Random(7).sample(universe, 50)

        def run_once():
            METRICS.reset()
            outcome = CombinationalAtpg(netlist, seed=7).run(faults)
            return outcome.patterns, dict(METRICS.counters("atpg."))

        patterns1, counters1 = run_once()
        patterns2, counters2 = run_once()
        assert patterns1 == patterns2
        assert counters1 == counters2
        assert counters1["atpg.podem.calls"] > 0
