"""Tests for the observability layer (tracing, metrics, profiling, CLI)."""

import json
import threading
import tracemalloc

import pytest

from repro.errors import BenchSchemaError
from repro.obs import METRICS, Tracer, profile_section, stage_rows
from repro.obs import profiler
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
            registry.section("x")

    def test_section_totals_reset_in_place(self):
        registry = MetricsRegistry()
        totals = registry.section("atpg.run")
        with profile_section("atpg.run", registry=registry):
            pass
        assert registry.section("atpg.run") is totals
        assert registry.sections()["atpg.run"]["count"] == 1
        registry.reset()
        assert totals.calls == 0 and totals.seconds == 0.0
        assert registry.sections() == {}  # sections that never ran are skipped

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


class Clock:
    """A hand-driven ``perf_counter`` for exact self-time assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(profiler, "perf_counter", fake)
    return fake


def totals(registry):
    return {
        name: (row["count"], row["sum"], row["self"])
        for name, row in registry.sections().items()
    }


class TestProfileSection:
    def test_feeds_section_totals_without_tracing(self):
        METRICS.reset()
        with profile_section("schedule.unittest"):
            pass
        row = METRICS.sections()["schedule.unittest"]
        assert row["count"] == 1
        assert row["sum"] >= row["self"] >= 0.0

    def test_stage_rows_roll_up_by_prefix(self):
        registry = MetricsRegistry()
        for name, self_seconds in [("atpg.run", 0.5), ("atpg.podem", 0.25),
                                   ("profile.total", 0.1)]:
            section = registry.section(name)
            section.calls, section.self_seconds = 1, self_seconds
        registry.counter("atpg.podem.backtracks").inc(7)
        registry.counter("schedule.items").inc(3)
        rows = stage_rows(registry, "profile.total",
                          [("ATPG", "atpg"), ("schedule", "schedule")])
        atpg, schedule, unaccounted = rows
        assert atpg["self_seconds"] == pytest.approx(0.75)
        assert atpg["calls"] == 2
        assert atpg["counters"] == {"podem.backtracks": 7}
        assert schedule["counters"] == {"items": 3}
        assert schedule["self_seconds"] == 0.0
        assert unaccounted["stage"] == "unaccounted"
        assert unaccounted["self_seconds"] == pytest.approx(0.1)

    def test_sections_outside_every_stage_get_their_own_row(self):
        registry = MetricsRegistry()
        registry.section("lint.pass").calls = 1
        registry.section("lint.pass").self_seconds = 0.5
        rows = stage_rows(registry, "profile.total", [("ATPG", "atpg")])
        assert [row["stage"] for row in rows] == ["ATPG", "lint", "unaccounted"]
        assert rows[1]["self_seconds"] == 0.5


class TestSelfTime:
    """Self time = inclusive time minus the sections opened inside it."""

    def test_nested_sections(self, clock):
        registry = MetricsRegistry()
        with profile_section("a.outer", registry=registry):
            clock.tick(1)
            with profile_section("a.inner", registry=registry):
                clock.tick(2)
            clock.tick(3)
        assert totals(registry) == {
            "a.inner": (1, 2.0, 2.0),
            "a.outer": (1, 6.0, 4.0),
        }

    def test_section_nested_in_one_of_the_same_name(self, clock):
        registry = MetricsRegistry()
        with profile_section("a.walk", registry=registry):
            clock.tick(1)
            with profile_section("a.walk", registry=registry):
                clock.tick(2)
            clock.tick(3)
        # inclusive time counts the outermost entry once; self times
        # still partition it
        assert totals(registry) == {"a.walk": (2, 6.0, 6.0)}

    def test_siblings(self, clock):
        registry = MetricsRegistry()
        with profile_section("a.outer", registry=registry):
            with profile_section("a.left", registry=registry):
                clock.tick(1)
            clock.tick(1)
            with profile_section("a.right", registry=registry):
                clock.tick(2)
            with profile_section("a.left", registry=registry):
                clock.tick(4)
        assert totals(registry) == {
            "a.left": (2, 5.0, 5.0),
            "a.outer": (1, 8.0, 1.0),
            "a.right": (1, 2.0, 2.0),
        }

    def test_exit_by_exception(self, clock):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with profile_section("a.outer", registry=registry):
                clock.tick(1)
                with profile_section("a.inner", registry=registry):
                    clock.tick(2)
                    raise ValueError("boom")
        # the stack unwound: the next section is a root again
        with profile_section("a.after", registry=registry):
            clock.tick(4)
        assert totals(registry) == {
            "a.after": (1, 4.0, 4.0),
            "a.inner": (1, 2.0, 2.0),
            "a.outer": (1, 3.0, 1.0),
        }
        assert profiler._OPEN.stack == []

    def test_second_thread_does_not_subtract_from_main(self, clock):
        registry = MetricsRegistry()

        def work():
            with profile_section("a.worker", registry=registry):
                clock.tick(5)

        with profile_section("a.main", registry=registry):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            clock.tick(1)
        assert totals(registry) == {
            "a.main": (1, 6.0, 6.0),
            "a.worker": (1, 5.0, 5.0),
        }

    def test_records_a_span_only_while_tracing(self):
        from repro.obs import TRACER, disable_tracing, enable_tracing

        registry = MetricsRegistry()
        with profile_section("a.quiet", registry=registry) as section:
            section.set(items=1)
        enable_tracing()
        try:
            with profile_section("a.traced", registry=registry, core="CPU") as section:
                section.set(items=2)
        finally:
            disable_tracing()
        (event,) = TRACER.events()
        TRACER.clear()
        assert event["name"] == "a.traced"
        assert event["args"]["core"] == "CPU" and event["args"]["items"] == 2
        assert set(registry.sections()) == {"a.quiet", "a.traced"}

    def test_exits_store_nothing_per_call(self):
        with profile_section("schedule.memory_probe"):
            pass  # create the section's totals before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50_000):
                with profile_section("schedule.memory_probe"):
                    pass
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        assert METRICS.sections()["schedule.memory_probe"]["count"] >= 50_000


class TestStageTable:
    def test_render_shows_shares_and_unaccounted(self):
        from repro.flow.report import render_stage_table

        rows = [
            {"stage": "ATPG", "prefix": "atpg", "self_seconds": 0.75,
             "calls": 2, "counters": {"podem.backtracks": 7}},
            {"stage": "unaccounted", "prefix": "profile.total",
             "self_seconds": 0.25, "calls": 1, "counters": {}},
        ]
        lines = render_stage_table(rows).splitlines()
        atpg = next(line for line in lines if line.startswith("ATPG"))
        rest = next(line for line in lines if line.startswith("unaccounted"))
        assert atpg.split()[:4] == ["ATPG", "750.0", "75.0", "2"]
        assert "podem.backtracks=7" in atpg
        assert rest.split()[:4] == ["unaccounted", "250.0", "25.0", "1"]

    @pytest.mark.parametrize("system", ["System1", "System2"])
    def test_rows_sum_to_the_total(self, system):
        from repro.flow.profile import QUICK_MAX_FAULTS, profile_system

        report = profile_system(system, max_faults=QUICK_MAX_FAULTS)
        assert report.stages[-1]["stage"] == "unaccounted"
        assert report.stages[-1]["self_seconds"] > 0.0
        rows = sum(row["self_seconds"] for row in report.stages)
        assert rows == pytest.approx(report.total_seconds, rel=0.02)


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
        with profile_section("schedule.pack", registry=registry):
            pass
        payload = bench_payload(
            "x", 0.1, {}, registry=registry, samples=[0.1, 0.2],
            histograms=registry.sections(),
        )
        assert payload["schema_version"] == 3
        assert set(payload["histograms"]["schedule.pack"]) == {"count", "sum", "self"}
        assert payload["histograms"]["schedule.pack"]["count"] == 1
        # older payloads carry percentile summaries, null when empty
        empty = {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "mean": None, "p50": None, "p90": None, "p99": None}
        validate_bench(dict(payload, histograms={"h": empty}))
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
                      "fault-sim", "optimizer", "schedule", "unaccounted"):
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
        assert "section" in stdout and "self=" in stdout

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
