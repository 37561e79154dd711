"""Tests for the observability layer (metrics, profiling, the file validator, CLI)."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from repro.obs import METRICS, profile_section, stage_rows
from repro.obs import profiler
from repro.obs.metrics import MetricsRegistry


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
        rows = stage_rows(registry.sections(), registry.counters(), "profile.total",
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
        rows = stage_rows(registry.sections(), registry.counters(), "profile.total",
                          [("ATPG", "atpg")])
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
        from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline

        record = run_pipeline(system, max_faults=QUICK_MAX_FAULTS)
        stages = stage_rows(record["histograms"], record["counters"])
        assert stages[-1]["stage"] == "unaccounted"
        assert stages[-1]["self_seconds"] > 0.0
        rows = sum(row["self_seconds"] for row in stages)
        assert rows == pytest.approx(record["samples"][0], rel=0.02)


class TestValidator:
    def test_validate_rejects_unknown_documents(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "x.json"
        for text in ("[]", "{}", '{"schema": "other"}', '{"kind": ["x"]}'):
            path.write_text(text)
            assert main(["validate", str(path)]) == 1, text
            (line,) = capsys.readouterr().out.splitlines()
            assert line.startswith(f"FAIL {path}: "), text
            for kind in ("repro-certificate", "repro-ledger", "repro-attrib"):
                assert kind in line, text

    def test_validate_checks_every_file(self, tmp_path, capsys):
        from repro.cli import main

        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        paths[0].write_text("[]")
        paths[2].write_text("not json")
        fixture = str(Path(__file__).parent / "fixtures" / "attrib-System1-quick.json")
        names = [str(paths[0]), str(paths[1]), str(paths[2]), fixture, str(tmp_path)]
        assert main(["validate", *names]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["FAIL", "FAIL", "FAIL", "ok", "FAIL"]
        assert lines[1] == f"FAIL {paths[1]}: cannot read: No such file or directory"
        assert lines[2].startswith(f"FAIL {paths[2]}: not JSON: ")
        assert lines[3] == f"ok   {fixture} (repro-attrib)"
        assert lines[4] == f"FAIL {tmp_path}: cannot read: Is a directory"


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_profile_smoke(self, capsys):
        from repro.cli import main

        assert main(["profile", "System1", "--quick"]) == 0
        stdout = capsys.readouterr().out
        for stage in ("core-level", "transparency", "chip-level", "ATPG",
                      "fault-sim", "optimizer", "schedule", "unaccounted"):
            assert stage in stdout
        assert "backtracks" in stdout

    def test_usage_errors_become_systemexit(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["profile", "SystemX"])
        assert exc.value.code == 2  # usage errors exit 2, message on stderr
        assert "repro:" in capsys.readouterr().err


#: a fresh quick System1 run that prints the ``repro`` modules first
#: loaded inside the root section
FIRST_LOADS = """
import sys
from contextlib import contextmanager

from repro.flow import profile
from repro.obs.profiler import ROOT_SECTION

timed = profile.profile_section
inside = []


@contextmanager
def section(name):
    before = set(sys.modules) if name == ROOT_SECTION else None
    with timed(name):
        yield
    if before is not None:
        inside.extend(sorted(set(sys.modules) - before))


profile.profile_section = section
profile.run_pipeline("System1", max_faults=profile.QUICK_MAX_FAULTS)
print(" ".join(name for name in inside if name.partition(".")[0] == "repro"))
"""


def test_root_section_first_loads_no_module():
    """The stages' modules load before ``profile.total`` opens, so a
    fresh run's ``unaccounted`` time holds no import."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_LOADS],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_import_loads_no_library_layer():
    """``import repro.cli`` loads the package, the CLI, its errors and the
    table renderer only: each command imports the layers it runs."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(*(name for name in sys.modules "
         "if name.partition('.')[0] == 'repro'))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "repro.cli" in loaded
    allowed = {"repro", "repro.cli", "repro.errors", "repro.util"}
    assert [name for name in loaded
            if name not in allowed and not name.startswith("repro.util.")] == []


def test_grading_and_planning_load_no_report_or_ledger_module():
    """The ``repro.obs`` and ``repro.flow`` packages re-export nothing
    from their artifact, ledger, gate and report modules, so the layers
    a grading or a plan runs load none of them."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.faults.simulator, repro.soc.optimizer, "
         "repro.flow.system_netlist; print(*(name for name in sys.modules "
         "if name.partition('.')[0] == 'repro'))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.flow.system_netlist" in loaded
    heavy = {
        "repro.obs.attrib", "repro.obs.regress", "repro.obs.ledger",
        "repro.util.schema", "repro.flow.report", "repro.flow.profile",
    }
    assert sorted(loaded & heavy) == []


def test_bench_imports_register_every_module_instrument():
    """A bench record holds every instrument of the shared registry, zeros
    included, and ``repro regress`` reads 0 against absent as drift, so
    ``benchmarks/conftest.py`` imports the instrumented modules up front:
    a bench run alone registers what loading every module registers."""
    root = Path(__file__).resolve().parent.parent

    def instruments(setup: str) -> list:
        proc = subprocess.run(
            [sys.executable, "-c", setup + "; from repro.obs import METRICS; "
             "print(*sorted(METRICS.counters()), *sorted(METRICS.sections()))"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    conftest = root / "benchmarks" / "conftest.py"
    every_module = (
        "import importlib, pkgutil, repro; "
        "[importlib.import_module(m.name) for m in pkgutil.walk_packages("
        "repro.__path__, 'repro.') if not m.name.endswith('__main__')]"
    )
    assert instruments(f"import runpy; runpy.run_path({str(conftest)!r})") == instruments(every_module)


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
