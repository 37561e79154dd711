"""Tests for the command-line interface and JSON export."""

import json

import pytest

from repro.cli import main
from repro.designs import build_system1
from repro.flow.export import plan_to_dict, version_to_dict
from repro.soc import plan_soc_test


class TestCli:
    def test_cores_lists_examples(self, capsys):
        assert main(["cores"]) == 0
        out = capsys.readouterr().out
        for name in ("CPU", "PREPROCESSOR", "DISPLAY", "GCD", "RAM"):
            assert name in out

    def test_versions_table(self, capsys):
        assert main(["versions", "X25"]) == 0
        out = capsys.readouterr().out
        assert "Version 1" in out and "ATPG" in out

    def test_versions_unknown_core(self):
        with pytest.raises(SystemExit):
            main(["versions", "NOPE"])

    def test_plan_default(self, capsys):
        assert main(["plan", "System2"]) == 0
        out = capsys.readouterr().out
        assert "total TAT" in out
        assert "chip-level DFT" in out

    def test_plan_with_selection(self, capsys):
        assert main(["plan", "System1", "-s", "CPU=3"]) == 0
        out = capsys.readouterr().out
        assert "CPU" in out

    def test_plan_rejects_bad_selection(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan", "System1", "-s", "CPU=9"])
        with pytest.raises(SystemExit):
            main(["plan", "System1", "-s", "NOPE=1"])
        with pytest.raises(SystemExit):
            main(["plan", "System1", "-s", "garbage"])
        with pytest.raises(SystemExit) as exc:
            main(["plan", "System1", "-s", "CPU=1,CPU=3"])
        assert exc.value.code == 2
        assert "'CPU' selected twice" in capsys.readouterr().err

    def test_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["plan", "System9"])

    def test_sweep(self, capsys):
        assert main(["sweep", "System2"]) == 0
        out = capsys.readouterr().out
        assert "design space" in out and "min-TAT" in out

    def test_compare(self, capsys):
        assert main(["compare", "System2"]) == 0
        out = capsys.readouterr().out
        assert "FSCAN-BSCAN" in out and "faster" in out

    def test_export_stdout_is_valid_json(self, capsys):
        assert main(["export", "System2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["soc"] == "System2"

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert main(["export", "System2", "-o", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["total_tat"] > 0


class TestExport:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_soc_test(build_system1())

    def test_plan_dict_shape(self, plan):
        payload = plan_to_dict(plan)
        assert payload["soc"] == "System1"
        assert payload["total_tat"] == plan.total_tat
        assert {c["core"] for c in payload["cores"]} == {"CPU", "PREPROCESSOR", "DISPLAY"}
        for core in payload["cores"]:
            assert core["tat"] == core["scan_steps"] * core["cadence"] + core["flush"]

    def test_plan_dict_json_round_trip(self, plan):
        payload = plan_to_dict(plan)
        assert json.loads(json.dumps(payload)) == payload

    def test_version_dict(self, plan):
        cpu = plan.soc.cores["CPU"]
        payload = version_to_dict(cpu.version(0))
        assert payload["justify"]["Address[0+8]"] == 6
        assert payload["propagate"]["Data"] == 6
        assert "DR" in payload["freezes"]  # the Figure 4(b)-style balance freeze
