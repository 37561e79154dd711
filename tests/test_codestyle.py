"""Tests for the AST-based determinism lint (repro.lint.codestyle)."""

import os

from repro.lint.codestyle import check_file, check_source, iter_python_files, main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def codes(issues):
    return [issue.code for issue in issues]


class TestDet001UnseededRandom:
    def test_module_level_call_flagged(self):
        issues = check_source("import random\nx = random.randint(0, 9)\n")
        assert codes(issues) == ["DET001"]

    def test_from_import_flagged(self):
        issues = check_source("from random import shuffle\n")
        assert codes(issues) == ["DET001"]

    def test_seeded_rng_allowed(self):
        src = "import random\nr = random.Random(7)\nx = r.randint(0, 9)\n"
        assert check_source(src) == []

    def test_aliased_import_tracked(self):
        issues = check_source("import random as rnd\nx = rnd.random()\n")
        assert codes(issues) == ["DET001"]


class TestDet001NumpyGlobalRandom:
    def test_legacy_global_calls_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
        assert codes(check_source(src)) == ["DET001", "DET001"]

    def test_every_import_form_tracked(self):
        for src in (
            "import numpy\nx = numpy.random.randint(0, 2)\n",
            "import numpy.random\nx = numpy.random.normal()\n",
            "import numpy.random as npr\nnpr.shuffle(xs)\n",
            "from numpy import random as nr\nx = nr.random()\n",
            "from numpy.random import rand\n",
        ):
            assert codes(check_source(src)) == ["DET001"], src

    def test_seeded_generator_api_allowed(self):
        src = (
            "import numpy as np\n"
            "from numpy.random import default_rng, SeedSequence\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random()\n"
            "g = np.random.Generator(np.random.PCG64(SeedSequence(7)))\n"
            "m = np.random.MT19937(7)\n"
        )
        assert check_source(src) == []

    def test_other_numpy_modules_untouched(self):
        src = "import numpy.linalg as la\nimport numpy as np\nx = la.norm(np.ones(3))\n"
        assert check_source(src) == []


class TestDet002WallClock:
    def test_time_in_planner_scope_flagged(self):
        src = "import time\nt = time.time()\n"
        issues = check_source(src, "src/repro/soc/plan.py")
        assert codes(issues) == ["DET002"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        issues = check_source(src, "src/repro/soc/optimizer.py")
        assert codes(issues) == ["DET002"]

    def test_obs_layer_exempt(self):
        src = "import time\nt = time.time()\n"
        assert check_source(src, "src/repro/obs/ledger.py") == []

    def test_monotonic_allowed_everywhere(self):
        src = "import time\nt = time.perf_counter()\n"
        assert check_source(src, "src/repro/schedule/packers.py") == []


class TestDet003SetIteration:
    def test_for_over_set_literal_flagged(self):
        issues = check_source("for x in {1, 2}:\n    pass\n")
        assert codes(issues) == ["DET003"]

    def test_comprehension_over_set_call_flagged(self):
        issues = check_source("y = [x for x in set([1, 2])]\n")
        assert codes(issues) == ["DET003"]

    def test_sorted_set_allowed(self):
        assert check_source("for x in sorted({1, 2}):\n    pass\n") == []

    def test_for_over_list_allowed(self):
        assert check_source("for x in [1, 2]:\n    pass\n") == []


class TestDet004ItemsIteration:
    def test_items_in_analysis_scope_flagged(self):
        src = "for k, v in d.items():\n    pass\n"
        issues = check_source(src, "src/repro/analysis/certify.py")
        assert codes(issues) == ["DET004"]

    def test_keys_and_values_flagged_too(self):
        src = "a = [k for k in d.keys()]\nb = [v for v in d.values()]\n"
        issues = check_source(src, "src/repro/analysis/provenance.py")
        assert codes(issues) == ["DET004", "DET004"]

    def test_sorted_items_allowed(self):
        src = "for k, v in sorted(d.items()):\n    pass\n"
        assert check_source(src, "src/repro/analysis/certify.py") == []

    def test_outside_analysis_scope_allowed(self):
        src = "for k, v in d.items():\n    pass\n"
        assert check_source(src, "src/repro/soc/plan.py") == []


class TestRunner:
    def test_syntax_error_reported_not_raised(self):
        issues = check_source("def broken(:\n")
        assert codes(issues) == ["DET000"]

    def test_src_tree_is_clean(self):
        for path in iter_python_files([SRC]):
            assert check_file(path) == [], f"determinism lint failed on {path}"

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        bad = tmp_path / "repro" / "flow" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "bad.py" in out

    def test_missing_path_exits_2_with_one_line(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        missing = str(tmp_path / "srcc")
        assert main([str(clean), missing]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and repr(missing) in out.err

    def test_issue_format_is_parseable(self):
        issue = check_source("from random import random\n", "a/b.py")[0]
        path, line, col, rest = str(issue).split(":", 3)
        assert (path, int(line), int(col)) == ("a/b.py", 1, 0)
        assert rest.strip().startswith("DET001")
