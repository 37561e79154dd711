"""The runtime dependency set: importing every ``repro`` module loads no
third-party package except numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: runs in a fresh interpreter; the baseline excludes whatever the
#: interpreter's site setup already loaded
PROBE = """
import importlib, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_importing_repro_loads_only_numpy_beyond_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"numpy", "repro"}, proc.stdout


def test_flow_packages_import_without_numpy():
    # numpy is imported where a kernel or a random draw first runs, so
    # importing the flow (CLI start-up, the benchmark's set-up) stays cheap
    probe = (
        "import sys\n"
        "import repro, repro.atpg, repro.faults, repro.soc, repro.flow\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
