"""The runtime dependency set: importing every ``repro`` module and
running the ATPG and both fault graders loads no third-party package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: runs in a fresh interpreter; the baseline excludes whatever the
#: interpreter's site setup already loaded
PROBE = """
import importlib, pkgutil, sys
before = {{name.partition(".")[0] for name in sys.modules}}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
{run}
loaded = {{name.partition(".")[0] for name in sys.modules}} - before
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""

#: combinational grading (random batches, PODEM confirmations,
#: compaction) and sequential grading of a flattened chip
RUN = """
import random
from repro.atpg import CombinationalAtpg
from repro.designs import build_system2, core_builders
from repro.elaborate import elaborate
from repro.faults import collapse_faults, full_fault_universe, sequential_fault_grade
from repro.flow.system_netlist import flatten_soc

outcome = CombinationalAtpg(elaborate(core_builders()["X25"]()).netlist).run()
assert outcome.patterns
chip = flatten_soc(build_system2(), with_hscan=False, scan_access="none")
rng = random.Random(0)
stimuli = [[{g.name: rng.getrandbits(1) for g in chip.inputs} for _ in range(4)] for _ in range(4)]
faults = collapse_faults(chip, full_fault_universe(chip))
assert sequential_fault_grade(chip, stimuli, faults, sample=40, seed=1).detected
"""


def _run_probe(source):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_repro_loads_nothing_beyond_the_stdlib_and_repro():
    out = _run_probe(PROBE.format(run=""))
    assert out.split() == ["repro"], out


def test_flow_packages_import_without_numpy():
    # importing the flow (CLI start-up, the benchmark's set-up) stays cheap
    probe = (
        "import sys\n"
        "import repro, repro.atpg, repro.faults, repro.soc, repro.flow\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run_probe(probe).strip() == "False"


def test_importing_and_running_repro_loads_no_third_party_package():
    out = _run_probe(PROBE.format(run=RUN))
    assert out.split() == ["repro"], out
