"""What each entry point of the package loads.

The acceptance checks and the library need neither the YAML front end
nor the argument parser, and a fresh process compiles every module it
loads when no bytecode is cached, so a stray import shows up as setup
time.  Each probe runs in a child, ``-B`` keeping it from writing
bytecode, so the modules this test process has loaded do not count.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import {module}
print(repr(sorted(name for name in sys.argv[2:] if name in sys.modules)))
"""


def loaded(module, names):
    """Which of ``names`` are in ``sys.modules`` after a fresh
    ``import module``."""
    return ast.literal_eval(subprocess.run(
        [sys.executable, "-B", "-c", PROBE.format(module=module),
         str(ROOT / "src"), *names],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout)


@pytest.mark.parametrize("module, unloaded", [
    ("platoonflow.verify", ("platoonflow.cli", "platoonflow.svgplot",
                            "yaml", "argparse")),
    ("platoonflow", ("platoonflow.analysis", "platoonflow.verify",
                     "platoonflow.cli", "platoonflow.svgplot", "yaml")),
])
def test_import_leaves_the_front_end_unloaded(module, unloaded):
    assert loaded(module, unloaded) == []


def test_the_probe_sees_a_loaded_module():
    assert loaded("platoonflow.cli", ("platoonflow.cli", "yaml")) == [
        "platoonflow.cli", "yaml"]


def test_cli_and_trajectory_share_one_csv_writer():
    import platoonflow.cli as cli
    import platoonflow.trajectory as trajectory
    import platoonflow.verify as verify
    assert cli.trajectory_csv_text is trajectory.trajectory_csv_text
    assert verify.trajectory_csv_text is trajectory.trajectory_csv_text
