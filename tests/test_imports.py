"""What each entry point of the package loads, and which way the
layers import.

The acceptance checks and the library need neither the YAML front end
nor the argument parser, and a fresh process compiles every module it
loads when no bytecode is cached, so a stray import shows up as setup
time.  Each probe runs in a child, ``-B`` keeping it from writing
bytecode, so the modules this test process has loaded do not count.

The layering runs one way: ``core`` holds the types and imports no
module of the package, and ``_kernels_py`` imports one only for its
annotations.  A probe cannot show that, since importing any submodule
runs the package ``__init__`` first, so it is read from the source.
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


PACKAGE = ROOT / "src" / "platoonflow"
GUARDS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def package_imports(source):
    """``(line, module, guarded)`` of each ``platoonflow`` module an
    import in ``source`` names, read as a module of the package (a
    relative import is from ``platoonflow``, and a name imported from
    the package itself is its submodule); ``guarded`` when the import
    sits under ``if TYPE_CHECKING:``, which only a type checker runs."""
    tree = ast.parse(source)
    guarded = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.If) and ast.unparse(node.test) in GUARDS
               for stmt in node.body for inner in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ((node.module or "") if node.level == 0 else
                    ".".join(filter(None, ("platoonflow", node.module))))
            names = ([f"{base}.{alias.name}" for alias in node.names]
                     if base == "platoonflow" else [base])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name, id(node) in guarded) for name in names
                  if name.split(".")[0] == "platoonflow"]
    return found


def test_the_reader_sees_each_kind_of_package_import():
    source = ("import math\nfrom . import sim, cli as c\n"
              "import platoonflow.cli\nfrom platoonflow import core\n"
              "from .controller import leader_control\n"
              "from platoonflow.sim import run\n"
              "if TYPE_CHECKING:\n    from .core import SimParams\n")
    assert package_imports(source) == [
        (2, "platoonflow.sim", False), (2, "platoonflow.cli", False),
        (3, "platoonflow.cli", False), (4, "platoonflow.core", False),
        (5, "platoonflow.controller", False), (6, "platoonflow.sim", False),
        (8, "platoonflow.core", True)]


def test_core_imports_no_package_module():
    assert package_imports((PACKAGE / "core.py").read_text()) == []


def test_the_kernels_import_package_modules_for_annotations_only():
    found = package_imports((PACKAGE / "_kernels_py.py").read_text())
    assert [guarded for _, _, guarded in found] == [True] * len(found)


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py")
    if path.stem not in ("__init__", "controller")))
def test_the_engine_and_readers_import_nothing_from_the_controller(module):
    # The controller is the solves' report API: every other module of
    # the package calls the kernels directly, and only the package root
    # exports it.
    found = package_imports((PACKAGE / f"{module}.py").read_text())
    assert [line for line, name, _ in found
            if name == "platoonflow.controller"] == []

