"""``sim.PHASES`` states the order of a step's phases once.

``step`` runs them by name, ``opcount.py`` counts each one's bytecodes,
and the benchmark's tracer (``perfbench/tracing.py``) still lists them
for itself, tied to ``PHASES`` here.  Each probe runs in a child, which
``-B`` keeps from writing bytecode under perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

from platoonflow import sim

ROOT = Path(__file__).resolve().parent.parent

TRACER_PHASES = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import SIM_PHASES
print(repr([attr for _, attr in SIM_PHASES]))
"""

# Counts a short default unit, then again with each phase in turn
# rebound to a wrapper that does some work of its own first.
PADDED = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from opcount import count, unit_params
from platoonflow import sim
params = unit_params("default", 5.0)
counts = {"": count(params)["bytecodes_per_vstep"]}
for name in sim.PHASES:
    original = getattr(sim, name)
    def padded(world, stamp):
        for _ in range(10):
            pass
        return original(world, stamp)
    setattr(sim, name, padded)
    counts[name] = count(params)["bytecodes_per_vstep"]
    setattr(sim, name, original)
print(json.dumps(counts))
"""


def child(*args):
    return subprocess.run([sys.executable, "-B", *args],
                          capture_output=True, text=True, check=True,
                          cwd=ROOT).stdout


def test_the_tracer_wraps_the_phases_step_runs():
    assert child("-c", TRACER_PHASES, str(ROOT / "src"),
                 str(ROOT / "perfbench")) == f"{list(sim.PHASES)!r}\n"


def test_step_names_no_phase():
    names = set(sim.step.__code__.co_names)
    assert names.isdisjoint(sim.PHASES)


def test_the_count_repeats_exactly_in_fresh_processes():
    lines = {child("opcount.py", "--duration", "5") for _ in range(3)}
    assert len(lines) == 1
    record = json.loads(lines.pop())
    assert list(record["bytecodes_per_vstep"]) == [*sim.PHASES, "step",
                                                   "total"]
    assert record["vsteps"] > 0


def test_work_added_to_a_phase_moves_its_count_alone():
    counts = json.loads(child("-c", PADDED, str(ROOT)))
    base = counts.pop("")
    for name, padded in counts.items():
        moved = {key for key in base if padded[key] != base[key]}
        assert moved == {name, "total"}, name
        assert padded[name] > base[name]
