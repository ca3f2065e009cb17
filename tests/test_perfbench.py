"""The benchmark still reaches every layer it traces.

``perfbench/tracing.py`` wraps package functions by name and reports a
name it cannot find as absent, which turns that layer's metrics into
``null`` instead of failing.  A rename or deletion in the package must
therefore show up here, and so must a wrapper that is installed but
never called because the engine holds the function it wraps some other
way.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ``instrument`` rebinds package functions for the life of the process,
# so each probe runs in a child, which ``-B`` keeps from writing bytecode
# under perfbench/.
PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import platoonflow
from tracing import Tracer, instrument
tracer = Tracer()
instrument(tracer)
print(repr((tracer.absent, platoonflow.backend_name())))
"""

CALLED_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import platoonflow.sim
from platoonflow import SimParams
from tracing import SIM_PHASES, Tracer, instrument
tracer = Tracer()
instrument(tracer)
platoonflow.sim.run(SimParams(duration=10.0))
names = (["sim.step", "kernels.follower", "kernels.leader"]
         + [f"sim.{label}" for label, _ in SIM_PHASES])
print(repr(sorted(n for n in names if tracer.stats[n][0] == 0)))
"""


def probe(code):
    return subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout.strip()


def test_instrument_finds_every_traced_layer():
    assert probe(PROBE) == repr(([], "python"))


def test_a_traced_run_calls_every_engine_wrapper():
    assert probe(CALLED_PROBE) == repr([])
