"""The benchmark still reaches every layer it traces.

``perfbench/tracing.py`` wraps package functions by name and reports a
name it cannot find as absent, which turns that layer's metrics into
``null`` instead of failing.  A rename or deletion in the package must
therefore show up here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ``instrument`` rebinds package functions for the life of the process,
# so it runs in a child, which ``-B`` keeps from writing bytecode under
# perfbench/.
PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import platoonflow
from tracing import Tracer, instrument
tracer = Tracer()
instrument(tracer)
print(repr((tracer.absent, platoonflow.backend_name())))
"""


def test_instrument_finds_every_traced_layer():
    out = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT)
    assert out.stdout.strip() == repr(([], "python"))
