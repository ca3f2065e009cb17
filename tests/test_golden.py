"""Golden SHA-256 digests of the run artifacts for a small config matrix.

The digests pin trajectories, events, metrics and the time-space SVG
(over the whole run) byte for byte across refactors: a change of
behaviour anywhere in the engine, the controller kernels or the writers
fails here, even when two runs in one process still agree with each
other.  The CSV keeps six significant digits, so a further digest
covers every recorded field at full precision (``float.hex``), which a
one-ulp change in a kernel already moves.  The digests depend on libm's
``exp``, so the data file records the platform they were taken on, and
a mismatch reports it next to the running one.

The data file also pins the detail line of each of the ten ``verify``
checks for default parameters; ``test_acceptance.py`` asserts every
check's line against it where it runs the check.

To print the data file for the current code (for instance after an
intended change of behaviour, which must then be stated as such), with
its ``source`` note carried over from the file as it stands:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from platoonflow import SimParams, backend_name, run
from platoonflow.cli import main, parse_config
from platoonflow.trajectory import MODE_NAMES
from platoonflow.verify import run_all

DATA = Path(__file__).with_name("golden_digests.json")
ARTIFACTS = ("trajectory.csv", "events.csv", "metrics.txt", "timespace.svg")
DURATION = 40.0

# name -> YAML config body; every run lasts DURATION simulated seconds.
CONFIGS = {
    **{f"seed{s}": f"run:\n  seed: {s}\n" for s in range(5)},
    "gamma0": "control:\n  gamma: 0.0\n",
    "worst_case_pred_accel": "control:\n  worst_case_pred_accel: true\n",
    "no_deadlines": "control:\n  enforce_deadlines: false\n",
    "dt_0.05": "run:\n  dt: 0.05\n",
}


def artifact_digests(name: str, workdir: Path) -> dict[str, str]:
    config = workdir / f"{name}.yaml"
    config.write_text(CONFIGS[name])
    out = workdir / name
    argv = ["run", "--config", str(config), "--out", str(out),
            "--duration", str(DURATION), "--plot", f"0:{DURATION:g}"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    digests = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
               for a in ARTIFACTS}
    params = replace(parse_config(config), duration=DURATION)
    digests["records"] = records_digest(run(params).trajectory)
    return digests


def records_digest(tr) -> str:
    """Digest of every record field, floats in exact hex, in engine order:
    one line per row of time, the two ids, the seven float columns and
    the mode's name."""
    floats = (tr.p, tr.v, tr.accel, tr.u, tr.drag, tr.gs_margin,
              tr.deadline_margin)
    h = hashlib.sha256()
    for time, start, stop in tr.steps():
        for i in range(start, stop):
            h.update(",".join([
                time.hex(), str(tr.vehicle_id[i]), str(tr.platoon_id[i]),
                *(column[i].hex() for column in floats),
                MODE_NAMES[tr.mode[i]]]).encode() + b"\n")
    return h.hexdigest()


def current_platform() -> dict[str, str]:
    """The platform fields the data file records, for the running process."""
    return {
        "backend": backend_name(),
        "libc": " ".join(platform.libc_ver()),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def test_matrix_is_pinned():
    data = json.loads(DATA.read_text())
    assert set(data["digests"]) == set(CONFIGS)
    assert data["duration_s"] == DURATION


def platform_note(data: dict) -> str:
    """Where the golden values were taken and where they run now."""
    recorded, running = data["platform"], current_platform()
    note = ("" if recorded == running else
            "; the platform differs from the one the digests were taken on, "
            "so libm or numpy may explain the mismatch")
    return f"recorded on {recorded}, running on {running}{note}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_digests(name, tmp_path):
    data = json.loads(DATA.read_text())
    assert artifact_digests(name, tmp_path) == data["digests"][name], (
        f"digests of {name!r} changed; {platform_note(data)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {n: artifact_digests(n, Path(tmp)) for n in sorted(CONFIGS)}
    json.dump({"digests": digests, "duration_s": DURATION,
               "platform": current_platform(),
               "source": json.loads(DATA.read_text())["source"],
               "verify": {r.name: r.detail for r in run_all(SimParams())}},
              sys.stdout, indent=1, sort_keys=True)
    print()
