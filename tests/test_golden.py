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

Those runs end at DURATION, before most of a run's events, so the
``events.csv`` of two full-length (140 s) runs is pinned as well: an
engine change that reorders events late in a run fails there.

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
import re
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
    "no_ramps": "road:\n  on_ramps: []\n  off_ramps: []\n",
}
# name -> YAML config body of a full-length run whose events.csv is pinned.
FULL_LENGTH = {
    "seed0": CONFIGS["seed0"],
    "gamma0_dt_0.2": CONFIGS["gamma0"] + "run:\n  dt: 0.2\n",
}


def run_config(body: str, out: Path, *options: str) -> Path:
    """Write ``body`` to a config file next to ``out``, run
    ``platoonflow run`` on it with ``options`` into ``out``, and return
    the config's path."""
    config = out.with_suffix(".yaml")
    config.write_text(body)
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out),
                     *options]) == 0
    return config


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(name: str, workdir: Path) -> dict[str, str]:
    out = workdir / name
    config = run_config(CONFIGS[name], out, "--duration", str(DURATION),
                        "--plot", f"0:{DURATION:g}")
    digests = {a: file_digest(out / a) for a in ARTIFACTS}
    params = replace(parse_config(config), duration=DURATION)
    digests["records"] = records_digest(run(params).trajectory)
    return digests


def full_length_events_digest(name: str, workdir: Path) -> str:
    out = workdir / f"full_{name}"
    run_config(FULL_LENGTH[name], out)
    return file_digest(out / "events.csv")


def records_digest(tr) -> str:
    """Digest of every record field, floats in exact hex, in engine order:
    one line per row of time, the two ids, the seven float columns and
    the mode's name."""
    floats = (tr.p, tr.v, tr.accel, *tr.physics())
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
    assert set(data["full_length_events"]) == set(FULL_LENGTH)
    assert data["duration_s"] == DURATION


def test_ci_installs_the_recorded_numpy():
    # NEP 19 does not promise that Generator streams stay the same
    # across numpy releases, so CI installs the one the digests record.
    workflow = DATA.parents[1] / ".github" / "workflows" / "tier1.yml"
    assert re.findall(r"\bnumpy==(\S+)", workflow.read_text()) == [
        json.loads(DATA.read_text())["platform"]["numpy"]]


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


@pytest.mark.parametrize("name", sorted(FULL_LENGTH))
def test_full_length_events_match_golden_digests(name, tmp_path):
    data = json.loads(DATA.read_text())
    assert (full_length_events_digest(name, tmp_path)
            == data["full_length_events"][name]), (
        f"full-length events.csv of {name!r} changed; {platform_note(data)}")


def golden_data(workdir: Path) -> dict:
    """The data file for the current code, with its ``source`` note
    carried over from the file as it stands."""
    return {
        "digests": {n: artifact_digests(n, workdir) for n in sorted(CONFIGS)},
        "duration_s": DURATION,
        "full_length_events": {n: full_length_events_digest(n, workdir)
                               for n in sorted(FULL_LENGTH)},
        "platform": current_platform(),
        "source": json.loads(DATA.read_text())["source"],
        "verify": {r.name: r.detail for r in run_all(SimParams())},
    }


def test_the_regenerator_writes_every_key(monkeypatch, tmp_path):
    # Stand-ins for the runs: only the keys are compared.
    monkeypatch.setitem(globals(), "artifact_digests", lambda n, w: {})
    monkeypatch.setitem(globals(), "full_length_events_digest",
                        lambda n, w: "")
    monkeypatch.setitem(globals(), "run_all", lambda params: [])
    assert golden_data(tmp_path).keys() == json.loads(DATA.read_text()).keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(golden_data(Path(tmp)), sys.stdout, indent=1,
                  sort_keys=True)
    print()
