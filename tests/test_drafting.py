"""The paper's outcome on every run of ``RUNS``: drafting saves energy
and platoons form.

The saving compares each run's drag effort, ``sum(drag**2)`` over every
row, with the same speeds driven solo, ``sum((c0*v**2)**2)``.  A row is
in a formed pair when ``analysis.in_formation`` holds for it and the row
ahead.  Both bounds are plain positivity, not thresholds fitted to
today's values.
"""

import numpy as np
import pytest

from platoonflow import run
from platoonflow.analysis import in_formation
from platoonflow.trajectory import pair_rows
from conftest import RUNS


@pytest.fixture(scope="module", params=list(RUNS))
def trajectory(request):
    return run(RUNS[request.param]).trajectory


def test_drafting_saves_energy(trajectory):
    c0 = trajectory.params.drag.c0
    drag, v = trajectory.physics().drag, np.array(trajectory.v)
    saving = 1.0 - np.sum(drag ** 2) / np.sum((c0 * v ** 2) ** 2)
    assert saving > 0.0


def test_platoons_form(trajectory):
    p, v = np.array(trajectory.p), np.array(trajectory.v)
    back = pair_rows(trajectory.offsets)
    formed = in_formation(p[back - 1], v[back - 1], p[back], v[back],
                          trajectory.params)
    assert formed.mean() > 0.0
