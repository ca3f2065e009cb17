"""The paper's outcome on every run of ``RUNS``: drafting saves energy
and platoons form.

The saving compares each run's drag effort, ``sum(drag**2)`` over every
row, with the same speeds driven solo, ``sum((c0*v**2)**2)``.  A row is
in a formed pair when ``analysis.in_formation`` holds for it and the row
ahead.  Both bounds are plain positivity, not thresholds fitted to
today's values.

The saving is caused by the controller's wake term: over seeds 0-9,
each run spends less drag effort per metre than its wake-blind twin, a
run whose controller reads ``drag.c1 = 0``.  That too is a sign test.
Two relations of the drag law hold exactly: no decision reads
``drag.c0``, and with ``drag.c1 = 0`` every row has the solo drag.
"""

from dataclasses import replace

import numpy as np
import pytest

from platoonflow import SimParams, drag_force, run
from platoonflow.analysis import in_formation
from platoonflow.trajectory import STORED_COLUMNS, pair_rows
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


def with_law(params, **coefficients):
    return replace(params, drag=replace(params.drag, **coefficients))


def test_no_decision_reads_drag_c0(trajectory):
    # flow_bound's ratio cancels c0 and safe_interval has no drag term,
    # so c0 is pure accounting: a power-of-two scale of it changes no
    # stored bit and scales the drag column exactly.
    params = trajectory.params
    doubled = run(with_law(params, c0=2.0 * params.drag.c0)).trajectory
    for name in ("times", "offsets") + STORED_COLUMNS:
        assert getattr(doubled, name).tobytes() \
            == getattr(trajectory, name).tobytes(), name
    assert doubled.physics().drag.tobytes() \
        == (2.0 * trajectory.physics().drag).tobytes()


def test_without_wake_relief_every_row_has_the_solo_drag(trajectory):
    # With c1 = 0 there is no saving to be had: the drag column is
    # c0 * v**2 bit for bit.
    params = with_law(trajectory.params, c1=0.0)
    tr = run(params).trajectory
    v = np.array(tr.v)
    assert tr.physics().drag.tobytes() \
        == (params.drag.c0 * v * v).tobytes()


def drag_effort_per_metre(tr, law):
    """``sum(drag**2) / sum(v)`` over every row of ``tr``, each row's drag
    taken under ``law`` from its stored ``p`` and ``v``: the drag effort
    ``sum(F**2 * dt)`` per vehicle-metre driven."""
    p, v = np.array(tr.p), np.array(tr.v)
    back = pair_rows(tr.offsets)
    # The front row of each step has nobody ahead: no wake.
    p_hat = np.full(len(p), -np.inf)
    p_hat[back] = p[back] - p[back - 1]
    drag = np.array([drag_force(*row, law)
                     for row in zip(v.tolist(), p_hat.tolist())])
    return np.sum(drag ** 2) / np.sum(v)


@pytest.mark.parametrize("seed", range(10))
def test_the_wake_term_saves_drag_against_a_wake_blind_twin(seed):
    # The twin's controller sees no wake (c1 = 0), but the same air acts
    # on its rows.  Today the twin's effort is 0.7% (seed 1) to 17%
    # higher.
    params = SimParams(seed=seed)
    blind = with_law(params, c1=0.0)
    aware = drag_effort_per_metre(run(params).trajectory, params.drag)
    assert aware < drag_effort_per_metre(run(blind).trajectory, params.drag)
