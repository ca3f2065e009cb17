"""Every recorded command replays from the trajectory.

A row's ``accel`` is the command its vehicle was given from the state
of the step stored before it: its own row there, and the row above that
one, its predecessor, whose ``accel`` was the predecessor's last
command.  So the decision kernels, fed those rows, the mode the row
records, and a deadline flag read from that step's ``deadline_margin``
column, must return the row's ``accel`` bit for bit.  Only a vehicle's
first row has no step before it to replay from.
"""

import math

import pytest

from platoonflow import _kernels_py as kernels
from platoonflow.sim import EVENT_SPAWN

from conftest import RUNS


def replay(tr):
    """Re-solve every row that has a row of its vehicle in the step
    stored before it; return how many rows that was, and ``(time,
    vehicle id)`` of each whose command differs from the recorded one
    in any bit."""
    params = tr.params
    vid, p, v, accel, mode = tr.vehicle_id, tr.p, tr.v, tr.accel, tr.mode
    margin = tr.physics().deadline_margin
    steps = list(tr.steps())
    replayed, mismatched = 0, []
    for (_, lo, hi), (time, start, stop) in zip(steps, steps[1:]):
        row_before = {vid[j]: j for j in range(lo, hi)}
        for i in range(start, stop):
            j = row_before.get(vid[i])
            if j is None:
                continue
            m = mode[i]
            deadline_active = (params.enforce_deadlines and m < 2
                               and margin[j] >= -params.eps_d)
            if j > lo:
                p_hat, v_hat = p[j] - p[j - 1], v[j] - v[j - 1]
                pred_accel = accel[j - 1]
            else:
                assert m & 1, f"follower {vid[i]} had no predecessor"
                p_hat, v_hat, pred_accel = -math.inf, 0.0, 0.0
            if m & 1:
                decision = kernels.leader_decision(
                    v[j], p_hat, v_hat, pred_accel, m == 3, deadline_active,
                    params)
            else:
                decision = kernels.follower_decision(
                    v[j], p_hat, v_hat, pred_accel, deadline_active, params)
            replayed += 1
            if decision[0].hex() != accel[i].hex():
                mismatched.append((time, vid[i]))
    return replayed, mismatched


@pytest.mark.parametrize("name", RUNS)
def test_every_command_replays_from_the_step_before(run_of, name):
    result = run_of(RUNS[name])
    tr = result.trajectory
    replayed, mismatched = replay(tr)
    assert mismatched == []
    # The rows left out are exactly the spawned vehicles' first rows.
    spawned = [e.kind for e in result.events].count(EVENT_SPAWN)
    assert len(tr) - replayed == spawned
