"""A census of sub-``delta`` gaps on every run of ``RUNS``: each episode
has a named cause, and each cause a worst excess that may only shrink.

An *episode* is a maximal run of stored steps in which the same two
vehicles are adjacent and their bumper gap is under ``delta``.  Its
*excess* at a step is ``delta`` minus the gap.  Each episode is classed
at its onset, from the columns of its first step and of the step
before, in this order (the classes are closed: every episode gets one):

- ``headed``: the ego headed a platoon at control (``mode & 1``);
- ``no pair``: the two were not adjacent one step before;
- ``not closing``: the pair was not closing one step before;
- ``ahead heads``: it was closing, and the vehicle ahead headed a
  platoon;
- ``closing``: it was closing.

A vehicle sees its predecessor's command one step late, so a run's
worst excess must stay under ``(v_max - v_min) * dt + |a_min| * dt**2 /
2``: 1.52 m at ``dt`` 0.1 and 3.08 m at ``dt`` 0.2.  A follower that
ignores its predecessor's command (``pred_accel = 0.0`` in
``sim._decide``) breaks both gates: seed 0 reaches 3.50 m.
"""

import numpy as np
import pytest

from platoonflow.analysis import previous_rows
from platoonflow.trajectory import pair_rows

from conftest import RUNS

# Each class's worst excess in metres, as the engine gave it when this
# census was written, rounded up at 0.1 mm.  A class not listed had no
# episode.
WORST = {
    "seed0": {"closing": 0.1090, "headed": 0.0146, "not closing": 0.0599},
    "seed7": {"closing": 0.1802, "headed": 0.0068},
    "gamma0_dt0.2": {"closing": 1.8249, "ahead heads": 2.5008},
    "worst_case_pred_accel": {"headed": 0.0194},
}


def gap_episodes(tr):
    """``(onset class, worst excess)`` of every episode of ``tr``, in
    onset order."""
    p, v = np.array(tr.p), np.array(tr.v)
    vid, mode = tr.vehicle_id, tr.mode
    prev = previous_rows(tr).tolist()
    back = pair_rows(tr.offsets)
    has_pair = np.zeros(len(p), np.bool_)
    has_pair[back] = True
    excess = np.full(len(p), -np.inf)
    excess[back] = p[back] - p[back - 1] + tr.params.delta
    episodes = []
    episode_of = {}  # row -> index into episodes
    for b in np.flatnonzero(excess > 0.0).tolist():
        a = prev[b]  # the ego's row one step before, or -1
        paired = a >= 0 and has_pair[a] and vid[a - 1] == vid[b - 1]
        if paired and a in episode_of:
            k = episode_of[b] = episode_of[a]
            episodes[k][1] = max(episodes[k][1], excess[b])
            continue
        if mode[b] & 1:
            cause = "headed"
        elif not paired:
            cause = "no pair"
        elif v[a] <= v[a - 1]:
            cause = "not closing"
        elif mode[a - 1] & 1:
            cause = "ahead heads"
        else:
            cause = "closing"
        episode_of[b] = len(episodes)
        episodes.append([cause, excess[b]])
    return episodes


@pytest.fixture(scope="module", params=list(RUNS))
def census(request, run_of):
    name = request.param
    return name, gap_episodes(run_of(RUNS[name]).trajectory)


def test_no_class_grows_past_its_worst(census):
    name, episodes = census
    worst = {}
    for cause, excess in episodes:
        worst[cause] = max(worst.get(cause, 0.0), excess)
    pinned = WORST[name]
    assert all(w <= pinned.get(cause, 0.0) for cause, w in worst.items()), \
        (worst, pinned)


def test_each_run_stays_under_the_one_step_lag_bound(census):
    name, episodes = census
    params = RUNS[name]
    bound = ((params.v_max - params.v_min) * params.dt
             + abs(params.a_min) * params.dt ** 2 / 2.0)
    assert max((excess for _, excess in episodes), default=0.0) < bound
