"""Every recorded command replays from the trajectory, and the replayed
verdicts are the run's events.

``analysis.replay`` re-solves each row from the step stored before it,
by the engine's decide rule (see its docstring), so its ``accel`` must
be the row's bit for bit.  Resequencing acts on those same verdicts, so
each split, deadline relaxation and merge event must sit on a replayed
row whose verdict and recorded mode call for it.  The configs are the
``RUNS`` and three 60 s runs: one with the worst-case predecessor rule
at ``gamma = 0``, and one that enforces no deadline, so that nothing is
ever relaxed.
"""

import numpy as np
import pytest

from platoonflow import SimParams
from platoonflow import _kernels_py as kernels
from platoonflow.analysis import replay, row_times
from platoonflow.sim import EVENT_MERGE, EVENT_RELAX, EVENT_SPAWN, EVENT_SPLIT

from conftest import RUNS

CONFIGS = {
    **RUNS,
    "seed1_60s": SimParams(duration=60.0, seed=1),
    "worst_case_gamma0_60s": SimParams(duration=60.0, seed=2, gamma=0.0,
                                       worst_case_pred_accel=True),
    "no_deadlines_60s": SimParams(duration=60.0, enforce_deadlines=False),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_every_command_replays_from_the_step_before(run_of, name):
    result = run_of(CONFIGS[name])
    tr = result.trajectory
    solved = replay(tr)
    rows = solved.before >= 0
    recorded = np.array(tr.accel)[rows]
    assert recorded.tobytes() == solved.accel[rows].tobytes()
    # The rows left out are exactly the spawned vehicles' first rows.
    spawned = [e.kind for e in result.events].count(EVENT_SPAWN)
    assert len(tr) - rows.sum() == spawned


@pytest.mark.parametrize("name", CONFIGS)
def test_the_replayed_verdicts_are_the_events(run_of, name):
    params = CONFIGS[name]
    result = run_of(params)
    tr = result.trajectory
    solved = replay(tr)
    mode, verdict = np.array(tr.mode), solved.verdict
    # A merge needs a vehicle ahead when resequencing runs: one that was
    # on the road in the step before, not one spawned after it.
    offsets = np.array(tr.offsets)
    stayed = np.concatenate([[0], np.cumsum(solved.before >= 0)])
    stayed_ahead = stayed[:-1] > stayed[np.repeat(offsets[:-1],
                                                  np.diff(offsets))]
    found = {}
    for kind, rows in (
            (EVENT_SPLIT, np.isin(verdict, list(kernels.SPLITS))
             & (mode & 1 == 0)),
            (EVENT_RELAX, (verdict == kernels.VERDICT_DEADLINE_SAFETY_CONFLICT)
             & (mode == 0)),
            (EVENT_MERGE, (verdict == kernels.VERDICT_FEASIBLE)
             & (mode & 1 == 1) & stayed_ahead)):
        found[kind] = sorted(zip(row_times(tr)[rows].tolist(),
                                 np.array(tr.vehicle_id)[rows].tolist()))
        assert found[kind] == sorted((e.time, e.vehicle_id)
                                     for e in result.events if e.kind == kind)
    assert found[EVENT_SPLIT] and found[EVENT_MERGE]
    assert bool(found[EVENT_RELAX]) is params.enforce_deadlines


def test_binding_reads_the_columns_as_it_reads_one_solve(run_of):
    tr = run_of(RUNS["seed0"]).trajectory
    solved = replay(tr)
    follower = (np.array(tr.mode) & 1) == 0
    args = (solved.accel, solved.verdict, solved.lo, solved.cap,
            solved.bound, np.array(tr.v)[solved.before],
            solved.deadline_active, follower)
    columns = [flags.tolist() for flags in kernels.binding(*args, tr.params)]
    rows = zip(*(column.tolist() for column in args))
    assert columns == [list(flags) for flags in zip(*(
        kernels.binding(*row, tr.params) for row in rows))]
    # No vehicle reaches the speed ceiling here; every other name binds.
    assert [any(flags) for flags in columns] == [
        name != "speed_ceiling" for name in kernels.ACTIVE]
