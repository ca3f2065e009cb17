import math
from array import array
from dataclasses import replace
from functools import cache

import pytest

from platoonflow import SimParams, Trajectory, VehicleMode, run, step
from platoonflow import deadline_margin, drag_force, stopping_margin
from platoonflow.trajectory import DERIVED_COLUMNS, STORED_COLUMNS
from platoonflow.verify import RunCorpus

# Full-length runs that tests read whole, every row and every event.
RUNS = {
    "seed0": SimParams(seed=0),
    "seed7": SimParams(seed=7),
    "gamma0_dt0.2": SimParams(gamma=0.0, dt=0.2, seed=3),
    "worst_case_pred_accel": SimParams(worst_case_pred_accel=True, seed=1),
}


def with_law(params, **coefficients):
    """``params`` with the drag-law coefficients ``coefficients``
    replaced."""
    return replace(params, drag=replace(params.drag, **coefficients))


def modes(world):
    """Each vehicle's ``VehicleMode``, front to back: bit 0 when nobody
    directly ahead shares its platoon id, bit 1 its relaxed flag."""
    out, ahead = [], None
    for veh in world.vehicles:
        out.append(VehicleMode((veh.platoon_id != ahead) | 2 * veh.relaxed))
        ahead = veh.platoon_id
    return out


@pytest.fixture(scope="session")
def params():
    return SimParams()


@pytest.fixture(scope="session")
def short_run():
    """One seeded 40 s open-highway run shared by engine-level tests."""
    return run(SimParams(duration=40.0, seed=1))


@pytest.fixture(scope="session")
def run_of():
    """``run_of(params)`` is ``run(params)``, run once per session by the
    first test that asks for it.  Tests share each result, so a test only
    reads one: a test that changes a run makes its own, and a test that
    compares two runs makes at least one of them."""
    return cache(run)


@pytest.fixture(scope="session")
def corpus():
    """The default-parameter verify corpus, built once per session by the
    first check that reads it."""
    return RunCorpus(SimParams())


def hand_built(steps, params, registered=None):
    """A trajectory of ``steps``, appended as the engine appends them and
    its physics computed under ``params``, and the targets it registered.

    Each step is ``(time, rows)``, its rows front to back, each row
    ``(vid, p, v)`` optionally followed by ``accel``, ``platoon_id`` and
    the mode code.  These default to ``0.25 * (vid % 3) - 0.25``, 0 and
    0 (``FOLLOWER``).  Every vehicle is registered, as ``targets[vid] =
    (exit_pos, deadline)``, unless ``registered`` names the ids to
    register.
    """
    tr = Trajectory(params)
    targets = {}
    vids = sorted({row[0] for _, rows in steps for row in rows})
    for vid in vids if registered is None else registered:
        targets[vid] = (1000.0 + 10.0 * vid, 50.0 + vid)
        tr.register(vid, *targets[vid])
    for time, rows in steps:
        vid, p, v, accel, pid, mode = zip(*(
            tuple(row) + (0.25 * (row[0] % 3) - 0.25, 0, 0)[len(row) - 3:]
            for row in rows))
        tr.append_step(time, list(vid), list(pid), list(p), list(v),
                       list(accel), list(mode))
    return tr, targets


def derived_bytes(tr, start=0, stop=None):
    """The physics of ``tr``'s steps ``start:stop`` as bytes, by column
    name."""
    return {name: column.tobytes() for name, column
            in zip(DERIVED_COLUMNS, tr.physics(start, stop))}


def step_world(world, n, targets, *, fresh=False):
    """Step ``world`` ``n`` times, noting every vehicle on the road as
    ``targets[vehicle id] = (exit_pos, deadline)``.  With ``fresh`` every
    stored follower solve is dropped before each step, so every follower
    calls the kernel."""
    for _ in range(n):
        if fresh:
            for veh in world.vehicles:
                veh.last_solve = None
        step(world)
        for veh in world.vehicles:
            targets[veh.vid] = (veh.exit_pos, veh.deadline)


def written_bytes(world):
    """Every stored trajectory column and the events of ``world``, or of
    a run's result, in a form that compares equal only when bitwise
    equal."""
    tr = world.trajectory
    columns = {name: getattr(tr, name).tobytes()
               for name in ("times", "offsets") + STORED_COLUMNS}
    return columns, [repr(e) for e in world.events]


def world_bytes(world):
    """``written_bytes`` of ``world`` and its trajectory's physics."""
    return written_bytes(world) + (derived_bytes(world.trajectory),)


def recompute_derived(tr, params, targets):
    """The physics of ``tr`` recomputed row by row from its stored
    columns under ``params``, as bytes by column name."""
    law = params.drag
    out = {name: array("d") for name in DERIVED_COLUMNS}
    p, v = tr.p, tr.v
    for time, start, stop in tr.steps():
        for i in range(start, stop):
            if i == start:
                drag = drag_force(v[i], -math.inf, law)
                gs = math.nan
            else:
                p_hat = p[i] - p[i - 1]
                drag = drag_force(v[i], p_hat, law)
                gs = stopping_margin(v[i], p_hat, v[i] - v[i - 1], params)
            exit_pos, deadline = targets[tr.vehicle_id[i]]
            out["u"].append(tr.accel[i] + drag)
            out["drag"].append(drag)
            out["gs_margin"].append(gs)
            out["deadline_margin"].append(
                deadline_margin(p[i], v[i], time, exit_pos, deadline))
    return {name: col.tobytes() for name, col in out.items()}
