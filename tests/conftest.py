import math
from array import array

import pytest

from platoonflow import DragLaw, ExponentialWakeDrag, SimParams, run, step
from platoonflow.constraints import deadline_margin, stopping_margin
from platoonflow.trajectory import COLUMNS, DERIVED_COLUMNS
from platoonflow.verify import RunCorpus


@pytest.fixture(scope="session")
def params():
    return SimParams()


@pytest.fixture(scope="session")
def short_run():
    """One seeded 40 s open-highway run shared by engine-level tests."""
    return run(SimParams(duration=40.0, seed=1))


@pytest.fixture(scope="session")
def corpus():
    """The default-parameter verify corpus, built once per session by the
    first check that reads it."""
    return RunCorpus(SimParams())


class DelegatingWake(DragLaw):
    """A law the fused kernel does not know that computes the default
    law, so its composed solve must give the kernel's answer."""

    def __init__(self, coeffs):
        self.inner = ExponentialWakeDrag(coeffs)

    def force(self, v, p_hat, in_wake):
        return self.inner.force(v, p_hat, in_wake)

    def partials(self, v, p_hat, in_wake):
        return self.inner.partials(v, p_hat, in_wake)

    def descent_bound(self, v, p_hat, v_hat, in_wake):
        return self.inner.descent_bound(v, p_hat, v_hat, in_wake)


def derived_bytes(tr):
    """The trajectory's derived columns as bytes, by column name."""
    return {name: getattr(tr, name).tobytes() for name in DERIVED_COLUMNS}


def step_world(world, params, n, targets, *, fresh=False):
    """Step ``world`` ``n`` times, noting every vehicle on the road as
    ``targets[vehicle id] = (exit_pos, deadline)``.  With ``fresh`` every
    stored follower solve is dropped before each step, so every follower
    calls the kernel."""
    for _ in range(n):
        if fresh:
            for veh in world.vehicles:
                veh.last_solve = None
        step(world, params)
        for veh in world.vehicles:
            targets[veh.vid] = (veh.exit_pos, veh.deadline)


def world_bytes(world):
    """Every trajectory column, the events and the counters of
    ``world``, in a form that compares equal only when bitwise equal."""
    tr = world.trajectory
    columns = {name: getattr(tr, name).tobytes()
               for name in ("times", "offsets") + COLUMNS}
    return columns, [repr(e) for e in world.events], dict(world.counters)


def recompute_derived(tr, law, params, targets):
    """The derived columns of ``tr`` recomputed row by row from its state
    columns, as bytes by column name."""
    out = {name: array("d") for name in DERIVED_COLUMNS}
    p, v = tr.p, tr.v
    for time, start, stop in tr.steps():
        for i in range(start, stop):
            if i == start:
                drag = law.force(v[i], 0.0, False)
                gs = math.nan
            else:
                p_hat = p[i] - p[i - 1]
                drag = law.force(v[i], p_hat, True)
                gs = stopping_margin(v[i], p_hat, v[i] - v[i - 1], params)
            exit_pos, deadline = targets[tr.vehicle_id[i]]
            out["u"].append(tr.accel[i] + drag)
            out["drag"].append(drag)
            out["gs_margin"].append(gs)
            out["deadline_margin"].append(
                deadline_margin(p[i], v[i], time, exit_pos, deadline))
    return {name: col.tobytes() for name, col in out.items()}
