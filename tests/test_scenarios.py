"""Scenario sweep: valid parameter sets run clean and brake only.

Hypothesis draws whole scenarios (speed and actuator box, envelope
rate, spacing, time step, ramp layout, the worst-case switch, deadlines
on or off) and runs each for 20-30 simulated seconds.  Every run must
finish without a ``SimulationError``, no vehicle outside
LEADER_RECOVERING may ever command a positive acceleration, and the
trajectory's derived columns must equal a row-by-row recomputation.
A second sweep runs each scenario twice, once solving every follower
afresh each step, and requires the same outcome bit for bit.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from platoonflow import (
    DragCoefficients,
    RoadNetwork,
    SimParams,
    SimulationError,
    VehicleMode,
    WorldState,
    validate_params,
)
from platoonflow.trajectory import MODE_CODES

from conftest import (
    derived_bytes,
    recompute_derived,
    step_world,
    world_bytes,
)

RECOVERING = MODE_CODES[VehicleMode.LEADER_RECOVERING]


@st.composite
def roads(draw):
    length = draw(st.floats(800.0, 3000.0))
    inner = st.floats(50.0, length - 50.0)
    on_ramps = draw(st.lists(inner, max_size=3, unique=True))
    off_ramps = draw(st.lists(inner, max_size=3, unique=True))
    return RoadNetwork(length=length, on_ramps=tuple(sorted(on_ramps)),
                       off_ramps=tuple(sorted(off_ramps)))


@st.composite
def scenarios(draw):
    v_min = draw(st.floats(10.0, 25.0))
    return SimParams(
        v_min=v_min,
        v_max=v_min + draw(st.floats(3.0, 20.0)),
        a_min=draw(st.floats(-6.0, -1.0)),
        a_max=draw(st.floats(0.5, 4.0)),
        delta=draw(st.floats(2.0, 10.0)),
        dt=draw(st.sampled_from([0.05, 0.1, 0.2])),
        duration=draw(st.floats(20.0, 30.0)),
        seed=draw(st.integers(0, 10_000)),
        gamma=draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0))),
        worst_case_pred_accel=draw(st.booleans()),
        enforce_deadlines=draw(st.booleans()),
        drag=DragCoefficients(c2=draw(st.floats(0.02, 0.2))),
        road=draw(roads()),
    )


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=scenarios())
def test_valid_scenarios_run_clean_and_brake_only(params):
    assert validate_params(params) == []
    world, targets = WorldState.initial(params), {}
    step_world(world, params, round(params.duration / params.dt), targets)
    tr = world.trajectory
    worst = max((a for a, m in zip(tr.accel, tr.mode) if m != RECOVERING),
                default=-math.inf)
    assert worst <= 0.0
    assert derived_bytes(tr) == recompute_derived(tr, world.drag_law, params,
                                                  targets)


def outcome(params, fresh):
    """A run's columns, events and counters, and the engine error that
    stopped it, if one did."""
    world = WorldState.initial(params)
    try:
        step_world(world, params, round(params.duration / params.dt), {},
                   fresh=fresh)
    except SimulationError as exc:
        return world_bytes(world), repr(exc)
    return world_bytes(world), None


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=scenarios())
def test_reused_solves_change_nothing(params):
    # Engine errors are compared here, not ruled out: the sweep above
    # rules them out, and a run that stops must stop the same way.
    assert outcome(params, fresh=False) == outcome(params, fresh=True)
