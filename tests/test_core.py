import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonflow import (
    DragCoefficients,
    RoadNetwork,
    SimParams,
    VehicleMode,
    WorldState,
    run,
    validate_params,
)
from platoonflow.core import (_DECLARED, _NON_NEGATIVE, _POSITIVE,
                             _longest_duration)


def test_default_params_validate_clean():
    assert validate_params(SimParams()) == []


@pytest.mark.parametrize("field,value,fragment", [
    ("v_min", -1.0, "v_min"),
    ("v_max", 10.0, "v_min < v_max"),
    ("a_min", 1.0, "a_min < 0"),
    ("a_max", -1.0, "a_min < 0 < a_max"),
    ("delta", 0.0, "delta"),
    ("dt", 0.0, "dt"),
    ("duration", -5.0, "duration"),
    ("seed", -1, "seed"),
    ("eps_g", 0.0, "eps_g"),
    ("gamma", -0.5, "gamma"),
    ("delta", math.nan, "delta must be finite"),
    ("duration", math.inf, "duration must be finite"),
    ("eps_platoon_gap", math.nan, "eps_platoon_gap must be finite"),
    ("gamma", math.inf, "gamma must be finite"),
    ("dt", 1e-310, "duration / dt must be finite"),
    # Finite, but past 2**53 steps a float64 clock stops counting.
    ("dt", 1e-300, "duration / dt must be at most 2**53"),
    # One step at a_min from just above v_min would move a vehicle back.
    ("a_min", -400.5, "a_min * dt must be at least -2 * v_min"),
])
def test_bad_scalar_params_are_reported(field, value, fragment):
    params = dataclasses.replace(SimParams(), **{field: value})
    messages = validate_params(params)
    assert any(fragment in m for m in messages)


def with_setting(name, value):
    """Default params with the setting of dotted ``name`` at ``value``."""
    section, _, key = name.rpartition(".")
    params = SimParams()
    if section:
        value = dataclasses.replace(getattr(params, section), **{key: value})
        key = section
    return dataclasses.replace(params, **{key: value})


@pytest.mark.parametrize("name,value,message", [
    *((name, 0.0, f"{name} must be positive") for name in _POSITIVE),
    *((name, _DECLARED[name](-1), f"{name} must be non-negative")
      for name in _NON_NEGATIVE),
])
def test_each_sign_rule_names_its_setting(name, value, message):
    assert message in validate_params(with_setting(name, value))


@pytest.mark.parametrize("name,value", [
    ("v_min", "20"),
    ("delta", None),
    ("gamma", True),
    ("drag.c0", "x"),
    ("road.on_ramps", (100.0, "a")),
])
def test_a_non_number_setting_is_reported_not_raised(name, value):
    # The rules that would compare the value are skipped.
    params = with_setting(name, value)
    got = value[-1] if isinstance(value, tuple) else value
    assert validate_params(params) == [f"{name} must be a number, got {got!r}"]
    for start in (run, WorldState.initial):
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            start(params)


# Values that break the rule of each declared type: a float setting
# takes a finite float or an int that fits one, the seed an integer, a
# flag only a bool, and a ramp setting a tuple of what a float takes.
WRONG = {
    "float": ["20", None, True, [20.0], 10 ** 400, -10 ** 400],
    "int": ["3", None, True, 1.5],
    "bool": ["no", None, 0, 10 ** 5000],
    "tuple[float, ...]": [[100.0], (10 ** 400,)],
}


def declared(cls=SimParams, prefix=""):
    """``(dotted name, declared type)`` of every setting and section of
    ``cls``, a section's type being its class's name."""
    for f in dataclasses.fields(cls):
        yield prefix + f.name, f.type
        default = getattr(cls(), f.name)
        if dataclasses.is_dataclass(default):
            yield from declared(type(default), f"{prefix}{f.name}.")


def wrong_cases():
    for name, kind in declared():
        for i, value in enumerate(WRONG.get(kind, [None])):
            yield pytest.param(name, value, id=f"{name}-{i}")


@pytest.mark.parametrize("name,value", wrong_cases())
def test_a_value_of_the_wrong_type_is_one_message(name, value):
    # Whatever the value, the rules that would compare it are skipped,
    # and a section's own settings are not read.
    params = with_setting(name, value)
    messages = validate_params(params)
    assert len(messages) == 1 and messages[0].startswith(f"{name} must "), \
        messages
    for start in (run, WorldState.initial):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
            start(params)


@pytest.mark.parametrize("name,value,message", [
    ("delta", 10 ** 400, "delta must fit a float"),
    ("enforce_deadlines", "no", "enforce_deadlines must be a bool, got 'no'"),
    # repr refuses an int of over 4300 digits.
    ("enforce_deadlines", 10 ** 5000,
     "enforce_deadlines must be a bool, got an object of type int"),
    ("road.on_ramps", [100.0], "road.on_ramps must be a tuple, got [100.0]"),
    ("drag", None, "drag must be a DragCoefficients, got None"),
], ids=["float", "flag", "long int", "ramp list", "section"])
def test_each_type_rule_has_its_message(name, value, message):
    assert validate_params(with_setting(name, value)) == [message]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([name for name, _ in declared()]),
       value=st.one_of(
           st.none(), st.booleans(), st.floats(), st.text(max_size=4),
           st.integers(-10 ** 400, 10 ** 400), st.builds(object),
           st.lists(st.floats(), max_size=3),
           st.tuples(st.integers(-10 ** 400, 10 ** 400), st.text())))
def test_validate_params_never_raises(name, value):
    assert isinstance(validate_params(with_setting(name, value)), list)


@pytest.mark.parametrize("name,value", [
    ("delta", 10 ** 300),
    ("road.on_ramps", (100, 600.0)),
])
def test_an_int_that_fits_a_float_is_valid(name, value):
    assert validate_params(with_setting(name, value)) == []


@pytest.mark.parametrize("seed", [1.5, True, "3", math.nan])
def test_a_seed_that_is_not_an_integer_is_reported(seed):
    params = dataclasses.replace(SimParams(), seed=seed)
    assert f"seed must be an integer, got {seed!r}" in validate_params(params)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run(params)


def test_a_numpy_integer_seed_is_valid():
    params = dataclasses.replace(SimParams(duration=1.0), seed=np.int64(7))
    assert validate_params(params) == []
    assert run(params).events == run(SimParams(duration=1.0, seed=7)).events


def test_a_min_on_the_backward_braking_bound_is_valid():
    # At the defaults (v_min 20, dt 0.1) the bound is a_min = -400 exactly.
    assert validate_params(dataclasses.replace(SimParams(), a_min=-400.0)) \
        == []


def test_2_53_steps_pass_the_clock_rule_and_no_more():
    # dt = 0.5 divides exactly, so duration / dt is 2**53 and then the
    # next float above it.  The first run passes the clock's rule and
    # meets the stamp limit's; the second meets only the clock's.
    params = SimParams(dt=0.5, duration=2.0 ** 52)
    assert validate_params(params) == [
        "duration must be at most 100000 at dt=0.5, or later steps share "
        "their time in trajectory.csv and events.csv, got 4.5036e+15"]
    params = dataclasses.replace(params, duration=2.0 ** 52 + 1.0)
    assert validate_params(params) == [
        f"duration / dt must be at most 2**53, got {2.0 ** 53 + 2.0}"]


@pytest.mark.parametrize("dt,limit", [(0.1, 1e5), (0.001, 1e3)])
def test_the_library_refuses_a_run_past_the_stamp_limit(dt, limit):
    # Past the limit, %.6g prints one time for several steps.
    params = SimParams(dt=dt, duration=2 * limit)
    message = (f"duration must be at most {limit:g} at dt={dt:g}, or later "
               f"steps share their time in trajectory.csv and events.csv, "
               f"got {2 * limit:g}")
    assert validate_params(params) == [message]
    for build in (run, WorldState.initial):
        with pytest.raises(ValueError) as info:
            build(params)
        assert str(info.value) == message
    assert validate_params(dataclasses.replace(params, duration=limit)) == []


def test_the_stamp_limit_of_a_huge_step_does_not_overflow():
    assert _longest_duration(1e302) == 1e308
    assert _longest_duration(1e303) == math.inf


def test_zero_duration_is_allowed():
    assert validate_params(SimParams(duration=0.0)) == []


def test_bad_drag_coefficients_are_reported():
    for coeffs, fragment in [
        (DragCoefficients(c0=0.0), "c0"),
        (DragCoefficients(c1=1.0), "c1"),
        (DragCoefficients(c1=-0.1), "c1"),
        (DragCoefficients(c2=0.0), "c2"),
        (DragCoefficients(c2=math.inf), "drag.c2 must be finite"),
    ]:
        params = dataclasses.replace(SimParams(), drag=coeffs)
        assert any(fragment in m for m in validate_params(params))


def test_ramps_must_be_sorted_and_interior():
    road = RoadNetwork(on_ramps=(600.0, 100.0))
    params = dataclasses.replace(SimParams(), road=road)
    assert any("on_ramps" in m for m in validate_params(params))

    road = RoadNetwork(off_ramps=(500.0, 2000.0))
    params = dataclasses.replace(SimParams(), road=road)
    assert any("off_ramps" in m for m in validate_params(params))

    for road, fragment in [
        (RoadNetwork(length=math.inf), "road.length must be finite"),
        (RoadNetwork(on_ramps=(-math.inf,)), "road.on_ramps must be finite"),
        (RoadNetwork(off_ramps=(500.0, math.nan)),
         "road.off_ramps must be finite"),
    ]:
        params = dataclasses.replace(SimParams(), road=road)
        assert any(fragment in m for m in validate_params(params))


@pytest.mark.parametrize("label", ["on_ramps", "off_ramps"])
def test_a_repeated_ramp_is_named(label):
    # A repeat would be drawn as an entry or exit twice as often.
    road = RoadNetwork(**{label: (100.0, 100.0, 400.0, 400.0)})
    params = dataclasses.replace(SimParams(), road=road)
    assert validate_params(params) == [
        f"road.{label} must be strictly ascending; 100 is repeated; "
        "400 is repeated"]


def test_entry_points_include_road_start():
    road = RoadNetwork()
    assert road.entry_points()[0] == 0.0
    assert road.entry_points()[1:] == road.on_ramps


def test_exit_choices_are_strictly_downstream():
    road = RoadNetwork()
    assert road.exit_choices(0.0) == road.off_ramps + (road.length,)
    assert road.exit_choices(600.0) == (1000.0, 1500.0, road.length)
    # entering at the last ramp leaves only the road end
    assert road.exit_choices(1100.0) == (1500.0, road.length)


def test_mode_head_and_relaxed_flags():
    # Bit 0 of a mode's code marks a platoon head, bit 1 a relaxed
    # deadline; the four modes are the four codes.
    heads = {VehicleMode.LEADER, VehicleMode.LEADER_RECOVERING}
    relaxed = {VehicleMode.FOLLOWER_DEADLINE_RELAXED,
               VehicleMode.LEADER_RECOVERING}
    assert sorted(VehicleMode) == [0, 1, 2, 3]
    for mode in VehicleMode:
        assert bool(mode & 1) == (mode in heads)
        assert bool(mode & 2) == (mode in relaxed)
