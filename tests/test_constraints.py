import inspect
import itertools
import math
from dataclasses import replace

from hypothesis import assume, example, given, settings, strategies as st

from platoonflow import (
    DragCoefficients,
    FeasibilityVerdict,
    SimParams,
    deadline_margin,
    flow_bound,
    safe_interval,
    stopping_margin,
    validate_params,
)
from platoonflow import _kernels_py as kernels

PARAMS = SimParams()

speeds = st.floats(min_value=20.0, max_value=35.0)
gaps = st.floats(min_value=-200.0, max_value=-0.1)
rel_speeds = st.floats(min_value=-15.0, max_value=15.0)


class TestStoppingMargin:
    def test_opening_pair_uses_plain_gap(self):
        # not closing: margin is just delta minus the gap
        assert stopping_margin(25.0, -10.0, -1.0, PARAMS) == -5.0

    def test_closing_pair_adds_braking_distance(self):
        assert stopping_margin(30.0, -40.0, 5.0, PARAMS) == -25.625

    def test_zero_at_the_critical_state(self):
        assert stopping_margin(30.0, -17.5, 10.0, PARAMS) == 0.0

    @given(v=speeds, p_hat=gaps, v_hat=rel_speeds)
    def test_nonpositive_margin_implies_gap_at_least_delta(self, v, p_hat,
                                                           v_hat):
        # cap the closing speed at what the predecessor's floor allows
        v_hat = min(v_hat, v - PARAMS.v_min)
        if stopping_margin(v, p_hat, v_hat, PARAMS) <= 0.0:
            assert p_hat + PARAMS.delta <= 0.0

    @given(v=speeds, p_hat=gaps, v_hat=rel_speeds)
    def test_margin_monotone_in_gap(self, v, p_hat, v_hat):
        wider = stopping_margin(v, p_hat - 1.0, v_hat, PARAMS)
        assert wider < stopping_margin(v, p_hat, v_hat, PARAMS)


class TestDeadlineMargin:
    def test_relaxed_deadline_is_negative(self):
        assert deadline_margin(0.0, 35.0, 0.0, 1400.0, 50.0) == -350.0

    def test_missed_deadline_is_positive(self):
        assert deadline_margin(350.0, 30.0, 0.0, 1750.0, 40.0) == 200.0

    def test_zero_on_the_boundary(self):
        # exactly covering the distance at current speed
        assert deadline_margin(0.0, 25.0, 0.0, 250.0, 10.0) == 0.0

    def test_advancing_clock_erodes_slack(self):
        early = deadline_margin(0.0, 25.0, 0.0, 1000.0, 50.0)
        late = deadline_margin(0.0, 25.0, 20.0, 1000.0, 50.0)
        assert late > early


def advance(p, v, a):
    return kernels.advance(p, v, a, PARAMS)


class TestAdvance:
    # Each case compares bit for bit with the update written out.
    def test_inside_the_box(self):
        p, v, a, dt = 120.0, 27.3, -1.7, PARAMS.dt
        assert advance(p, v, a) == (p + v * dt + 0.5 * a * dt * dt,
                                    v + a * dt)

    def test_clipped_at_the_floor_position_follows_the_raw_command(self):
        # Defect B of ROADMAP item 2 (sampled-data safety): the speed
        # stops at v_min, but the position still takes the whole braking
        # command.  That item changes this case on purpose.
        p, v, a, dt = 120.0, 20.2, -4.0, PARAMS.dt
        assert v + a * dt < PARAMS.v_min
        assert advance(p, v, a) == (p + v * dt + 0.5 * a * dt * dt,
                                    PARAMS.v_min)

    def test_clipped_at_the_ceiling(self):
        p, v, a, dt = 120.0, 34.9, 3.0, PARAMS.dt
        assert v + a * dt > PARAMS.v_max
        assert advance(p, v, a) == (p + v * dt + 0.5 * a * dt * dt,
                                    PARAMS.v_max)


def envelope(v, p_hat, v_hat, pred_accel, g):
    """``safe_interval``'s ``(hi, cap)`` for a closing pair, whose
    ``p_hat`` puts its stopping margin at exactly ``g``."""
    _, hi, margin, cap = safe_interval(v, p_hat, v_hat, pred_accel, PARAMS)
    assert margin == g
    return hi, cap


class TestEnvelopeCapInSafeInterval:
    def test_worst_case_pred_at_boundary_allows_full_brake_only(self):
        assert envelope(30.0, -14.375, 5.0, -4.0, 0.0) == (-4.0, -4.0)

    def test_cruising_pred_at_boundary(self):
        assert envelope(30.0, -14.375, 5.0, 0.0, 0.0) == (-2.0, -2.0)

    def test_cap_clips_at_brake_limit(self):
        assert envelope(22.0, -5.5, 2.0, 0.0, 0.0) == (-4.0, -4.0)

    def test_accelerating_pred_can_lift_cap_to_zero(self):
        assert envelope(30.0, -9.5, 2.0, 1.0, 0.0) == (-0.0, -0.0)

    def test_negative_margin_relaxes_the_cap(self):
        _, tight = envelope(30.0, -14.375, 5.0, 0.0, 0.0)
        _, loose = envelope(30.0, -24.375, 5.0, 0.0, -10.0)
        assert loose > tight


@st.composite
def kernel_cases(draw):
    """Validated params and a state the engine can reach under them: a
    speed in the box, and a predecessor ahead, also in the box, or
    nobody ahead, ``(p_hat, v_hat, pred_accel) = (-inf, 0.0, 0.0)``.

    Half of the states lie near the edge of the platooning region
    (README's "Controller in brief"), where the splits are: a gap under
    ``delta + 5`` m, and the vehicle ahead closing in, or pulling away
    with ``a_min`` moved to within 10% of the descent bound, so that the
    bound falls just short of it or just clears it.  Drawn anywhere on
    the road, a pair splits seldom: at the default params it needs a gap
    of about 11 m or less."""
    v_min = draw(st.floats(min_value=0.5, max_value=40.0))
    params = replace(
        PARAMS, v_min=v_min,
        v_max=v_min + draw(st.floats(min_value=0.1, max_value=30.0)),
        a_min=draw(st.floats(min_value=-10.0, max_value=-0.1)),
        a_max=draw(st.floats(min_value=0.1, max_value=10.0)),
        dt=draw(st.floats(min_value=0.01, max_value=0.5)),
        delta=draw(st.floats(min_value=0.5, max_value=20.0)),
        eps_g=draw(st.floats(min_value=1e-3, max_value=5.0)),
        gamma=draw(st.sampled_from((0.0, 0.5, 1.0, 4.0))),
        worst_case_pred_accel=draw(st.booleans()))
    assume(validate_params(params) == [])
    in_box = st.floats(min_value=params.v_min, max_value=params.v_max)
    where = draw(st.sampled_from(("alone", "anywhere", "pulling", "closing")))
    if where == "alone":
        return params, (draw(in_box), -math.inf, 0.0, 0.0)
    if where == "anywhere":
        v = draw(in_box)
        p_hat = draw(st.floats(min_value=-300.0, max_value=-1e-3))
        v_hat = v - draw(in_box)
    else:
        # A speed off the box's edges, and the vehicle ahead faster or
        # slower by a share of the room that the box leaves it.
        v = draw(st.floats(min_value=params.v_min, max_value=params.v_max,
                           exclude_min=True, exclude_max=True))
        p_hat = -draw(st.floats(min_value=1e-3, max_value=params.delta + 5.0))
        room = v - (params.v_max if where == "pulling" else params.v_min)
        v_hat = room * draw(st.floats(min_value=0.0, max_value=1.0,
                                      exclude_min=True))
        bound = flow_bound(v, p_hat, v_hat, params.drag)
        if bound < 0.0:
            params = replace(params, a_min=bound * draw(
                st.floats(min_value=0.9, max_value=1.1)))
            assume(validate_params(params) == [])
    pred_accel = draw(st.floats(min_value=params.a_min,
                                max_value=params.a_max))
    return params, (v, p_hat, v_hat, pred_accel)


# Enough draws of kernel_cases for each of the five verdicts in every run:
# with a random deadline flag, 6 of 40 runs of 100 draws missed some
# verdict, and none of 40 runs of 300 (each drew every verdict 7+ times).
ALL_VERDICTS = settings(max_examples=300)


class TestTheIntervalEnds:
    """The ends ``safe_interval`` returns, on which the decisions rely."""

    @given(case=kernel_cases())
    def test_lo_is_a_min_or_zero_at_the_floor_and_never_above_hi(self, case):
        params, state = case
        lo, hi, _, _ = safe_interval(*state, params)
        at_floor = state[0] <= params.v_min + kernels.SPEED_EDGE_TOL
        assert lo == (0.0 if at_floor else params.a_min)
        assert lo <= min(0.0, hi)

    @ALL_VERDICTS
    @given(case=kernel_cases(), deadline_active=st.booleans())
    def test_the_follower_takes_least_magnitude_or_brakes_at_lo(
            self, case, deadline_active):
        params, state = case
        accel, verdict, lo, hi, _, _, _ = kernels.follower_decision(
            *state, deadline_active, params)
        if verdict.splits:
            assert accel == lo
        else:
            assert lo <= accel <= hi
            for probe in (lo, hi, min(max(0.0, lo), hi)):
                assert abs(accel) <= abs(probe)


class TestThePlatooningRegion:
    """README's "Controller in brief": a follower keeps following while
    its descent bound is at least ``a_min``, or at least 0 at the floor
    or with its deadline armed, and splits outside that region."""

    @ALL_VERDICTS
    @given(case=kernel_cases(), deadline_active=st.booleans())
    # At 25 m/s and a 5 m gap the edge is a pull-away speed of 5.95 m/s:
    # a brake conflict just past it and a state just inside it, then a
    # deadline-drag and a floor conflict, and a deadline-safety
    # conflict, which keeps following.
    @example(case=(PARAMS, (25.0, -5.0, -6.0, 0.0)), deadline_active=False)
    @example(case=(PARAMS, (25.0, -5.0, -5.9, 0.0)), deadline_active=False)
    @example(case=(PARAMS, (25.0, -5.0, -5.9, 0.0)), deadline_active=True)
    @example(case=(PARAMS, (20.0, -5.0, -0.5, 0.0)), deadline_active=False)
    @example(case=(PARAMS, (30.0, -14.375, 5.0, 0.0)), deadline_active=True)
    def test_a_follower_splits_exactly_outside_it(self, case,
                                                  deadline_active):
        params, state = case
        _, verdict, _, _, _, _, bound = kernels.follower_decision(
            *state, deadline_active, params)
        at_floor = state[0] <= params.v_min + kernels.SPEED_EDGE_TOL
        least = 0.0 if at_floor or deadline_active else params.a_min
        assert verdict.splits == (bound < least)


class TestSafeAccelInterval:
    def test_far_apart_leaves_full_box(self):
        lo, hi, _, _ = safe_interval(30.0, -150.0, 1.0, 0.0, PARAMS)
        assert (lo, hi) == (PARAMS.a_min, PARAMS.a_max)

    def test_speed_floor_lifts_lower_bound(self):
        lo, _, _, _ = safe_interval(20.0, -50.0, -2.0, 0.0, PARAMS)
        assert lo == 0.0

    def test_speed_ceiling_drops_upper_bound(self):
        _, hi, _, _ = safe_interval(35.0, -math.inf, 0.0, 0.0, PARAMS)
        assert hi == 0.0

    def test_closing_near_boundary_forces_braking(self):
        # The closing speed at which this state meets the envelope (see
        # TestStoppingMargin.test_zero_at_the_critical_state).
        v_hat = 10.0
        lo, hi, _, _ = safe_interval(30.0, -17.5, v_hat, -4.0, PARAMS)
        assert hi == -4.0
        assert lo <= hi

    def test_worst_case_switch_overrides_communication(self):
        import dataclasses
        worst = dataclasses.replace(PARAMS, worst_case_pred_accel=True)
        _, optimistic, _, _ = safe_interval(30.0, -18.0, 9.0, 3.0, PARAMS)
        _, forced, _, _ = safe_interval(30.0, -18.0, 9.0, 3.0, worst)
        assert forced <= optimistic

    @given(v=speeds, p_hat=gaps, v_hat=rel_speeds,
           pred=st.floats(min_value=-4.0, max_value=3.0))
    def test_interval_stays_inside_the_box(self, v, p_hat, v_hat, pred):
        lo, hi, _, _ = safe_interval(v, p_hat, v_hat, pred, PARAMS)
        if lo <= hi:
            assert lo >= PARAMS.a_min - 1e-12
            assert hi <= PARAMS.a_max + 1e-12


class TestVerdicts:
    def test_split_verdicts(self):
        assert FeasibilityVerdict.FLOOR_CONFLICT.splits
        assert FeasibilityVerdict.BRAKE_CONFLICT.splits
        assert FeasibilityVerdict.DEADLINE_DRAG_CONFLICT.splits
        assert not FeasibilityVerdict.FEASIBLE.splits
        assert not FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT.splits


# The constants a run fixes, by the names a kernel would take them as.
RUN_CONSTANTS = {"dt", "v_min", "v_max", "a_min", "a_max", "delta", "eps_g",
                 "gamma", "c0", "c1", "c2"}


class TestKernelsReadTheRunsParams:
    def test_no_kernel_takes_a_run_constant_as_a_parameter(self):
        kernel_fns = [fn for _, fn in inspect.getmembers(kernels,
                                                         inspect.isfunction)
                      if fn.__module__ == kernels.__name__]
        assert sorted(fn.__name__ for fn in kernel_fns) == [
            "advance", "binding", "classify", "deadline_margin",
            "drag_force", "drag_partials", "flow_bound",
            "follower_decision", "gap_allowance", "leader_decision",
            "safe_interval", "stopping_margin"]
        for fn in kernel_fns:
            taken = RUN_CONSTANTS & set(inspect.signature(fn).parameters)
            assert not taken, f"{fn.__name__} takes {sorted(taken)}"
        assert len(inspect.signature(kernels.follower_decision)
                   .parameters) == 6
        assert len(inspect.signature(kernels.leader_decision)
                   .parameters) == 7

    # Floor, near-floor, interior and ceiling speeds; gaps at, near and
    # far from delta; opening, level and closing pairs.
    STATES = list(itertools.product(
        (20.0, 20.5, 27.3, 35.0), (-5.0, -6.2, -17.5, -60.0),
        (-3.0, 0.0, 0.4, 4.0, 10.0)))
    PRED_ACCELS = (-4.0, -1.5, -0.0, 0.0, 1.2, 3.0)

    def test_the_worst_case_rule_is_full_braking_in_every_kernel(self):
        for gamma in (0.0, 1.0):
            params = replace(PARAMS, gamma=gamma)
            worst = replace(params, worst_case_pred_accel=True)
            a_min = params.a_min
            matters = 0  # cases where the communicated command counts
            for state, pred, flag in itertools.product(
                    self.STATES, self.PRED_ACCELS, (False, True)):
                for fn, rest in (
                        (kernels.follower_decision, (flag,)),
                        (kernels.safe_interval, ()),
                        (kernels.leader_decision, (False, flag)),
                        (kernels.leader_decision, (True, flag))):
                    args = state + (pred,) + rest
                    assumed = state + (a_min,) + rest
                    assert repr(fn(*args, worst)) \
                        == repr(fn(*assumed, params)), (fn.__name__, args)
                    matters += repr(fn(*args, params)) != repr(fn(*assumed,
                                                                params))
            assert matters > 100


class TestNobodyAhead:
    """A head with nobody ahead passes a predecessor infinitely far
    ahead and not closing, ``(p_hat, v_hat, pred_accel) = (-inf, 0, 0)``."""

    def test_the_head_is_feasible_and_brakes_in_its_box(self):
        cases = itertools.product(
            (PARAMS.v_min, 27.3, PARAMS.v_max), (False, True),
            (False, True), (0.0, 1.0), (False, True))
        for v, recovering, deadline, gamma, worst in cases:
            params = replace(PARAMS, gamma=gamma,
                             worst_case_pred_accel=worst)
            lo = 0.0 if v == params.v_min else params.a_min
            hi = 0.0 if v == params.v_max else params.a_max
            accel = hi if recovering else min(max(params.a_min, lo), hi)
            # repr compares the floats bit for bit, signed zeros included.
            assert repr(kernels.leader_decision(
                v, -math.inf, 0.0, 0.0, recovering, deadline, params)) \
                == repr((accel, FeasibilityVerdict.FEASIBLE, lo, hi,
                         -math.inf, math.inf, 0.0))

    @given(v=st.floats(min_value=0.0, max_value=1e6),
           c0=st.floats(min_value=0.0, exclude_min=True,
                        allow_infinity=False),
           c1=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           c2=st.floats(min_value=0.0, exclude_min=True,
                        allow_infinity=False))
    def test_the_drag_is_the_solo_drag_bit_for_bit(self, v, c0, c1, c2):
        law = DragCoefficients(c0=c0, c1=c1, c2=c2)
        assert validate_params(replace(PARAMS, drag=law)) == []
        assert kernels.drag_force(v, -math.inf, law).hex() \
            == (c0 * v * v).hex()
