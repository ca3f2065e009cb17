import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from platoonflow import (
    DragCoefficients,
    DragLaw,
    ExponentialWakeDrag,
    FeasibilityVerdict,
    SimParams,
    VehicleMode,
    VehicleState,
    classify_feasibility,
    leader_control,
    solve_follower_control,
    stopping_margin,
    update_mode,
)
from platoonflow.constraints import SPEED_EDGE_TOL
from platoonflow.controller import (
    KEEPS_MODE,
    follower_step,
    leader_step,
    next_mode,
)
from platoonflow.trajectory import MODES

from conftest import DelegatingWake

PARAMS = SimParams()


def make_state(v, mode=VehicleMode.FOLLOWER, p=500.0):
    return VehicleState(vid=1, p=p, v=v, accel=0.0, spawn_time=0.0,
                        deadline=1e9, exit_pos=1750.0, mode=mode,
                        platoon_id=1)


class TestFollowerSolve:
    def test_unconstrained_interior_coasts(self):
        d = solve_follower_control(make_state(30.0), -20.0, 1.0, 0.0,
                                   False, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FEASIBLE
        assert d.active == frozenset()
        assert d.gs_margin == -12.625
        assert d.flow_bound == pytest.approx(0.16540193819026033, rel=1e-12)

    def test_opening_gap_tracks_the_descent_bound(self):
        d = solve_follower_control(make_state(30.0), -20.0, -1.0, 0.0,
                                   False, PARAMS)
        assert d.accel == d.flow_bound
        assert d.accel == pytest.approx(-0.16540193819026033, rel=1e-12)
        assert d.accel < 0.0
        assert "drag_flow" in d.active

    def test_active_deadline_pins_the_command_at_zero(self):
        d = solve_follower_control(make_state(30.0), -20.0, 2.0, 0.0,
                                   True, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FEASIBLE
        assert "deadline" in d.active

    def test_floor_conflict_when_descent_demands_braking_at_the_floor(self):
        d = solve_follower_control(make_state(20.0), -20.0, -1.0, 0.0,
                                   False, PARAMS)
        assert d.verdict is FeasibilityVerdict.FLOOR_CONFLICT
        assert d.verdict.splits
        assert d.accel == 0.0

    def test_brake_conflict_when_descent_outruns_the_actuator(self):
        d = solve_follower_control(make_state(22.0), -6.0, -10.0, 0.0,
                                   False, PARAMS)
        assert d.flow_bound < PARAMS.a_min
        assert d.verdict is FeasibilityVerdict.BRAKE_CONFLICT
        assert d.accel == PARAMS.a_min

    def test_deadline_against_descent_splits(self):
        d = solve_follower_control(make_state(25.0), -20.0, -2.0, 0.0,
                                   True, PARAMS)
        assert d.verdict is FeasibilityVerdict.DEADLINE_DRAG_CONFLICT
        assert d.verdict.splits
        assert d.accel == PARAMS.a_min

    def test_deadline_against_envelope_relaxes_and_brakes(self):
        d = solve_follower_control(make_state(30.0), -13.0, 6.0, 0.0,
                                   True, PARAMS)
        assert d.verdict is FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT
        assert not d.verdict.splits
        assert d.gs_margin == 2.5
        # the command comes from the solve with the deadline dropped
        assert d.accel == -3.4
        assert d.interval.hi == -3.4
        assert "safety" in d.active

    def test_worst_case_switch_ignores_communicated_command(self):
        import dataclasses
        worst = dataclasses.replace(PARAMS, worst_case_pred_accel=True)
        trusting = solve_follower_control(make_state(30.0), -16.0, 7.0, 3.0,
                                          False, PARAMS)
        paranoid = solve_follower_control(make_state(30.0), -16.0, 7.0, 3.0,
                                          False, worst)
        assert paranoid.accel <= trusting.accel

    @given(v=st.floats(min_value=20.0, max_value=35.0),
           p_hat=st.floats(min_value=-200.0, max_value=-0.1),
           closing_frac=st.floats(min_value=-1.0, max_value=1.0),
           pred=st.floats(min_value=-4.0, max_value=3.0),
           deadline=st.booleans())
    def test_command_stays_inside_the_actuator_box(self, v, p_hat,
                                                   closing_frac, pred,
                                                   deadline):
        # predecessor speed must respect the floor, so v_hat <= v - v_min,
        # with speeds inside the edge tolerance counting as parked there
        headroom = v - PARAMS.v_min
        if headroom <= SPEED_EDGE_TOL:
            headroom = 0.0
        v_hat = closing_frac * headroom if closing_frac > 0 \
            else closing_frac * 15.0
        d = solve_follower_control(make_state(v), p_hat, v_hat, pred,
                                   deadline, PARAMS)
        assert PARAMS.a_min <= d.accel <= PARAMS.a_max


class TestLeaderPolicy:
    def test_front_leader_brakes_toward_the_floor(self):
        d = leader_control(make_state(30.0, VehicleMode.LEADER), 500.0, 30.0,
                           None, False, PARAMS)
        assert d.accel == PARAMS.a_min
        assert math.isnan(d.gs_margin)
        assert d.verdict is FeasibilityVerdict.FEASIBLE

    def test_front_leader_cruises_at_the_floor(self):
        d = leader_control(make_state(20.0, VehicleMode.LEADER), 500.0, 20.0,
                           None, False, PARAMS)
        assert d.accel == 0.0
        assert "speed_floor" in d.active

    def test_recovering_head_floors_the_throttle(self):
        d = leader_control(make_state(30.0, VehicleMode.LEADER_RECOVERING),
                           500.0, 30.0, None, False, PARAMS)
        assert d.accel == PARAMS.a_max

    def test_recovering_head_respects_the_ceiling(self):
        d = leader_control(make_state(35.0, VehicleMode.LEADER_RECOVERING),
                           500.0, 35.0, None, False, PARAMS)
        assert d.accel == 0.0
        assert "speed_ceiling" in d.active

    def test_recovering_head_respects_the_envelope(self):
        d = leader_control(make_state(30.0, VehicleMode.LEADER_RECOVERING),
                           -13.0, 6.0, 0.0, False, PARAMS)
        assert d.accel == -3.4
        assert "safety" in d.active

    def test_parked_head_behind_parked_pred_stays_split(self):
        # opening or steady at the floor reads as a floor conflict, which
        # is what keeps a parked pair from merging and re-arming deadlines
        d = leader_control(make_state(20.0, VehicleMode.LEADER), -9.0, -0.5,
                           0.0, False, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FLOOR_CONFLICT

    def test_closing_head_reads_feasible_and_may_merge(self):
        d = leader_control(make_state(30.0, VehicleMode.LEADER), -40.0, 2.0,
                           0.0, False, PARAMS)
        assert d.verdict is FeasibilityVerdict.FEASIBLE


class TestModeMachine:
    F = VehicleMode.FOLLOWER
    L = VehicleMode.LEADER
    R = VehicleMode.FOLLOWER_DEADLINE_RELAXED
    REC = VehicleMode.LEADER_RECOVERING

    def test_follower_splits_to_leader(self):
        for verdict in (FeasibilityVerdict.FLOOR_CONFLICT,
                        FeasibilityVerdict.BRAKE_CONFLICT,
                        FeasibilityVerdict.DEADLINE_DRAG_CONFLICT):
            assert update_mode(self.F, verdict, -1.0, False, PARAMS) is self.L

    def test_follower_relaxes_deadline_in_place(self):
        out = update_mode(self.F, FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT,
                          -1.0, False, PARAMS)
        assert out is self.R

    def test_follower_promoted_and_conflicted_recovers_as_head(self):
        out = update_mode(self.F, FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT,
                          -1.0, True, PARAMS)
        assert out is self.REC

    def test_follower_at_the_head_slot_leads(self):
        out = update_mode(self.F, FeasibilityVerdict.FEASIBLE, -1.0, True,
                          PARAMS)
        assert out is self.L

    def test_follower_is_otherwise_sticky(self):
        out = update_mode(self.F, FeasibilityVerdict.FEASIBLE, -1.0, False,
                          PARAMS)
        assert out is self.F

    def test_relaxed_follower_recovers_when_split_or_promoted(self):
        assert update_mode(self.R, FeasibilityVerdict.FLOOR_CONFLICT, -1.0,
                           False, PARAMS) is self.REC
        assert update_mode(self.R, FeasibilityVerdict.FEASIBLE, -1.0,
                           True, PARAMS) is self.REC
        assert update_mode(self.R, FeasibilityVerdict.FEASIBLE, -1.0,
                           False, PARAMS) is self.R

    def test_recovery_graduates_on_comfortable_margin(self):
        assert update_mode(self.REC, FeasibilityVerdict.FEASIBLE,
                           -PARAMS.eps_d, False, PARAMS) is self.L
        assert update_mode(self.REC, FeasibilityVerdict.FEASIBLE,
                           -PARAMS.eps_d / 2.0, False, PARAMS) is self.REC

    def test_leader_is_sticky(self):
        out = update_mode(self.L, FeasibilityVerdict.BRAKE_CONFLICT, 5.0,
                          True, PARAMS)
        assert out is self.L


class SteepWake(DragLaw):
    """A wake law the fused kernel does not know, with its own descent
    bound: the default shape at a shorter wake length."""

    def __init__(self, coeffs):
        self.inner = ExponentialWakeDrag(coeffs)

    def force(self, v, p_hat, in_wake):
        return self.inner.force(v, p_hat, in_wake)

    def partials(self, v, p_hat, in_wake):
        return self.inner.partials(v, p_hat, in_wake)


class TestComposedSolve:
    LAW = DelegatingWake(PARAMS.drag)

    @pytest.mark.parametrize("worst_case", [False, True],
                             ids=["communicated", "worst_case"])
    @settings(max_examples=300)
    @given(v=st.one_of(st.just(PARAMS.v_min), st.just(PARAMS.v_max),
                       st.floats(PARAMS.v_min, PARAMS.v_max)),
           p_hat=st.floats(-80.0, -0.5),
           v_hat=st.one_of(st.floats(-15.0, 0.0), st.floats(0.0, 15.0)),
           pred_accel=st.floats(PARAMS.a_min, PARAMS.a_max),
           deadline=st.booleans())
    @example(v=20.0, p_hat=-32.503, v_hat=-3.826, pred_accel=-0.854,
             deadline=False)
    def test_returns_the_fused_kernels_whole_tuple(
            self, worst_case, v, p_hat, v_hat, pred_accel, deadline):
        params = replace(PARAMS, worst_case_pred_accel=worst_case)
        # A closing pair cannot sit at the floor (see envelope_cap).
        assume(v_hat <= 0.0 or v > params.v_min + SPEED_EDGE_TOL)
        fused = follower_step(v, p_hat, v_hat, pred_accel, deadline, params)
        composed = follower_step(v, p_hat, v_hat, pred_accel, deadline,
                                 params, self.LAW)
        assert [repr(x) for x in composed] == [repr(x) for x in fused]


class TestHeadsUseTheWorldsDragLaw:
    """A head's merge verdict comes from the drag law a follower in its
    slot would use, not from ``params.drag``."""

    LAWS = {
        "coefficients": ExponentialWakeDrag(DragCoefficients(c2=0.02)),
        "custom_law": SteepWake(DragCoefficients(c2=0.02)),
    }

    @pytest.mark.parametrize("name", LAWS)
    def test_the_head_verdict_matches_the_follower_verdict(self, name):
        law = self.LAWS[name]
        v, p_hat, v_hat = 22.0, -6.0, -10.0
        bound = law.descent_bound(v, p_hat, v_hat, True)
        default = ExponentialWakeDrag(PARAMS.drag)
        assert bound != default.descent_bound(v, p_hat, v_hat, True)
        follower = follower_step(v, p_hat, v_hat, 0.0, False, PARAMS, law)
        head = leader_step(v, p_hat, v_hat, 0.0, False, False, PARAMS, law)
        assert follower[1] == head[1] == FeasibilityVerdict.FEASIBLE.value
        assert follower[6] == head[5] == bound
        d = leader_control(make_state(v, VehicleMode.LEADER), p_hat, v_hat,
                           0.0, False, PARAMS, law)
        assert d.verdict is FeasibilityVerdict.FEASIBLE
        # params.drag alone reads this state as a brake conflict.
        assert leader_step(v, p_hat, v_hat, 0.0, False, False, PARAMS)[1] \
            == FeasibilityVerdict.BRAKE_CONFLICT.value

    @pytest.mark.parametrize("name", LAWS)
    @given(v=st.floats(20.0, 35.0), v_pred=st.floats(20.0, 35.0),
           p_hat=st.floats(-60.0, -5.0), deadline=st.booleans())
    def test_the_head_verdict_classifies_with_the_laws_bound(
            self, name, v, v_pred, p_hat, deadline):
        law = self.LAWS[name]
        v_hat = v - v_pred
        # A closing pair cannot sit at the floor (see envelope_cap).
        assume(v_hat <= 0.0 or v > PARAMS.v_min + SPEED_EDGE_TOL)
        _, code, _, hi, g, bound = leader_step(v, p_hat, v_hat, 0.0, False,
                                               deadline, PARAMS, law)
        assert bound == law.descent_bound(v, p_hat, v_hat, True)
        assert g == stopping_margin(v, p_hat, v_hat, PARAMS)
        safety = g >= -PARAMS.eps_g or hi < 0.0
        assert FeasibilityVerdict(code) is classify_feasibility(
            v, p_hat, v_hat, bound, deadline, safety, PARAMS)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("is_head", [False, True], ids=["behind", "head"])
def test_a_kept_mode_is_one_next_mode_keeps(mode, is_head):
    eps_d = PARAMS.eps_d
    margins = (-10.0, -2.0 * eps_d, -eps_d, math.nextafter(-eps_d, 0.0),
               -eps_d / 2.0, 0.0, 10.0)
    code = MODES.index(mode)
    for verdict in FeasibilityVerdict:
        if KEEPS_MODE[is_head][code][verdict.value]:
            for margin in margins:
                assert next_mode(mode, verdict.value, margin, is_head,
                                 eps_d) is mode
    # The common cases are skipped: every LEADER, and a follower behind
    # its platoon with a feasible verdict.
    assert KEEPS_MODE[is_head][MODES.index(VehicleMode.LEADER)] == (True,) * 5
    assert KEEPS_MODE[False][MODES.index(VehicleMode.FOLLOWER)][0]
