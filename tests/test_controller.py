import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from platoonflow import (
    DragCoefficients,
    Event,
    FeasibilityVerdict,
    SimParams,
    VehicleMode,
    VehicleState,
    flow_bound,
    insert_vehicle,
    leader_control,
    WorldState,
    run,
    solve_follower_control,
    stopping_margin,
)
from platoonflow import _kernels_py as kernels
from platoonflow import controller
from platoonflow.sim import resequence
from platoonflow.trajectory import MODE_NAMES

from conftest import modes

PARAMS = SimParams()


class TestFollowerSolve:
    def test_unconstrained_interior_coasts(self):
        d = solve_follower_control(30.0, -20.0, 1.0, 0.0,
                                   False, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FEASIBLE
        assert d.active == frozenset()
        assert d.gs_margin == -12.625
        assert d.flow_bound == pytest.approx(0.16540193819026033, rel=1e-12)

    def test_opening_gap_tracks_the_descent_bound(self):
        d = solve_follower_control(30.0, -20.0, -1.0, 0.0,
                                   False, PARAMS)
        assert d.accel == d.flow_bound
        assert d.accel == pytest.approx(-0.16540193819026033, rel=1e-12)
        assert d.accel < 0.0
        assert "drag_flow" in d.active

    def test_active_deadline_pins_the_command_at_zero(self):
        d = solve_follower_control(30.0, -20.0, 2.0, 0.0,
                                   True, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FEASIBLE
        assert "deadline" in d.active

    def test_floor_conflict_when_descent_demands_braking_at_the_floor(self):
        d = solve_follower_control(20.0, -20.0, -1.0, 0.0,
                                   False, PARAMS)
        assert d.verdict is FeasibilityVerdict.FLOOR_CONFLICT
        assert d.verdict.splits
        assert d.accel == 0.0

    def test_brake_conflict_when_descent_outruns_the_actuator(self):
        d = solve_follower_control(22.0, -6.0, -10.0, 0.0,
                                   False, PARAMS)
        assert d.flow_bound < PARAMS.a_min
        assert d.verdict is FeasibilityVerdict.BRAKE_CONFLICT
        assert d.accel == PARAMS.a_min

    def test_deadline_against_descent_splits(self):
        d = solve_follower_control(25.0, -20.0, -2.0, 0.0,
                                   True, PARAMS)
        assert d.verdict is FeasibilityVerdict.DEADLINE_DRAG_CONFLICT
        assert d.verdict.splits
        assert d.accel == PARAMS.a_min

    def test_deadline_against_envelope_relaxes_and_brakes(self):
        d = solve_follower_control(30.0, -13.0, 6.0, 0.0,
                                   True, PARAMS)
        assert d.verdict is FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT
        assert not d.verdict.splits
        assert d.gs_margin == 2.5
        # the command comes from the solve with the deadline dropped
        assert d.accel == -3.4
        assert d.hi == -3.4
        assert "safety" in d.active

    def test_worst_case_switch_ignores_communicated_command(self):
        import dataclasses
        worst = dataclasses.replace(PARAMS, worst_case_pred_accel=True)
        trusting = solve_follower_control(30.0, -16.0, 7.0, 3.0,
                                          False, PARAMS)
        paranoid = solve_follower_control(30.0, -16.0, 7.0, 3.0,
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
        # predecessor speed must respect the floor, so v_hat <= v - v_min
        v_hat = closing_frac * (v - PARAMS.v_min) if closing_frac > 0 \
            else closing_frac * 15.0
        d = solve_follower_control(v, p_hat, v_hat, pred,
                                   deadline, PARAMS)
        assert PARAMS.a_min <= d.accel <= PARAMS.a_max


class TestLeaderPolicy:
    def test_front_leader_brakes_toward_the_floor(self):
        d = leader_control(30.0, -math.inf, 0.0, 0.0, False, False, PARAMS)
        assert d.accel == PARAMS.a_min
        assert d.gs_margin == -math.inf
        assert d.verdict is FeasibilityVerdict.FEASIBLE

    def test_front_leader_cruises_at_the_floor(self):
        d = leader_control(20.0, -math.inf, 0.0, 0.0, False, False, PARAMS)
        assert d.accel == 0.0
        assert "speed_floor" in d.active

    def test_recovering_head_floors_the_throttle(self):
        d = leader_control(30.0, -math.inf, 0.0, 0.0, True, False, PARAMS)
        assert d.accel == PARAMS.a_max

    def test_recovering_head_respects_the_ceiling(self):
        d = leader_control(35.0, -math.inf, 0.0, 0.0, True, False, PARAMS)
        assert d.accel == 0.0
        assert "speed_ceiling" in d.active

    def test_recovering_head_respects_the_envelope(self):
        d = leader_control(30.0, -13.0, 6.0, 0.0, True, False, PARAMS)
        assert d.accel == -3.4
        assert "safety" in d.active

    def test_a_head_held_at_the_ceiling_names_only_the_ceiling(self):
        # Falling back from its predecessor, the envelope does not bind
        # (its cap is inf): only the speed ceiling holds the command at 0.
        d = leader_control(PARAMS.v_max, -200.0, -1.0, 0.0, True, False,
                           PARAMS)
        assert d.accel == 0.0
        assert d.active == frozenset({"speed_ceiling"})

    def test_parked_head_behind_parked_pred_stays_split(self):
        # opening or steady at the floor reads as a floor conflict, which
        # is what keeps a parked pair from merging and re-arming deadlines
        d = leader_control(20.0, -9.0, -0.5, 0.0, False, False, PARAMS)
        assert d.accel == 0.0
        assert d.verdict is FeasibilityVerdict.FLOOR_CONFLICT

    def test_closing_head_reads_feasible_and_may_merge(self):
        d = leader_control(30.0, -40.0, 2.0, 0.0, False, False, PARAMS)
        assert d.verdict is FeasibilityVerdict.FEASIBLE


STAMP = 1.0


def decided(vid, mode, platoon_id, verdict=FeasibilityVerdict.FEASIBLE,
            margin=-100.0):
    """A vehicle 100 m behind vehicle ``vid - 1``, decided in ``mode``
    with ``verdict``, relaxed as bit 1 of ``mode`` says, whose deadline
    margin at STAMP is ``margin`` (exactly, for a whole number)."""
    p = 1000.0 - 100.0 * vid
    veh = VehicleState(vid=vid, p=p, v=25.0, accel=0.0, deadline=STAMP + 40.0,
                       exit_pos=p + 1000.0 + margin, platoon_id=platoon_id,
                       relaxed=bool(mode & 2))
    veh.verdict, veh.control_mode = verdict, mode
    return veh


def resequenced(*vehicles, params=PARAMS):
    """Resequence a hand-built world of ``vehicles``, front to back;
    return their modes and the events as ``(kind, vehicle_id)``."""
    world = WorldState.initial(params, spawning=False)
    world.vehicles.extend(vehicles)
    world.next_platoon_id = 100  # above every hand-set platoon id
    resequence(world, STAMP)
    return (modes(world),
            [(e.kind, e.vehicle_id) for e in world.events])


class TestModeMachine:
    """A vehicle's mode after ``resequence``: bit 0 read from the platoon
    ids once the splits and merges are in, bit 1 its relaxed flag, set
    by a follower's deadline-safety conflict and cleared by a recovering
    head's comfortable margin."""

    F = VehicleMode.FOLLOWER
    L = VehicleMode.LEADER
    R = VehicleMode.FOLLOWER_DEADLINE_RELAXED
    REC = VehicleMode.LEADER_RECOVERING
    CONFLICT = FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT

    def test_follower_splits_to_leader(self):
        for verdict in (FeasibilityVerdict.FLOOR_CONFLICT,
                        FeasibilityVerdict.BRAKE_CONFLICT,
                        FeasibilityVerdict.DEADLINE_DRAG_CONFLICT):
            modes, events = resequenced(decided(0, self.L, 0),
                                        decided(1, self.F, 0, verdict))
            assert modes == [self.L, self.L]
            assert events == [("split", 1)]

    def test_follower_relaxes_deadline_in_place(self):
        world = WorldState.initial(PARAMS, spawning=False)
        world.vehicles.extend([decided(0, self.L, 0),
                               decided(1, self.F, 0, self.CONFLICT, -3.0)])
        resequence(world, STAMP)
        assert modes(world)[1] is self.R
        assert world.events == [Event(STAMP, "deadline_relax", 1, (-3.0,))]

    def test_follower_promoted_and_conflicted_recovers_as_head(self):
        # Its head exited this step, so it heads the platoon now.
        modes, events = resequenced(decided(1, self.F, 0, self.CONFLICT))
        assert modes == [self.REC]
        assert events == [("deadline_relax", 1)]

    def test_follower_at_the_head_slot_leads(self):
        # Its head exited this step.
        assert resequenced(decided(1, self.F, 0)) == ([self.L], [])

    def test_follower_is_otherwise_sticky(self):
        modes, events = resequenced(decided(0, self.L, 0),
                                    decided(1, self.F, 0))
        assert (modes, events) == ([self.L, self.F], [])

    def test_relaxed_follower_recovers_when_split_or_promoted(self):
        floor = FeasibilityVerdict.FLOOR_CONFLICT
        assert resequenced(decided(0, self.L, 0),
                           decided(1, self.R, 0, floor)) == (
            [self.L, self.REC], [("split", 1)])
        assert resequenced(decided(1, self.R, 0)) == ([self.REC], [])
        assert resequenced(decided(0, self.L, 0), decided(1, self.R, 0)) == (
            [self.L, self.R], [])

    def test_recovery_graduates_on_comfortable_margin(self):
        params = replace(PARAMS, eps_d=2.0)
        assert resequenced(decided(0, self.REC, 0, margin=-2.0),
                           params=params) == (
            [self.L], [("deadline_recover", 0)])
        assert resequenced(decided(0, self.REC, 0, margin=-1.0),
                           params=params) == ([self.REC], [])

    def test_leader_is_sticky(self):
        # Neither a conflict verdict nor a margin moves a head that is
        # not recovering; a non-feasible verdict keeps it from merging.
        for verdict in (FeasibilityVerdict.BRAKE_CONFLICT, self.CONFLICT):
            modes, events = resequenced(
                decided(0, self.L, 0, verdict, 5.0),
                decided(1, self.L, 1, verdict, 5.0))
            assert (modes, events) == ([self.L, self.L], [])

    @pytest.mark.parametrize("mode", VehicleMode,
                             ids=lambda m: MODE_NAMES[m])
    @pytest.mark.parametrize("is_head", [False, True],
                             ids=["behind", "head"])
    def test_a_mode_keeps_bit_1_and_takes_bit_0_from_the_platoon_ids(
            self, mode, is_head):
        # With no rule of bit 1 firing, every mode leaves as its platoon
        # ids say, even one the engine never decides in (a LEADER inside
        # a platoon).  A head's non-feasible verdict keeps it from merging.
        verdict = (FeasibilityVerdict.BRAKE_CONFLICT if mode & 1
                   else FeasibilityVerdict.FEASIBLE)
        modes, events = resequenced(
            decided(0, self.L, 0),
            decided(1, mode, int(is_head), verdict, margin=0.0))
        assert modes[1] is VehicleMode(is_head | mode & 2)
        assert events == []


class TestHeadsUseTheWorldsDragLaw:
    """A head's merge verdict comes from the drag law a follower in its
    slot would use: that of its ``params``."""

    LAWS = {
        "coefficients": DragCoefficients(c2=0.02),
    }

    @pytest.mark.parametrize("name", LAWS)
    def test_the_head_verdict_matches_the_follower_verdict(self, name):
        law = self.LAWS[name]
        params = replace(PARAMS, drag=law)
        v, p_hat, v_hat = 22.0, -6.0, -10.0
        bound = flow_bound(v, p_hat, v_hat, law)
        assert bound != flow_bound(v, p_hat, v_hat, PARAMS.drag)
        follower = solve_follower_control(v, p_hat, v_hat, 0.0,
                                          False, params)
        head = leader_control(v, p_hat, v_hat, 0.0, False, False, params)
        assert follower.verdict is head.verdict is FeasibilityVerdict.FEASIBLE
        assert follower.flow_bound == head.flow_bound == bound
        # The default law reads this state as a brake conflict.
        assert leader_control(v, p_hat, v_hat, 0.0, False, False,
                              PARAMS).verdict \
            is FeasibilityVerdict.BRAKE_CONFLICT

    @pytest.mark.parametrize("name", LAWS)
    @given(v=st.floats(20.0, 35.0), v_pred=st.floats(20.0, 35.0),
           p_hat=st.floats(-60.0, -5.0), deadline=st.booleans())
    def test_the_head_verdict_classifies_with_the_laws_bound(
            self, name, v, v_pred, p_hat, deadline):
        law = self.LAWS[name]
        v_hat = v - v_pred
        d = leader_control(v, p_hat, v_hat, 0.0, False, deadline,
                           replace(PARAMS, drag=law))
        bound, g = d.flow_bound, d.gs_margin
        assert bound == flow_bound(v, p_hat, v_hat, law)
        assert g == stopping_margin(v, p_hat, v_hat, PARAMS)
        assert d.verdict is kernels.classify(v, v_hat, bound, deadline, g,
                                             d.hi, PARAMS)


class TestOneVerdictVocabulary:
    """The kernels' ``FeasibilityVerdict`` is the one verdict type: the
    controller re-exports it, the kernels' ``VERDICT_*`` names are its
    members, and the engine leaves members on its vehicles.  The type is
    an ``IntEnum``, which equals its int, so membership is checked with
    ``type(...) is``."""

    def test_the_controller_reexports_the_kernels_type(self):
        assert controller.FeasibilityVerdict is kernels.FeasibilityVerdict
        assert FeasibilityVerdict is kernels.FeasibilityVerdict

    def test_every_verdict_name_is_a_member(self):
        names = [name for name in vars(kernels) if name.startswith("VERDICT_")]
        assert len(names) == len(FeasibilityVerdict)
        for name in names:
            verdict = getattr(kernels, name)
            assert type(verdict) is FeasibilityVerdict
            assert verdict.name == name.removeprefix("VERDICT_")

    def test_splits_are_the_members_that_split(self):
        assert kernels.SPLITS == {v for v in FeasibilityVerdict if v.splits}
        assert all(type(v) is FeasibilityVerdict for v in kernels.SPLITS)

    def test_the_engine_leaves_members_on_its_vehicles(self):
        params = SimParams(duration=40.0, seed=1)
        world = WorldState.initial(params)
        run(params, world=world)
        assert world.vehicles
        for veh in world.vehicles:
            assert type(veh.verdict) is FeasibilityVerdict, veh.vid

    def test_a_placed_vehicle_starts_with_a_member(self):
        world = WorldState.initial(PARAMS, spawning=False)
        veh = insert_vehicle(world, 0.0, 25.0, exit_pos=1000.0,
                             deadline=60.0)
        assert type(veh.verdict) is FeasibilityVerdict
