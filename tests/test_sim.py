import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platoonflow import (
    DragCoefficients,
    OrderingError,
    RoadNetwork,
    SafetyAuditError,
    SimParams,
    VehicleMode,
    VehicleState,
    WorldState,
    insert_vehicle,
    run,
    step,
    validate_params,
)
from platoonflow import _kernels_py as kernels
from platoonflow.analysis import previous_rows, records_by_time
from platoonflow._kernels_py import SPEED_EDGE_TOL
from platoonflow import sim
from platoonflow.sim import _decide

from conftest import modes, step_world, world_bytes

FAR = 1e9


def quiet_world(params):
    return WorldState.initial(params, spawning=False)


def place(world, p, v, mode=None):
    return insert_vehicle(world, p, v, exit_pos=FAR, deadline=FAR, mode=mode)


def hand_pair(p_front, v_front, p_rear, v_rear):
    """A head and its follower built by hand, past ``insert_vehicle``'s
    checks."""
    return [VehicleState(vid=vid, p=p, v=v, accel=0.0, deadline=FAR,
                         exit_pos=FAR, platoon_id=0)
            for vid, p, v in ((0, p_front, v_front), (1, p_rear, v_rear))]


def decided(world):
    """Run the decide pass and return each vehicle's ``(command,
    verdict)``, front to back."""
    _decide(world, world.t + world.params.dt)
    return [(veh.command, veh.verdict) for veh in world.vehicles]


class TestInsertVehicle:
    def test_front_of_empty_road_heads_a_platoon(self, params):
        world = quiet_world(params)
        veh = place(world, 300.0, 25.0)
        assert modes(world) == [VehicleMode.LEADER]
        assert world.vehicles == [veh]

    def test_behind_another_joins_its_platoon(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0)
        assert modes(world)[1] is VehicleMode.FOLLOWER
        assert rear.platoon_id == front.platoon_id
        assert [v.vid for v in world.vehicles] == [front.vid, rear.vid]

    def test_slotted_by_position_between_existing(self, params):
        world = quiet_world(params)
        a = place(world, 300.0, 25.0)
        c = place(world, 100.0, 25.0)
        b = place(world, 200.0, 25.0)
        assert [v.vid for v in world.vehicles] == [a.vid, b.vid, c.vid]

    @pytest.mark.parametrize("mode", [VehicleMode.LEADER, 3],
                             ids=["head", "recovering_head_code"])
    def test_an_explicit_head_starts_a_fresh_platoon(self, params, mode):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0, mode=mode)
        assert modes(world)[1] is VehicleMode(mode)
        assert rear.platoon_id != front.platoon_id
        assert world.next_platoon_id == rear.platoon_id + 1

    def test_a_head_placed_inside_a_platoon_heads_the_rest(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0)
        middle = place(world, 250.0, 25.0, mode=VehicleMode.LEADER)
        assert middle.platoon_id != front.platoon_id
        assert rear.platoon_id == middle.platoon_id
        assert modes(world)[2] is VehicleMode.FOLLOWER
        step(world)
        assert [(e.kind, e.vehicle_id) for e in world.events] == [
            ("merge", middle.vid)]
        assert modes(world)[2] is VehicleMode.FOLLOWER
        assert front.platoon_id == middle.platoon_id == rear.platoon_id

    @pytest.mark.parametrize("mode", [
        VehicleMode.FOLLOWER, VehicleMode.FOLLOWER_DEADLINE_RELAXED, 0],
        ids=["follower", "follower_relaxed", "follower_code"])
    def test_a_follower_mode_needs_a_vehicle_ahead(self, params, mode):
        world = quiet_world(params)
        with pytest.raises(ValueError, match="no vehicle ahead"):
            place(world, 100.0, 25.0, mode=mode)
        front = place(world, 100.0, 25.0)
        with pytest.raises(ValueError, match="no vehicle ahead"):
            place(world, 200.0, 25.0, mode=mode)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1

    @pytest.mark.parametrize("where,value", [
        ("p", math.nan), ("p", math.inf), ("exit_pos", math.nan),
        ("deadline", -math.inf)],
        ids=["p_nan", "p_inf", "exit_nan", "deadline_inf"])
    def test_a_value_that_is_not_finite_is_refused(self, params, where,
                                                    value):
        world = quiet_world(params)
        rear = place(world, 100.0, 25.0)
        spot = {"p": 200.0, "exit_pos": FAR, "deadline": FAR, where: value}
        with pytest.raises(ValueError, match=f"{where}=.* is not finite"):
            insert_vehicle(world, spot["p"], 25.0, exit_pos=spot["exit_pos"],
                           deadline=spot["deadline"])
        assert world.vehicles == [rear]
        assert world.next_vehicle_id == 1

    @pytest.mark.parametrize("exit_pos", [100.0, 300.0],
                             ids=["behind", "at_p"])
    def test_an_exit_at_or_behind_the_vehicle_is_refused(self, params,
                                                          exit_pos):
        # Accepted, the next step reported an exit the vehicle never made.
        world = quiet_world(params)
        with pytest.raises(ValueError, match="is not ahead of p=300"):
            insert_vehicle(world, 300.0, 25.0, exit_pos=exit_pos,
                           deadline=FAR)
        assert world.vehicles == []
        assert world.next_vehicle_id == 0

    @pytest.mark.parametrize("deadline", [-5.0, 1.0], ids=["past", "now"])
    def test_a_deadline_already_due_is_refused(self, params, deadline):
        world = quiet_world(params)
        world.t = 1.0
        with pytest.raises(ValueError, match="is not after t=1"):
            insert_vehicle(world, 300.0, 25.0, exit_pos=FAR,
                           deadline=deadline)
        assert world.vehicles == []
        assert world.next_vehicle_id == 0

    @pytest.mark.parametrize("mode", [True, False, 1.0, 2.5, "1"],
                             ids=["true", "false", "one_float", "2.5", "str"])
    def test_a_mode_that_is_no_integer_is_refused(self, params, mode):
        # VehicleMode(True) and VehicleMode(1.0) are LEADER; a mode is an
        # integer as an int setting is, and no bool or float is one.
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        with pytest.raises(ValueError,
                           match=f"mode must be an integer, got {mode!r}"):
            place(world, 200.0, 25.0, mode=mode)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1

    def test_a_code_outside_the_modes_is_refused(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        with pytest.raises(ValueError, match="7 is not a valid VehicleMode"):
            place(world, 200.0, 25.0, mode=7)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1

    def test_a_position_another_vehicle_holds_is_refused(self, params):
        world = quiet_world(params)
        front = place(world, 102.5, 25.0)
        with pytest.raises(ValueError, match="already holds p=102.5"):
            place(world, 102.5, 25.0)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1

    def test_a_gap_under_delta_to_the_vehicle_ahead_is_refused(self, params):
        world = quiet_world(params)
        front = place(world, 100.0, 25.0)
        with pytest.raises(ValueError, match="4 m behind vehicle 0"):
            place(world, 96.0, 25.0)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1
        place(world, 100.0 - params.delta, 25.0)
        assert len(world.vehicles) == 2

    def test_a_gap_under_delta_to_the_vehicle_behind_is_refused(self, params):
        world = quiet_world(params)
        rear = place(world, 100.0, 25.0)
        with pytest.raises(ValueError, match="4 m ahead of vehicle 0"):
            place(world, 104.0, 25.0)
        assert world.vehicles == [rear]
        assert world.next_vehicle_id == 1
        place(world, 100.0 + params.delta, 25.0)
        assert len(world.vehicles) == 2

    @pytest.mark.parametrize("v", [99.0, -5.0, 19.999, 35.001, float("nan")])
    def test_a_speed_outside_the_box_is_refused(self, params, v):
        world = quiet_world(params)
        front = place(world, 102.5, 25.0)
        with pytest.raises(ValueError, match="outside the speed box"):
            place(world, 82.5, v)
        assert world.vehicles == [front]
        assert world.next_vehicle_id == 1

    def test_the_speed_box_edges_are_placeable(self, params):
        world = quiet_world(params)
        place(world, 200.0, params.v_max)
        place(world, 100.0, params.v_min)
        assert [veh.v for veh in world.vehicles] == [params.v_max,
                                                     params.v_min]

    def test_an_explicit_follower_joins_the_platoon_ahead(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0, mode=VehicleMode.FOLLOWER)
        assert rear.platoon_id == front.platoon_id
        step(world)
        assert modes(world)[1] is VehicleMode.FOLLOWER
        assert rear.platoon_id == front.platoon_id
        assert world.events == []


class TestStepDynamics:
    def test_lone_head_brakes_to_the_floor_and_parks(self, params):
        world = quiet_world(params)
        place(world, 100.0, 30.0)
        step(world)
        veh = world.vehicles[0]
        assert veh.accel == params.a_min
        assert veh.p == 100.0 + 30.0 * 0.1 + 0.5 * -4.0 * 0.1 * 0.1
        assert veh.v == 30.0 + -4.0 * 0.1
        for _ in range(40):
            step(world)
        # fp residue from 25 brake steps parks it within the edge tolerance
        assert abs(veh.v - params.v_min) <= SPEED_EDGE_TOL
        assert veh.accel == 0.0
        assert min(world.trajectory.v) >= params.v_min

    def test_vehicle_leaves_at_its_exit(self, params):
        world = quiet_world(params)
        insert_vehicle(world, 498.0, 20.0, exit_pos=500.0, deadline=FAR)
        step(world)
        assert world.vehicles == []
        assert [e.kind for e in world.events] == ["exit"]

    def test_overtaking_is_an_ordering_error(self, params):
        # insert_vehicle refuses a pair this close; one put in by hand
        # reaches the engine's ordering audit.
        world = quiet_world(params)
        world.vehicles += hand_pair(100.0, 20.0, 99.5, 35.0)
        with pytest.raises(OrderingError):
            step(world)

    def test_sub_margin_gap_fails_the_audit(self, params):
        world = quiet_world(params)
        world.vehicles += hand_pair(100.0, 20.0, 99.0, 20.0)
        with pytest.raises(SafetyAuditError, match="gap between"):
            step(world)

    @pytest.mark.parametrize("positions, error, match", [
        # a gap breach between 0 and 1, then 2 overtaking 1
        ((100.0, 99.0, 99.5), SafetyAuditError, "gap between 0 and 1 "),
        # 1 overtaking 0, then a gap breach between 1 and 2
        ((100.0, 101.0, 100.5), OrderingError, "vehicle 1 at p=101.0"),
    ])
    def test_the_audit_names_the_front_most_bad_pair(self, params,
                                                     positions, error,
                                                     match):
        world = quiet_world(params)
        world.vehicles += [
            VehicleState(vid=vid, p=p, v=20.0, accel=0.0, deadline=FAR,
                         exit_pos=FAR, platoon_id=0)
            for vid, p in enumerate(positions)]
        with pytest.raises(error, match=match):
            sim._audit(world, 0.1)

    def test_an_idle_spawn_step_touches_nothing(self, params):
        world = WorldState.initial(params)
        place(world, 300.0, 25.0)
        world.t, world.next_spawn = 1.0, 2.0
        rng_state = world.rng.bit_generator.state
        vehicles = [replace(veh) for veh in world.vehicles]
        events = list(world.events)
        sim.try_spawn(world, 1.1)
        assert world.rng.bit_generator.state == rng_state
        assert world.vehicles == vehicles and world.events == events
        assert world.next_spawn == 2.0
        # Once due, the same call draws and moves the arrival on.
        world.t = 2.0
        sim.try_spawn(world, 2.1)
        assert world.rng.bit_generator.state != rng_state
        assert world.next_spawn > 2.0

    def test_a_vehicle_put_at_the_front_by_hand_decides_as_a_head(
            self, params):
        # Nobody ahead shares its platoon id, so it heads one: the leader
        # kernel brakes it to the floor, or, relaxed, speeds it up to
        # recover its deadline.
        for relaxed, mode, accel in (
                (False, VehicleMode.LEADER, params.a_min),
                (True, VehicleMode.LEADER_RECOVERING, params.a_max)):
            world = quiet_world(params)
            world.vehicles.append(VehicleState(
                vid=0, p=100.0, v=25.0, accel=0.0, deadline=FAR,
                exit_pos=FAR, platoon_id=0, relaxed=relaxed))
            step(world)
            assert list(world.trajectory.mode) == [mode]
            assert world.vehicles[0].accel == accel

    def test_zero_duration_run_is_empty(self):
        result = run(SimParams(duration=0.0))
        assert len(result.trajectory) == 0
        assert result.events == []

    def test_disabled_spawning_keeps_the_road_empty(self, params):
        import dataclasses
        short = dataclasses.replace(params, duration=5.0)
        result = run(short, world=quiet_world(short))
        assert len(result.trajectory) == 0
        assert result.events == []


class TestSplitAndMerge:
    def test_floor_conflict_splits_then_merges_back(self, params):
        world = quiet_world(params)
        front = place(world, 200.0, params.v_min)
        rear = place(world, 200.0 - params.delta, params.v_min)
        front.v = params.v_min + 0.002

        step(world)
        split = rear.platoon_id
        assert split != front.platoon_id
        assert [(e.kind, e.vehicle_id, e.facts) for e in world.events] == [
            ("split", rear.vid, (front.platoon_id, split))]
        assert modes(world)[1] is VehicleMode.LEADER
        # the record carries the mode that produced the command
        tr = world.trajectory
        assert tr.vehicle_id[-1] == rear.vid
        assert tr.mode[-1] == VehicleMode.FOLLOWER
        assert front.v == params.v_min

        step(world)
        assert [(e.kind, e.facts) for e in world.events[1:]] == [
            ("merge", (split, front.platoon_id))]
        assert modes(world)[1] is VehicleMode.FOLLOWER
        assert rear.platoon_id == front.platoon_id
        assert [e.kind for e in world.events] == ["split", "merge"]

    def test_one_resequence_call_orders_every_event_kind(self, params):
        # Verdicts and modes set by hand, front to back, as a decide pass
        # would leave them; stamp 10 s.  Expected, by vehicle id:
        # 0 a head with nobody ahead: nothing;
        # 1 a follower in a deadline-safety conflict: relaxes;
        # 2 a follower at the floor in conflict: splits 0 -> 4;
        # 3 a relaxed feasible follower: skipped, stays relaxed;
        # 4 a feasible recovering head, its deadline back in reach:
        #   recovers, then merges 1 -> 4;
        # 5 a feasible head: merges 2 -> 4;
        # 6 a follower in a brake conflict: splits 2 -> 5;
        # 7 a feasible follower: skipped, rides along into platoon 5.
        V = kernels.FeasibilityVerdict
        rows = [  # vid, p, platoon, relaxed, control_mode, verdict
            (0, 600.0, 0, False, VehicleMode.LEADER, V.FEASIBLE),
            (1, 580.0, 0, False, VehicleMode.FOLLOWER,
             V.DEADLINE_SAFETY_CONFLICT),
            (2, 560.0, 0, False, VehicleMode.FOLLOWER, V.FLOOR_CONFLICT),
            (3, 540.0, 0, True, VehicleMode.FOLLOWER_DEADLINE_RELAXED,
             V.FEASIBLE),
            (4, 520.0, 1, True, VehicleMode.LEADER_RECOVERING, V.FEASIBLE),
            (5, 500.0, 2, False, VehicleMode.LEADER, V.FEASIBLE),
            (6, 480.0, 2, False, VehicleMode.FOLLOWER, V.BRAKE_CONFLICT),
            (7, 460.0, 2, False, VehicleMode.FOLLOWER, V.FEASIBLE),
        ]
        world = quiet_world(params)
        world.next_platoon_id = 4
        for vid, p, platoon, relaxed, mode, verdict in rows:
            veh = VehicleState(vid=vid, p=p, v=20.0, accel=0.0,
                               deadline=40.0, exit_pos=1000.0,
                               platoon_id=platoon, relaxed=relaxed)
            veh.control_mode, veh.verdict = int(mode), verdict
            world.vehicles.append(veh)

        sim.resequence(world, 10.0)

        # deadline margin (1000 - p) - (40 - 10) * 20
        assert [(e.time, e.kind, e.vehicle_id, e.facts)
                for e in world.events] == [
            (10.0, "split", 2, (0, 4)),
            (10.0, "split", 6, (2, 5)),
            (10.0, "deadline_relax", 1, (-180.0,)),
            (10.0, "deadline_recover", 4, (-120.0,)),
            (10.0, "merge", 4, (1, 4)),
            (10.0, "merge", 5, (2, 4)),
        ]
        assert [veh.relaxed for veh in world.vehicles] == [
            False, True, False, True, False, False, False, False]
        assert [veh.platoon_id for veh in world.vehicles] == [
            0, 0, 4, 4, 4, 4, 5, 5]
        assert world.next_platoon_id == 6

    @pytest.mark.parametrize("c2", [0.02, 0.08])
    def test_a_head_merges_by_the_worlds_drag_law(self, params, c2):
        # A head 6 m behind a predecessor 10 m/s faster: the wake law with
        # c2=0.02 bounds its descent at -2.5 m/s^2 and lets it merge; the
        # default c2=0.08 asks for -5.2, beyond the brakes, and keeps it
        # heading its own platoon.
        world = quiet_world(replace(params, drag=DragCoefficients(c2=c2)))
        front = place(world, 300.0, 32.0)
        rear = place(world, 294.0, 22.0, mode=VehicleMode.LEADER)
        step(world)
        merged = rear.platoon_id == front.platoon_id
        assert merged is (c2 == 0.02)
        assert [e.kind for e in world.events] == ["merge"] * merged


class TestRunInvariants:
    def test_records_are_ordered_and_within_bounds(self, params, short_run):
        tr = short_run.trajectory
        times = list(tr.times)
        assert times == sorted(set(times))
        v, accel = np.array(tr.v), np.array(tr.accel)
        assert ((params.v_min <= v) & (v <= params.v_max)).all()
        assert ((params.a_min <= accel) & (accel <= params.a_max)).all()
        physics = tr.physics()
        assert (physics.u == accel + physics.drag).all()
        assert set(tr.mode) <= set(VehicleMode)

    def test_snapshots_keep_strict_ordering_and_contiguous_platoons(
            self, short_run):
        for snap in records_by_time(short_run.trajectory).values():
            positions = [r.p for r in snap]
            assert positions == sorted(positions, reverse=True)
            assert len(set(r.vehicle_id for r in snap)) == len(snap)
            seen = []
            for rec in snap:
                if not seen or seen[-1] != rec.platoon_id:
                    assert rec.platoon_id not in seen
                    seen.append(rec.platoon_id)

    def test_each_steps_events_come_in_phase_order(self):
        # Exits, then splits, then mode flips, then merges, then arrivals.
        # resequence splits and flips modes in one pass front to back, yet
        # a step's split events still precede its flips.  This run has
        # steps with both, some with the flip ahead of the split.
        phase = {sim.EVENT_EXIT: 0, sim.EVENT_SPLIT: 1, sim.EVENT_RELAX: 2,
                 sim.EVENT_RECOVER: 2, sim.EVENT_MERGE: 3,
                 sim.EVENT_SPAWN: 4, sim.EVENT_DISCARD: 4}
        steps = {}
        for e in run(SimParams(seed=0)).events:
            steps.setdefault(e.time, []).append(phase[e.kind])
        assert all(order == sorted(order) for order in steps.values())
        assert any({1, 2} <= set(order) for order in steps.values())

    def test_discards_carry_no_vehicle_id(self, short_run):
        discards = [e for e in short_run.events if e.kind == "discard"]
        assert all(e.vehicle_id == -1 for e in discards)

    def test_every_spawned_vehicle_is_recorded(self, short_run):
        spawned = {e.vehicle_id for e in short_run.events
                   if e.kind == "spawn"}
        recorded = set(short_run.trajectory.vehicle_id)
        assert spawned == recorded

    @pytest.mark.parametrize("params", [
        SimParams(),
        SimParams(duration=60.0, gamma=0.0, worst_case_pred_accel=True),
        SimParams(duration=60.0, enforce_deadlines=False),
        *(SimParams(seed=s) for s in range(1, 5))],
        ids=["default", "worst_case_gamma0", "no_deadlines",
             "seed1", "seed2", "seed3", "seed4"])
    def test_a_head_by_mode_is_a_head_by_platoon_id(self, params):
        # A row's command was decided from its vehicle's previous row b:
        # bit 0 of its mode says that nobody directly ahead of b, in b's
        # step, shared b's platoon id.  A vehicle's first row reads its
        # own step, where it was placed.
        tr = run(params).trajectory
        pid = np.array(tr.platoon_id)
        front = np.zeros(len(pid), np.bool_)
        front[np.array(tr.offsets[:-1])] = True
        heads_a_platoon = front | (pid != np.roll(pid, 1))
        before = previous_rows(tr)
        decided_at = np.where(before >= 0, before, np.arange(len(pid)))
        assert ((np.array(tr.mode) & 1 == 1)
                == heads_a_platoon[decided_at]).all()

    def test_each_vehicle_is_recorded_in_its_mode_at_control(self):
        # A vehicle put into world.vehicles by hand does not take the
        # next id; every vehicle must still be recorded in the mode that
        # produced its command.
        params = SimParams(seed=4)
        world = WorldState.initial(params)
        for _ in range(300):
            step(world)
        front = world.vehicles[0]
        world.vehicles.insert(0, VehicleState(
            vid=10**6, p=front.p + 200.0, v=front.v, accel=0.0,
            deadline=FAR, exit_pos=FAR, platoon_id=10**6))
        at_control = {veh.vid: mode
                      for veh, mode in zip(world.vehicles, modes(world))}
        step(world)
        tr = world.trajectory
        rows = range(tr.offsets[-2], tr.offsets[-1])
        recorded = {tr.vehicle_id[i]: tr.mode[i] for i in rows}
        assert len(recorded) > 20
        assert {vid: recorded[vid] for vid in at_control} == at_control

    def test_same_seed_replays_identically(self):
        p = SimParams(duration=15.0, seed=4)
        assert world_bytes(run(p)) == world_bytes(run(p))

    def test_a_world_runs_only_under_its_own_params(self, params):
        short = replace(params, duration=1.0)
        world = quiet_world(short)
        with pytest.raises(ValueError, match="other params"):
            run(replace(short, drag=DragCoefficients(c2=0.02)), world=world)
        assert world.t == 0.0
        assert run(replace(short), world=world).events == []

    def test_a_worlds_params_cannot_be_reassigned(self, params):
        short = replace(params, duration=1.0)
        world = quiet_world(short)
        with pytest.raises(AttributeError):
            world.params = replace(short, v_min=25.0)
        assert world.params is short is world.trajectory.params
        with pytest.raises(ValueError, match="other params"):
            run(replace(short, v_min=25.0), world=world)

    @pytest.mark.parametrize("bad", [
        {"dt": -0.1}, {"duration": -5.0}, {"dt": 0.0},
        {"v_min": 30.0, "v_max": 20.0}],
        ids=["negative_dt", "negative_duration", "zero_dt", "empty_box"])
    def test_a_run_refuses_params_that_fail_validation(self, bad):
        params = SimParams(**bad)
        with pytest.raises(ValueError) as exc:
            run(params)
        assert str(exc.value) == "; ".join(validate_params(params))


# A short, crowded road: the dense corridor's ramps on a 2.5 km road,
# with exits far enough downstream that platoons form and hold.
SHORT_DENSE = SimParams(duration=120.0, seed=3, road=RoadNetwork(
    length=2500.0, on_ramps=(100.0, 600.0, 1100.0), off_ramps=(2000.0,)))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the follower kernel's calls while the test runs."""
    calls = [0]
    solve = kernels.follower_decision

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(kernels, "follower_decision", counted)
    return calls


class TestSolveReuse:
    """A follower whose kernel inputs stand still reuses its last solve
    instead of calling the kernel; nothing may tell."""

    @pytest.mark.parametrize("params", [SimParams(), SHORT_DENSE],
                             ids=["default", "short_dense"])
    def test_reuse_equals_solving_every_step(self, params, kernel_calls):
        n = round(params.duration / params.dt)
        reused = WorldState.initial(params)
        step_world(reused, n, {})
        reusing_calls = kernel_calls[0]
        fresh = WorldState.initial(params)
        step_world(fresh, n, {}, fresh=True)
        assert world_bytes(reused) == world_bytes(fresh)
        # The reuse fired: at least a quarter of the solves were skipped.
        assert reusing_calls < 0.75 * (kernel_calls[0] - reusing_calls)

    def followers(self, params):
        # Behind a head, a follower closing in on it inside the envelope
        # (its command is the envelope cap, which gamma scales) and one
        # falling back (its command is the drag-descent bound, which
        # depends on c2).
        world = WorldState.initial(params, spawning=False)
        place(world, 300.0, 30.0)
        place(world, 290.0, 33.0)
        place(world, 270.0, 30.0)
        return world

    def test_repeated_inputs_skip_the_kernel(self, params, kernel_calls):
        world = self.followers(params)
        state = [(veh.p, veh.v, veh.accel, veh.relaxed, veh.platoon_id)
                 for veh in world.vehicles]
        first = decided(world)
        assert kernel_calls[0] == 2
        assert decided(world) == first
        assert kernel_calls[0] == 2
        # Deciding leaves the pre-step state it reads as it found it.
        assert [(veh.p, veh.v, veh.accel, veh.relaxed, veh.platoon_id)
                for veh in world.vehicles] == state

    @pytest.mark.parametrize("change", [
        "v", "p_hat", "v_hat", "pred_accel", "deadline"])
    def test_a_changed_input_or_binding_solves_afresh(self, params, change):
        world = self.followers(params)
        head, closing, opening = world.vehicles
        first = decided(world)
        if change == "v":
            # Both followers speed up alike: the opening one's v_hat holds.
            closing.v += 1.0
            opening.v += 1.0
        elif change == "p_hat":
            opening.p -= 1.0
        elif change == "v_hat":
            closing.v += 1.0
        elif change == "pred_accel":
            head.accel = -2.0
        else:
            opening.deadline = world.t
        again = decided(world)
        for veh in world.vehicles:
            veh.last_solve = None
        assert again == decided(world)
        assert again != first

    @given(v=st.one_of(st.just(20.0), st.just(35.0), st.floats(20.0, 35.0)),
           p_hat=st.floats(-80.0, -0.5), v_hat=st.floats(-15.0, 15.0),
           deadline=st.booleans(),
           gamma=st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
    def test_the_kernel_cannot_tell_the_two_zero_commands_apart(
            self, v, p_hat, v_hat, deadline, gamma):
        p = SimParams(gamma=gamma)
        plus = kernels.follower_decision(v, p_hat, v_hat, 0.0, deadline, p)
        minus = kernels.follower_decision(v, p_hat, v_hat, -0.0, deadline, p)
        assert [repr(x) for x in plus] == [repr(x) for x in minus]


def string_gap_losses(params, v0, head_mode):
    """Run thirty vehicles at ``v0``, each exactly ``delta`` behind the
    one ahead and the head placed in ``head_mode`` (``insert_vehicle``'s
    default when None), for the run's
    duration; return the world and the worst gap loss of each link
    (``delta`` less its least bumper gap), front to back."""
    world = quiet_world(params)
    place(world, 1000.0, v0, mode=head_mode)
    for i in range(1, 30):
        place(world, 1000.0 - i * params.delta, v0)
    ids = [veh.vid for veh in world.vehicles]
    loss = [0.0] * 29
    for _ in range(round(params.duration / params.dt)):
        step(world)
        assert [veh.vid for veh in world.vehicles] == ids
        p = [veh.p for veh in world.vehicles]
        loss = [max(worst, params.delta - (p[i] - p[i + 1]))
                for i, worst in enumerate(loss)]
    return world, loss


STRING_CASES = pytest.mark.parametrize("gamma,worst_case", [
    (0.0, False), (1.0, False), (0.0, True), (1.0, True)],
    ids=["0.0", "1.0", "0.0-worst_case", "1.0-worst_case"])


class TestBrakingHeadString:
    """A braking head's disturbance does not grow down a platoon.

    Thirty vehicles cruise at ``v0``, each exactly ``delta`` behind the
    one ahead, when the head, a ``LEADER``, starts braking to the floor.
    The worst gap loss of each link (``delta`` less its least bumper
    gap) may not grow from one link to the next, nor exceed the losses
    recorded below: a change to the sampled-data model may only lower
    them.

    Each follower starts braking one step after the vehicle ahead.  That
    lag comes from the ``v_hat > 0`` gate in ``safe_interval``, not from
    the predecessor command the follower assumes: in the first step the
    pair is not yet closing, so no envelope cap applies, and the command
    of least magnitude is 0.  Assuming full braking ahead
    (``worst_case_pred_accel``) therefore loses exactly as much.
    """

    # (v0, dt) -> worst gap loss per link (m), the same at every link,
    # for both gamma values and for either predecessor command.
    MEASURED = {(25.0, 0.1): 0.50, (35.0, 0.1): 1.50,
                (25.0, 0.2): 1.04, (35.0, 0.2): 3.00}

    @STRING_CASES
    @pytest.mark.parametrize("v0,dt", list(MEASURED))
    def test_the_gap_loss_never_grows_down_the_platoon(self, v0, dt, gamma,
                                                       worst_case):
        params = SimParams(dt=dt, gamma=gamma, duration=30.0,
                           worst_case_pred_accel=worst_case)
        world, loss = string_gap_losses(params, v0, None)
        assert world.trajectory.mode[0] == VehicleMode.LEADER
        assert world.vehicles[0].v == params.v_min
        assert all(b <= a + 1e-9 for a, b in zip(loss, loss[1:]))
        assert max(loss) <= self.MEASURED[v0, dt] + 1e-9


class TestRecoveringHeadString:
    """The mirrored case: the same string's head accelerates away.

    The head is placed as a ``LEADER_RECOVERING`` whose deadline is far
    off, so its margin is far below ``-eps_d``.  It takes the largest
    admissible acceleration for one step (none at ``v0 = v_max``),
    recovers, and as a ``LEADER`` brakes to the floor.  The followers
    first open their gaps and then close them as in the braking case.

    Each case's worst gap loss of any link may not exceed the value
    recorded below, so a change to the sampled-data model may only
    lower it.  The loss is not pinned to stay flat down the string: at
    ``gamma = 0`` with ``v0 = 25`` it grows, from 0.500 m at link 2 to
    0.504 m at link 29 at ``dt = 0.1``, and it peaks at 1.048 m at
    ``dt = 0.2``, past the braking case's ``(v0 - v_min) * dt``.  At
    ``gamma = 1`` the worst losses are the braking case's, but they
    rise and fall along the string.
    """

    # (v0, dt, gamma, worst_case) -> worst gap loss of any link (m),
    # where it is not the braking case's.
    GROWING = {(25.0, 0.1, 0.0, False): 0.503658,
               (25.0, 0.2, 0.0, False): 1.048319}

    @STRING_CASES
    @pytest.mark.parametrize("v0,dt", list(TestBrakingHeadString.MEASURED))
    def test_the_gap_loss_stays_at_its_recorded_worst(self, v0, dt, gamma,
                                                      worst_case):
        params = SimParams(dt=dt, gamma=gamma, duration=30.0,
                           worst_case_pred_accel=worst_case)
        world, loss = string_gap_losses(params, v0,
                                        VehicleMode.LEADER_RECOVERING)
        tr = world.trajectory
        # The head's rows in the first two steps.
        assert tr.mode[0] == VehicleMode.LEADER_RECOVERING
        assert tr.accel[0] == (params.a_max if v0 < params.v_max else 0.0)
        assert tr.mode[tr.offsets[1]] == VehicleMode.LEADER
        assert world.vehicles[0].v == params.v_min
        worst = self.GROWING.get((v0, dt, gamma, worst_case),
                                 TestBrakingHeadString.MEASURED[v0, dt])
        assert max(loss) <= worst + 1e-9
