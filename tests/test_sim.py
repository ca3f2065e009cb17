import collections

import pytest

from platoonflow import (
    DragCoefficients,
    ExponentialWakeDrag,
    OrderingError,
    SafetyAuditError,
    SimParams,
    VehicleMode,
    WorldState,
    insert_vehicle,
    run,
    step,
)
from platoonflow.analysis import records_by_time
from platoonflow.constraints import SPEED_EDGE_TOL

FAR = 1e9


def quiet_world(params):
    return WorldState.initial(params, spawning=False)


def place(world, p, v, mode=None):
    return insert_vehicle(world, p, v, exit_pos=FAR, deadline=FAR, mode=mode)


class TestInsertVehicle:
    def test_front_of_empty_road_heads_a_platoon(self, params):
        world = quiet_world(params)
        veh = place(world, 300.0, 25.0)
        assert veh.mode is VehicleMode.LEADER
        assert world.vehicles == [veh]

    def test_behind_another_joins_its_platoon(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0)
        assert rear.mode is VehicleMode.FOLLOWER
        assert rear.platoon_id == front.platoon_id
        assert [v.vid for v in world.vehicles] == [front.vid, rear.vid]

    def test_slotted_by_position_between_existing(self, params):
        world = quiet_world(params)
        a = place(world, 300.0, 25.0)
        c = place(world, 100.0, 25.0)
        b = place(world, 200.0, 25.0)
        assert [v.vid for v in world.vehicles] == [a.vid, b.vid, c.vid]

    def test_explicit_mode_gets_its_own_platoon(self, params):
        world = quiet_world(params)
        front = place(world, 300.0, 25.0)
        rear = place(world, 200.0, 25.0, mode=VehicleMode.LEADER)
        assert rear.mode is VehicleMode.LEADER
        assert rear.platoon_id != front.platoon_id


class TestStepDynamics:
    def test_lone_head_brakes_to_the_floor_and_parks(self, params):
        world = quiet_world(params)
        place(world, 100.0, 30.0)
        step(world, params)
        veh = world.vehicles[0]
        assert veh.accel == params.a_min
        assert veh.p == 100.0 + 30.0 * 0.1 + 0.5 * -4.0 * 0.1 * 0.1
        assert veh.v == 30.0 + -4.0 * 0.1
        for _ in range(40):
            step(world, params)
        # fp residue from 25 brake steps parks it within the edge tolerance
        assert abs(veh.v - params.v_min) <= SPEED_EDGE_TOL
        assert veh.accel == 0.0
        assert all(r.v >= params.v_min for r in world.trajectory)

    def test_vehicle_leaves_at_its_exit(self, params):
        world = quiet_world(params)
        insert_vehicle(world, 498.0, 20.0, exit_pos=500.0, deadline=FAR)
        step(world, params)
        assert world.vehicles == []
        assert [e.kind for e in world.events] == ["exit"]
        assert world.counters["exited"] == 1

    def test_overtaking_is_an_ordering_error(self, params):
        world = quiet_world(params)
        place(world, 100.0, 20.0)
        place(world, 99.5, 35.0)
        with pytest.raises(OrderingError):
            step(world, params)

    def test_sub_margin_gap_fails_the_audit(self, params):
        world = quiet_world(params)
        place(world, 100.0, 20.0)
        place(world, 99.0, 20.0)
        with pytest.raises(SafetyAuditError, match="gap between"):
            step(world, params)

    def test_front_follower_is_rejected(self, params):
        world = quiet_world(params)
        place(world, 100.0, 25.0, mode=VehicleMode.FOLLOWER)
        with pytest.raises(OrderingError, match="no predecessor"):
            step(world, params)

    def test_zero_duration_run_is_empty(self):
        result = run(SimParams(duration=0.0))
        assert len(result.trajectory) == 0
        assert result.events == []
        assert result.metrics["spawned"] == 0

    def test_disabled_spawning_keeps_the_road_empty(self, params):
        import dataclasses
        short = dataclasses.replace(params, duration=5.0)
        result = run(short, world=quiet_world(short))
        assert len(result.trajectory) == 0
        assert result.metrics["spawned"] == 0


class TestSplitAndMerge:
    def test_floor_conflict_splits_then_merges_back(self, params):
        world = quiet_world(params)
        front = place(world, 200.0, params.v_min)
        rear = place(world, 200.0 - params.delta, params.v_min)
        front.v = params.v_min + 0.002

        step(world, params)
        assert [e.kind for e in world.events] == ["split"]
        assert rear.mode is VehicleMode.LEADER
        assert rear.platoon_id != front.platoon_id
        # the record carries the mode that produced the command
        rear_record = [r for r in world.trajectory
                       if r.vehicle_id == rear.vid][-1]
        assert rear_record.mode == "follower"
        assert front.v == params.v_min

        step(world, params)
        assert [e.kind for e in world.events] == ["split", "merge"]
        assert rear.mode is VehicleMode.FOLLOWER
        assert rear.platoon_id == front.platoon_id
        assert world.counters["splits"] == 1
        assert world.counters["merges"] == 1

    @pytest.mark.parametrize("c2", [0.02, 0.08])
    def test_a_head_merges_by_the_worlds_drag_law(self, params, c2):
        # A head 6 m behind a predecessor 10 m/s faster: the wake law with
        # c2=0.02 bounds its descent at -2.5 m/s^2 and lets it merge; the
        # default c2=0.08 asks for -5.2, beyond the brakes, and keeps it
        # heading its own platoon.
        law = ExponentialWakeDrag(DragCoefficients(c2=c2))
        world = WorldState.initial(params, spawning=False, drag_law=law)
        front = place(world, 300.0, 32.0)
        rear = place(world, 294.0, 22.0, mode=VehicleMode.LEADER)
        step(world, params)
        merged = rear.platoon_id == front.platoon_id
        assert merged is (c2 == 0.02)
        assert [e.kind for e in world.events] == ["merge"] * merged


class TestRunInvariants:
    def test_records_are_ordered_and_within_bounds(self, params, short_run):
        times = [r.time for r in short_run.trajectory]
        assert times == sorted(times)
        for rec in short_run.trajectory:
            assert params.v_min <= rec.v <= params.v_max
            assert params.a_min <= rec.accel <= params.a_max
            assert rec.u == rec.accel + rec.drag
            assert rec.mode in {"follower", "leader", "follower_relaxed",
                                "leader_recovering"}

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

    def test_counters_agree_with_the_event_log(self, short_run):
        by_kind = collections.Counter(e.kind for e in short_run.events)
        m = short_run.metrics
        assert m["spawned"] == by_kind["spawn"]
        assert m["discarded"] == by_kind["discard"]
        assert m["exited"] == by_kind["exit"]
        assert m["splits"] == by_kind["split"]
        assert m["merges"] == by_kind["merge"]
        assert m["relaxations"] == by_kind["deadline_relax"]
        assert m["recoveries"] == by_kind["deadline_recover"]

    def test_discards_carry_no_vehicle_id(self, short_run):
        discards = [e for e in short_run.events if e.kind == "discard"]
        assert all(e.vehicle_id == -1 for e in discards)

    def test_every_spawned_vehicle_is_recorded(self, short_run):
        spawned = {e.vehicle_id for e in short_run.events
                   if e.kind == "spawn"}
        recorded = {r.vehicle_id for r in short_run.trajectory}
        assert spawned == recorded

    def test_same_seed_replays_identically(self):
        p = SimParams(duration=15.0, seed=4)
        assert run(p).trajectory == run(p).trajectory
