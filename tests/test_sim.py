import collections
from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

import platoonflow.controller as controller
from platoonflow import (
    DragCoefficients,
    ExponentialWakeDrag,
    OrderingError,
    RoadNetwork,
    SafetyAuditError,
    SimParams,
    VehicleMode,
    WorldState,
    insert_vehicle,
    run,
    step,
)
from platoonflow._backend import kernels
from platoonflow.analysis import records_by_time
from platoonflow.constraints import SPEED_EDGE_TOL
from platoonflow.sim import _decide

from conftest import DelegatingWake, step_world, world_bytes

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


# A short, crowded road: the dense corridor's ramps on a 2.5 km road,
# with exits far enough downstream that platoons form and hold.
SHORT_DENSE = SimParams(duration=120.0, seed=3, road=RoadNetwork(
    length=2500.0, on_ramps=(100.0, 600.0, 1100.0), off_ramps=(2000.0,)))

# A second drag law that differs from the default by its wake length.
LONG_WAKE = DragCoefficients(c2=0.02)


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
    """A follower whose kernel inputs and binding stand still reuses its
    last solve instead of calling the kernel; nothing may tell."""

    @pytest.mark.parametrize("params", [SimParams(), SHORT_DENSE],
                             ids=["default", "short_dense"])
    def test_reuse_equals_solving_every_step(self, params, kernel_calls):
        n = round(params.duration / params.dt)
        reused = WorldState.initial(params)
        step_world(reused, params, n, {})
        reusing_calls = kernel_calls[0]
        fresh = WorldState.initial(params)
        step_world(fresh, params, n, {}, fresh=True)
        assert world_bytes(reused) == world_bytes(fresh)
        # The reuse fired: at least a quarter of the solves were skipped.
        assert reusing_calls < 0.75 * (kernel_calls[0] - reusing_calls)

    def test_binding_changes_mid_run_equal_solving_every_step(self):
        params = SimParams(duration=60.0, seed=2)

        def stepped(fresh):
            world = WorldState.initial(params)
            step_world(world, params, 200, {}, fresh=fresh)
            world.drag_law = ExponentialWakeDrag(LONG_WAKE)
            step_world(world, params, 200, {}, fresh=fresh)
            step_world(world, replace(params, gamma=0.5), 200, {},
                       fresh=fresh)
            return world_bytes(world)

        assert stepped(False) == stepped(True)

    def followers(self, params, law=None):
        # Behind a head, a follower closing in on it inside the envelope
        # (its command is the envelope cap, which gamma scales) and one
        # falling back (its command is the drag-descent bound, which
        # depends on c2).
        world = WorldState.initial(params, spawning=False, drag_law=law)
        place(world, 300.0, 30.0)
        place(world, 290.0, 33.0)
        place(world, 270.0, 30.0)
        return world

    def test_repeated_inputs_skip_the_kernel(self, params, kernel_calls):
        world = self.followers(params)
        first = _decide(world, params)
        assert kernel_calls[0] == 2
        assert _decide(world, params) == first
        assert kernel_calls[0] == 2

    @pytest.mark.parametrize("change", [
        "v", "p_hat", "v_hat", "pred_accel", "deadline",
        "drag_law", "params", "kernel"])
    def test_a_changed_input_or_binding_solves_afresh(self, params, change,
                                                      monkeypatch):
        world = self.followers(params)
        head, closing, opening = world.vehicles
        first = _decide(world, params)
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
        elif change == "deadline":
            opening.deadline = world.t
        elif change == "drag_law":
            world.drag_law = ExponentialWakeDrag(LONG_WAKE)
        elif change == "params":
            params = replace(params, gamma=0.5)
        else:
            solve = kernels.follower_decision
            monkeypatch.setattr(
                kernels, "follower_decision",
                lambda *args: (-1.0,) + solve(*args)[1:])
        again = _decide(world, params)
        for veh in world.vehicles:
            veh.last_solve = None
        assert again == _decide(world, params)
        assert again != first

    def test_a_law_the_kernels_do_not_know_solves_every_step(
            self, params, monkeypatch):
        calls = []
        composed = controller._solve_composed

        def counted(*args):
            calls.append(args)
            return composed(*args)

        monkeypatch.setattr(controller, "_solve_composed", counted)
        world = self.followers(params, DelegatingWake(params.drag))
        assert _decide(world, params) == _decide(world, params)
        assert len(calls) == 4

    @given(v=st.one_of(st.just(20.0), st.just(35.0), st.floats(20.0, 35.0)),
           p_hat=st.floats(-80.0, -0.5), v_hat=st.floats(-15.0, 15.0),
           deadline=st.booleans(),
           gamma=st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
    def test_the_kernel_cannot_tell_the_two_zero_commands_apart(
            self, v, p_hat, v_hat, deadline, gamma):
        p = SimParams()
        # A closing pair cannot sit at the floor (see envelope_cap).
        assume(v_hat <= 0.0 or v > p.v_min + SPEED_EDGE_TOL)
        consts = (p.v_min, p.v_max, p.a_min, p.a_max, p.delta, p.eps_g,
                  gamma, p.drag.c0, p.drag.c1, p.drag.c2)
        plus = kernels.follower_decision(v, p_hat, v_hat, 0.0, deadline,
                                         *consts)
        minus = kernels.follower_decision(v, p_hat, v_hat, -0.0, deadline,
                                          *consts)
        assert [repr(x) for x in plus] == [repr(x) for x in minus]
