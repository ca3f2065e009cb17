import math
import random
import sys

import pytest

from platoonflow import (
    DragCoefficients,
    ExponentialWakeDrag,
    SimParams,
    Trajectory,
    TrajectoryRecord,
    VehicleMode,
    WorldState,
    insert_vehicle,
    run,
    step,
)
from platoonflow.analysis import records_by_time, records_by_vehicle
from platoonflow.constraints import deadline_margin, stopping_margin
from platoonflow.trajectory import COLUMNS, DERIVED_COLUMNS, MODES

from conftest import derived_bytes, recompute_derived, step_world


def columns(tr):
    return {name: getattr(tr, name).tobytes()
            for name in ("times", "offsets") + COLUMNS}


def test_mode_codes_carry_the_head_and_relaxed_bits():
    for code, mode in enumerate(MODES):
        assert bool(code & 1) == mode.is_head
        assert bool(code & 2) == mode.deadline_relaxed
    assert set(MODES) == set(VehicleMode)


class TestColumns:
    def test_from_records_reproduces_the_columns(self, short_run):
        tr = short_run.trajectory
        rebuilt = Trajectory.from_records(list(tr))
        assert columns(rebuilt) == columns(tr)
        assert rebuilt == tr

    def test_from_records_orders_shuffled_records(self, short_run):
        records = list(short_run.trajectory)
        random.Random(5).shuffle(records)
        assert Trajectory.from_records(records) == short_run.trajectory

    def test_from_records_rejects_an_unknown_mode(self):
        rec = TrajectoryRecord(0.1, 1, 1, 0.0, 20.0, 0.0, 0.0, 0.0,
                               math.nan, -1.0, "cruising")
        with pytest.raises(ValueError, match="cruising"):
            Trajectory.from_records([rec])

    def test_indexing_matches_iteration(self, short_run):
        tr = short_run.trajectory
        records = list(tr)
        assert len(records) == len(tr)
        for i in (0, 1, 57, len(tr) // 2, len(tr) - 1):
            assert tr[i] == records[i]
        assert tr[-1] == records[-1]
        with pytest.raises(IndexError):
            tr[len(tr)]

    def test_equality_is_per_run(self):
        a = run(SimParams(duration=10.0, seed=2)).trajectory
        b = run(SimParams(duration=10.0, seed=3)).trajectory
        assert a != b
        assert a == run(SimParams(duration=10.0, seed=2)).trajectory
        assert a != list(a)

    def test_records_stay_under_one_hundred_bytes(self, short_run):
        tr = short_run.trajectory
        held = sum(sys.getsizeof(getattr(tr, name))
                   for name in ("times", "offsets") + COLUMNS)
        assert held / len(tr) <= 100.0


class TestRecordViews:
    def test_views_carry_what_the_engine_recorded(self, params):
        world = WorldState.initial(params, spawning=False)
        law = ExponentialWakeDrag(params.drag)
        insert_vehicle(world, 300.0, 24.0, exit_pos=1e9, deadline=1e9)
        insert_vehicle(world, 280.0, 27.0, exit_pos=1e9, deadline=400.0)
        for _ in range(3):
            step(world, params)
        front, rear = world.vehicles
        snap = world.trajectory.snapshot(-1)
        assert [r.vehicle_id for r in snap] == [front.vid, rear.vid]
        for rec, veh in zip(snap, world.vehicles):
            assert rec.time == world.t
            assert (rec.platoon_id, rec.p, rec.v, rec.accel) == (
                veh.platoon_id, veh.p, veh.v, veh.accel)
            assert rec.u == rec.accel + rec.drag
            assert rec.deadline_margin == deadline_margin(
                veh.p, veh.v, world.t, veh.exit_pos, veh.deadline)
            assert rec.mode == veh.mode.value
        assert snap[0].drag == law.force(front.v, 0.0, False)
        assert math.isnan(snap[0].gs_margin)
        p_hat, v_hat = rear.p - front.p, rear.v - front.v
        assert snap[1].drag == law.force(rear.v, p_hat, True)
        assert snap[1].gs_margin == stopping_margin(rear.v, p_hat, v_hat,
                                                    params)

    def test_snapshots_match_those_of_the_record_list(self, short_run):
        tr = short_run.trajectory
        assert records_by_time(tr) == records_by_time(list(tr))
        assert records_by_vehicle(tr) == records_by_vehicle(list(tr))
        last = max(records_by_time(tr))
        assert records_by_time(tr)[last] == tr.snapshot(-1)


# A law that differs from the default by its wake length.
LONG_WAKE = ExponentialWakeDrag(DragCoefficients(c2=0.02))


def test_a_swapped_in_drag_law_runs_through_the_engine():
    params = SimParams(duration=20.0, seed=1)
    world = WorldState.initial(params, drag_law=LONG_WAKE)
    result = run(params, world=world)
    assert len(result.trajectory) > 0
    for snap in records_by_time(result.trajectory).values():
        assert snap[0].drag == LONG_WAKE.force(snap[0].v, 0.0, False)
        for ahead, rec in zip(snap, snap[1:]):
            assert rec.drag == LONG_WAKE.force(rec.v, rec.p - ahead.p, True)
    modes = {rec.mode for rec in result.trajectory}
    assert VehicleMode.FOLLOWER.value in modes


class TestDerivedColumns:
    """The physics columns are derived on read, from a fill watermark."""

    @pytest.mark.parametrize("custom", [False, True],
                             ids=["default_law", "custom_law"])
    def test_columns_fill_from_the_watermark(self, custom):
        params = SimParams(seed=4)

        def world():
            return WorldState.initial(
                params, drag_law=LONG_WAKE if custom else None)

        live, targets = world(), {}
        step_world(live, params, 150, targets)
        tr = live.trajectory
        rows = len(tr)
        first = derived_bytes(tr)
        step_world(live, params, 100, targets)
        assert 0 < rows < len(tr)
        second = derived_bytes(tr)
        for name in DERIVED_COLUMNS:
            assert len(first[name]) == 8 * rows
            assert second[name][:8 * rows] == first[name]

        fresh = world()
        step_world(fresh, params, 250, {})
        assert fresh.trajectory == tr
        assert derived_bytes(fresh.trajectory) == second
        assert recompute_derived(tr, live.drag_law, params, targets) == second

    def test_rows_keep_the_drag_law_they_were_recorded_under(self):
        params = SimParams(seed=4)
        world, targets = WorldState.initial(params), {}
        step_world(world, params, 100, targets)
        default, rows = world.drag_law, len(world.trajectory)
        world.drag_law = LONG_WAKE
        step_world(world, params, 50, targets)
        tr = world.trajectory
        derived = derived_bytes(tr)
        before = recompute_derived(tr, default, params, targets)
        after = recompute_derived(tr, world.drag_law, params, targets)
        assert derived["drag"] != before["drag"]
        for name in DERIVED_COLUMNS:
            assert derived[name][:8 * rows] == before[name][:8 * rows]
            assert derived[name][8 * rows:] == after[name][8 * rows:]

    def test_a_trajectory_without_a_drag_law_cannot_derive(self):
        tr = Trajectory()
        tr.append_step(0.1, [0], [0], [10.0], [25.0], [0.0], [1])
        assert list(tr.p) == [10.0]
        with pytest.raises(ValueError, match="drag law"):
            tr.drag
