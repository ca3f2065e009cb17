import math
import random
import sys
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from platoonflow import (
    DragCoefficients,
    SimParams,
    Trajectory,
    VehicleMode,
    VehicleState,
    WorldState,
    insert_vehicle,
    run,
    step,
)
from platoonflow.analysis import (check_safety, records_by_time,
                                  records_by_vehicle, summarize)
from platoonflow import deadline_margin, drag_force, stopping_margin
from platoonflow import trajectory
from platoonflow.trajectory import (_CSV_ROW, DERIVED_COLUMNS, MODE_NAMES,
                                    STORED_COLUMNS, Forces, stable_order,
                                    trajectory_csv_text)

from conftest import (RUNS, derived_bytes, hand_built, modes,
                      recompute_derived, step_world, world_bytes)


def records(tr):
    """Every row of ``tr`` as a record, in stored order."""
    return [rec for step in records_by_time(tr).values() for rec in step]


def test_mode_codes_carry_the_head_and_relaxed_bits():
    # A row's VehicleMode code reads back as its label; bit 0 of the code
    # marks a platoon head and bit 1 a relaxed deadline.
    assert len(MODE_NAMES) == len(VehicleMode)
    for mode in VehicleMode:
        tr, _ = hand_built([(0.1, [(1, 0.0, 20.0, 0.0, 1, mode)])],
                           SimParams())
        assert tr.mode[0] == mode
        assert records(tr)[0].mode == MODE_NAMES[mode]
        assert bool(mode & 1) == MODE_NAMES[mode].startswith("leader")
        assert bool(mode & 2) == (mode in (
            VehicleMode.FOLLOWER_DEADLINE_RELAXED,
            VehicleMode.LEADER_RECOVERING))


class TestColumns:
    def test_rows_are_read_by_column_not_as_a_sequence(self, short_run):
        tr = short_run.trajectory
        time, start, stop = list(tr.steps())[-1]
        assert stop == len(tr)
        rec = records(tr)[-1]
        assert (rec.time, rec.vehicle_id, rec.p, rec.mode) == (
            tr.times[-1], tr.vehicle_id[-1], tr.p[-1],
            MODE_NAMES[tr.mode[-1]])
        with pytest.raises(TypeError):
            iter(tr)
        with pytest.raises(TypeError):
            tr[0]

    def test_equality_is_per_run(self):
        a = world_bytes(run(SimParams(duration=10.0, seed=2)))
        b = world_bytes(run(SimParams(duration=10.0, seed=3)))
        assert a != b
        assert a == world_bytes(run(SimParams(duration=10.0, seed=2)))

    def test_equality_counts_the_registered_targets(self):
        # Equal in every stored column, but vehicle 1's deadline differs,
        # and with it its deadline_margin rows.
        steps = [(0.1, [(0, 300.0, 25.0), (1, 280.0, 24.0)]),
                 (0.2, [(0, 302.5, 25.0), (1, 282.4, 24.0)])]
        a, targets = hand_built(steps, SimParams())
        b, _ = hand_built(steps, SimParams())
        assert derived_bytes(a) == derived_bytes(b)
        exit_pos, deadline = targets[1]
        b.register(1, exit_pos, deadline + 1.0)
        assert all(getattr(a, name) == getattr(b, name)
                   for name in ("times", "offsets") + STORED_COLUMNS)
        assert derived_bytes(a) != derived_bytes(b)

    def test_records_stay_under_one_hundred_bytes(self, short_run):
        tr = short_run.trajectory
        held = sum(sys.getsizeof(getattr(tr, name))
                   for name in ("times", "offsets") + STORED_COLUMNS)
        assert held / len(tr) <= 100.0


class TestRecordViews:
    def test_views_carry_what_the_engine_recorded(self, params):
        world = WorldState.initial(params, spawning=False)
        law = params.drag
        insert_vehicle(world, 300.0, 24.0, exit_pos=1e9, deadline=1e9)
        insert_vehicle(world, 280.0, 27.0, exit_pos=1e9, deadline=400.0)
        for _ in range(3):
            step(world)
        front, rear = world.vehicles
        snap = records_by_time(world.trajectory)[world.t]
        assert [r.vehicle_id for r in snap] == [front.vid, rear.vid]
        for rec, veh, mode in zip(snap, world.vehicles, modes(world)):
            assert rec.time == world.t
            assert (rec.platoon_id, rec.p, rec.v, rec.accel) == (
                veh.platoon_id, veh.p, veh.v, veh.accel)
            assert rec.u == rec.accel + rec.drag
            assert rec.deadline_margin == deadline_margin(
                veh.p, veh.v, world.t, veh.exit_pos, veh.deadline)
            assert rec.mode == MODE_NAMES[mode]
        assert snap[0].drag == drag_force(front.v, -math.inf, law)
        assert math.isnan(snap[0].gs_margin)
        p_hat, v_hat = rear.p - front.p, rear.v - front.v
        assert snap[1].drag == drag_force(rear.v, p_hat, law)
        assert snap[1].gs_margin == stopping_margin(rear.v, p_hat, v_hat,
                                                    params)

    def test_snapshots_match_those_of_the_record_list(self, short_run):
        tr = short_run.trajectory
        by_vehicle = records_by_vehicle(tr)
        # Each vehicle's history is its rows of the steps, in time order.
        expected = {}
        for rec in records(tr):
            expected.setdefault(rec.vehicle_id, []).append(rec)
        assert by_vehicle == expected


# A law that differs from the default by its wake length.
LONG_WAKE = DragCoefficients(c2=0.02)


def test_a_swapped_in_drag_law_runs_through_the_engine():
    result = run(SimParams(duration=20.0, seed=1, drag=LONG_WAKE))
    assert len(result.trajectory) > 0
    for snap in records_by_time(result.trajectory).values():
        assert snap[0].drag == drag_force(snap[0].v, -math.inf, LONG_WAKE)
        for ahead, rec in zip(snap, snap[1:]):
            assert rec.drag == drag_force(rec.v, rec.p - ahead.p, LONG_WAKE)
    assert VehicleMode.FOLLOWER in result.trajectory.mode


class TestPhysics:
    """The physics columns are computed on each read, for any range of
    steps, and the trajectory keeps none of them."""

    @pytest.mark.parametrize("custom", [False, True],
                             ids=["default_law", "custom_law"])
    def test_appending_steps_leaves_earlier_rows_physics_unchanged(
            self, custom):
        params = SimParams(seed=4, drag=LONG_WAKE if custom
                           else DragCoefficients())
        live, targets = WorldState.initial(params), {}
        step_world(live, 150, targets)
        tr = live.trajectory
        steps, rows = len(tr.times), len(tr)
        first = derived_bytes(tr)
        step_world(live, 100, targets)
        assert 0 < rows < len(tr)
        second = derived_bytes(tr)
        assert derived_bytes(tr, 0, steps) == first
        for name in DERIVED_COLUMNS:
            assert len(first[name]) == 8 * rows
            assert second[name][:8 * rows] == first[name]

        fresh = WorldState.initial(params)
        step_world(fresh, 250, {})
        assert world_bytes(fresh) == world_bytes(live)
        assert derived_bytes(fresh.trajectory) == second
        assert recompute_derived(tr, params, targets) == second

    def test_the_params_a_trajectory_derives_under_are_read_only(self):
        params = SimParams(duration=20.0, seed=1)
        world = WorldState.initial(params)
        step_world(world, 50, {})
        tr = world.trajectory
        with pytest.raises(AttributeError):
            tr.params = replace(params, v_min=25.0)
        assert tr.params is world.params is params
        assert Trajectory(params).params is params
        with pytest.raises(TypeError):
            Trajectory()

    @pytest.mark.parametrize("block", [1, 7, 100, 4096])
    def test_a_range_is_those_rows_of_the_whole(self, monkeypatch,
                                                short_run, block):
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", block)
        tr = short_run.trajectory
        whole = tr.physics()
        n_steps = len(tr.times)
        cuts = [stop for _, stop in tr.blocks()]
        ranges = [(0, n_steps), (0, 1), (n_steps - 1, n_steps),
                  (n_steps // 2, n_steps // 2 + 1), (0, 0), (n_steps, n_steps),
                  (n_steps // 3, n_steps // 3)]
        # Ranges that start or stop one step off a block boundary, so
        # that they straddle it.
        ranges += [(max(cut - 1, 0), min(cut + 1, n_steps)) for cut in cuts]
        ranges += [(cut - 1, None) for cut in cuts[:3]]
        for start, stop in ranges:
            lo = tr.offsets[start]
            hi = tr.offsets[n_steps if stop is None else stop]
            part = tr.physics(start, stop)
            for column, of_whole in zip(part, whole):
                assert column.tobytes() == of_whole[lo:hi].tobytes()

    @pytest.mark.parametrize("name", list(RUNS))
    def test_physics_matches_the_row_by_row_kernels(self, run_of, name):
        params = RUNS[name]
        world, targets = WorldState.initial(params), {}
        step_world(world, round(params.duration / params.dt), targets)
        tr = world.trajectory
        assert world_bytes(world) == world_bytes(run_of(params))
        assert derived_bytes(tr) == recompute_derived(tr, params, targets)

    @pytest.mark.parametrize("name", list(RUNS))
    def test_forces_are_the_leading_physics_columns(self, run_of, name):
        tr = run_of(RUNS[name]).trajectory
        n_steps = len(tr.times)
        for start, stop in [(0, None), (n_steps // 3, n_steps // 2)]:
            forces = tr.forces(start, stop)
            assert isinstance(forces, Forces)
            assert [column.tobytes() for column in forces] \
                == [column.tobytes() for column in
                    tr.physics(start, stop)[:len(Forces._fields)]]

    @pytest.mark.parametrize("name", list(RUNS))
    def test_each_block_is_derived_from_one_pairing(self, monkeypatch,
                                                     run_of, name):
        tr = run_of(RUNS[name]).trajectory
        calls = []

        def spied(owner, attr):
            read = getattr(owner, attr)

            def call(*args, **kwargs):
                calls.append(attr)
                return read(*args, **kwargs)
            monkeypatch.setattr(owner, attr, call)

        for owner, attr in ((trajectory, "pair_rows"),
                            (trajectory, "deadline_margin"),
                            (Trajectory, "_targets")):
            spied(owner, attr)
        n_blocks = len(list(tr.blocks()))
        tr.physics()
        assert calls.count("pair_rows") == n_blocks
        calls.clear()
        tr.forces()
        # No margin: neither the targets nor the deadline margin.
        assert calls == ["pair_rows"] * n_blocks

    def test_slots_name_no_physics_column(self):
        assert [slot for slot in Trajectory.__slots__
                if slot.lstrip("_") in DERIVED_COLUMNS] == []

    def test_reading_physics_keeps_nothing(self):
        result = run(SimParams(duration=20.0, seed=1))
        tr = result.trajectory

        def held():
            return {name: sys.getsizeof(getattr(tr, name))
                    for name in Trajectory.__slots__
                    if isinstance(getattr(tr, name), array)}

        before = held()
        assert len(before) == len(STORED_COLUMNS) + 4
        tr.physics()
        trajectory_csv_text(tr)
        summarize(result)
        check_safety(tr)
        assert held() == before


class TestDeriveEdges:
    """Whole-column derives against the row-by-row kernels."""

    params = SimParams()

    def check(self, steps, registered_order=None):
        tr, targets = hand_built(steps, self.params, registered_order)
        assert derived_bytes(tr) == recompute_derived(tr, self.params,
                                                      targets)
        return tr

    def test_equal_speeds_and_a_gap_of_exactly_delta(self):
        delta = self.params.delta
        tr = self.check([(0.1, [(0, 300.0, 25.0), (1, 300.0 - delta, 25.0),
                                (2, 250.0, 24.0), (3, 240.0, 24.0)])])
        assert tr.physics().gs_margin.tolist()[1:] == [
            0.0, -45.0 + delta, -10.0 + delta]

    def test_steps_of_one_vehicle(self):
        tr = self.check([(0.1, [(0, 100.0, 22.0)]),
                         (0.2, [(0, 102.2, 22.0)]),
                         (0.3, [(0, 104.4, 22.5), (1, 90.0, 23.0)]),
                         (0.4, [(1, 92.3, 23.0)])])
        assert [math.isnan(g) for g in tr.physics().gs_margin] == [
            True, True, True, False, True]

    @pytest.mark.parametrize("block", [1, 5, 6, 7, 100])
    def test_steps_that_straddle_a_block_boundary(self, monkeypatch, block):
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", block)
        rng = random.Random(block)
        steps = []
        for k in range(12):
            n = rng.randint(1, 8)
            steps.append((0.1 * (k + 1), [
                (vid, 500.0 - 7.5 * vid + rng.uniform(-1.0, 1.0),
                 rng.uniform(20.0, 30.0)) for vid in range(n)]))
        self.check(steps)

    @pytest.mark.parametrize("block", [1, 7, 100, 4096])
    def test_blocks_cut_maximal_runs_of_whole_steps(self, monkeypatch,
                                                     short_run, block):
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", block)
        tr = short_run.trajectory
        offsets, n_steps = tr.offsets, len(tr.times)
        for first in (0, 1, n_steps // 2):
            blocks = list(tr.blocks(first))
            assert [start for start, _ in blocks] == (
                [first] + [stop for _, stop in blocks[:-1]])
            assert blocks[-1][1] == n_steps
            for start, stop in blocks:
                rows = offsets[stop] - offsets[start]
                assert rows <= block or stop == start + 1
                assert (stop == n_steps
                        or offsets[stop + 1] - offsets[start] > block)
        assert list(tr.blocks(n_steps)) == []
        assert list(Trajectory(self.params).blocks()) == []

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_to_a_stop_are_cut_there(self, monkeypatch, short_run,
                                            block):
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", block)
        tr = short_run.trajectory
        n_steps = len(tr.times)
        for first, stop in [(0, n_steps), (0, n_steps // 2), (1, n_steps // 3),
                            (n_steps // 2, n_steps // 2 + 1), (5, 5)]:
            assert list(tr.blocks(first, stop)) == [
                (k, min(end, stop)) for k, end in tr.blocks(first)
                if k < stop]

    def test_ids_registered_out_of_order(self):
        steps = [(0.1, [(5, 400.0, 25.0), (2, 390.0, 26.0),
                        (0, 350.0, 24.0), (3, 340.0, 24.5)])]
        self.check(steps, registered_order=[3, 0, 5, 2])

    @pytest.mark.parametrize("vid", [-1, 2, 9, 10 ** 12])
    def test_an_unregistered_vehicle_is_a_key_error(self, vid):
        tr, _ = hand_built([(0.1, [(3, 100.0, 25.0)]),
                            (0.2, [(3, 102.5, 25.0), (vid, 90.0, 25.0)])],
                           self.params, registered=[0, 1, 3])
        for start in (0, 1):
            with pytest.raises(KeyError, match=str(vid)):
                tr.physics(start)
        # A range without its rows reads.
        assert len(tr.physics(0, 1).u) == 1

    def test_a_negative_id_cannot_be_registered(self):
        with pytest.raises(ValueError, match="negative"):
            Trajectory(self.params).register(-1, 100.0, 10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["exit_pos", "deadline"])
    def test_a_target_that_is_not_finite_cannot_be_registered(self, name,
                                                              value):
        tr, _ = hand_built([(0.1, [(0, 100.0, 25.0)])], self.params,
                           registered=[])
        targets = {"exit_pos": 1000.0, "deadline": 50.0, name: value}
        with pytest.raises(ValueError, match=f"{name}=.* is not finite"):
            tr.register(0, **targets)
        # The refused vehicle stays unknown.
        with pytest.raises(KeyError, match="0"):
            tr.physics()


def test_reads_between_steps_leave_the_world_steppable():
    params = SimParams(seed=4)
    world, targets = WorldState.initial(params), {}
    step_world(world, 40, targets)
    tr = world.trajectory
    tr.physics()
    step_world(world, 40, targets)
    # A vehicle put on the road by hand is unknown to the trajectory.
    front = world.vehicles[0]
    stray = VehicleState(vid=world.next_vehicle_id, p=front.p + 200.0,
                         v=front.v, accel=0.0, deadline=1e9, exit_pos=1e9,
                         platoon_id=999)
    world.next_vehicle_id += 1
    world.vehicles.insert(0, stray)
    step(world)
    with pytest.raises(KeyError, match=str(stray.vid)):
        tr.physics()
    step_world(world, 40, targets)
    tr.register(stray.vid, stray.exit_pos, stray.deadline)
    targets[stray.vid] = (stray.exit_pos, stray.deadline)
    assert derived_bytes(tr) == recompute_derived(tr, params, targets)
    step_world(world, 1, targets)


def derive_peak(n_steps: int) -> int:
    """Peak traced bytes of computing the physics of a hand-built
    trajectory of ``n_steps`` steps of 40 vehicles, less the returned
    arrays' own."""
    params = SimParams()
    steps = [(0.1 * k, [(vid, 3000.0 - 7.0 * vid + 0.01 * k, 25.0)
                        for vid in range(40)]) for k in range(n_steps)]
    tr, _ = hand_built(steps, params)
    tracemalloc.start()
    try:
        physics = tr.physics()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(column.nbytes for column in physics)


def test_derive_memory_does_not_grow_with_the_trajectory():
    # A first derive takes the one-time allocations out of the measured
    # ones.  400 steps are 16,000 rows, already more than one block.
    derive_peak(10)
    one = derive_peak(400)
    four = derive_peak(1600)
    assert four <= 1.5 * one, (
        f"transient peak {four} B for 64,000 rows vs {one} B for 16,000")


class TestStepRanges:
    """Every reader of a range of steps refuses one outside the stored
    steps, and names it."""

    @pytest.fixture
    def tr(self):
        return hand_built([(0.1 * (k + 1), [(0, 100.0 + k, 25.0)])
                           for k in range(6)], SimParams())[0]

    @pytest.mark.parametrize("reader", [
        lambda tr, start, stop: tr.physics(start, stop),
        lambda tr, start, stop: tr.forces(start, stop),
        lambda tr, start, stop: list(tr.steps(start, stop)),
        lambda tr, start, stop: list(tr.blocks(start, stop)),
        trajectory_csv_text])
    @pytest.mark.parametrize("start, stop", [
        (0, -1), (5, 3), (0, 11), (-1, None), (7, None), (7, 7)])
    def test_a_range_outside_the_steps_is_refused(self, tr, reader, start,
                                                  stop):
        with pytest.raises(ValueError, match=f"steps {start}:"):
            reader(tr, start, stop)

    def test_the_edges_of_the_steps_read(self, tr):
        assert len(tr.physics(6).u) == len(tr.physics(0, 0).u) == 0
        assert list(tr.steps(6)) == list(tr.steps(2, 2)) == []
        assert list(tr.blocks(6)) == list(tr.blocks(2, 2)) == []
        assert trajectory_csv_text(tr, 6) == trajectory_csv_text(tr, 3, 3) \
            == ""
        assert len(tr.physics(0, 6).u) == len(list(tr.steps())) == 6


@pytest.mark.parametrize("keys", [
    [], [0], [5, 3, 5, 0, 3, 3, 1], [0xFFFF, 0, 0xFFFF, 7],
    [0x10000, 0, 0xFFFF, 0x10000, 2], [2**40, 9, 2**40, 9],
    [-1, 4, -1, 0]], ids=["empty", "one", "small", "at_2_16",
                          "above_2_16", "wide", "negative"])
def test_stable_order_is_the_stable_argsort(keys):
    keys = np.array(keys, np.int64)
    assert stable_order(keys).tolist() \
        == np.argsort(keys, kind="stable").tolist()


def test_stable_order_of_many_ids_on_either_side_of_16_bits():
    rng = np.random.default_rng(5)
    for high in (0x10000, 0x10001, 0x20000):
        keys = rng.integers(0, high, 5000)
        assert stable_order(keys).tolist() \
            == np.argsort(keys, kind="stable").tolist()


def reference_csv(tr, start, stop):
    """The CSV of steps ``start:stop`` of ``tr``, formatted a row at a
    time from the stored columns and the whole trajectory's physics."""
    physics = tr.physics()
    rows = []
    for k, (time, lo, hi) in enumerate(tr.steps()):
        if start <= k < stop:
            rows += [(time, tr.vehicle_id[i], _CSV_ROW % (
                f"{time:.6g}", tr.vehicle_id[i], tr.platoon_id[i], tr.p[i],
                tr.v[i], tr.accel[i], *(column[i] for column in physics),
                MODE_NAMES[tr.mode[i]])) for i in range(lo, hi)]
    header = ("t,id,platoon_id,p,v,a,u,drag,gs_margin,deadline_margin,"
              "mode\n")
    return (header if start == 0 else "") + "".join(
        row for _, _, row in sorted(rows))


class TestCsvWriter:
    """The block writer against rows formatted one at a time."""

    @pytest.fixture
    def tr(self, monkeypatch):
        # Ids out of position order within a step, and step 3 wider
        # than a block of 4 rows.
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", 4)
        rng = random.Random(43)
        steps = []
        for k, n in enumerate([3, 1, 2, 6, 2, 3, 1, 4, 2]):
            vids = rng.sample(range(9), n)
            steps.append((0.1 * (k + 1), [
                (vid, 500.0 - 9.5 * rank + rng.uniform(-1.0, 1.0),
                 rng.uniform(20.0, 30.0), rng.uniform(-3.0, 2.0),
                 rng.randrange(3), rng.randrange(len(MODE_NAMES)))
                for rank, vid in enumerate(vids)]))
        tr, _ = hand_built(steps, SimParams())
        assert any(tr.offsets[stop] - tr.offsets[start] > 4
                   for start, stop in tr.blocks())
        return tr

    def test_every_range_matches_the_reference(self, tr):
        n_steps = len(tr.times)
        for start in range(n_steps + 1):
            for stop in range(start, n_steps + 1):
                assert trajectory_csv_text(tr, start, stop) \
                    == reference_csv(tr, start, stop), (start, stop)

    def test_ids_past_16_bits_keep_the_row_order(self):
        # The writer's single (step, id) key does not fit 16 bits here.
        tr, _ = hand_built([
            (0.1, [(3, 300.0, 25.0), (70000, 250.0, 25.0),
                   (0xFFFF, 200.0, 25.0)]),
            (0.2, [(0xFFFF, 302.5, 25.0), (3, 252.5, 25.0)])], SimParams())
        assert trajectory_csv_text(tr) == reference_csv(tr, 0, 2)

    def test_the_whole_text_reads_the_physics_a_block_at_a_time(
            self, tr, monkeypatch):
        expected = reference_csv(tr, 0, len(tr.times))
        ranges = []
        physics = Trajectory.physics

        def recorded(self, start=0, stop=None):
            ranges.append((start, stop))
            return physics(self, start, stop)

        monkeypatch.setattr(Trajectory, "physics", recorded)
        assert trajectory_csv_text(tr) == expected
        blocks = list(tr.blocks())
        assert len(blocks) > 1 and ranges
        for start, stop in ranges:
            assert any(lo <= start < stop <= hi for lo, hi in blocks), (
                start, stop)
