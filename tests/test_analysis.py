import inspect
import math
import typing
from collections import Counter

import numpy as np
import pytest

from platoonflow import (FeasibilityVerdict, SimParams, SimResult,
                         Trajectory, TrajectoryRecord, analysis, cli, run,
                         svgplot, verify)
from platoonflow.analysis import (
    brute_force_follower,
    check_ordering,
    check_safety,
    detect_formations,
    in_formation,
    previous_rows,
    records_by_time,
    records_by_vehicle,
    summarize,
)
from platoonflow import solve_follower_control
from platoonflow.trajectory import pair_rows

PARAMS = SimParams()


def rec(time=0.0, vehicle_id=1, platoon_id=1, p=0.0, v=25.0, accel=0.0,
        u=0.0, drag=0.0, gs_margin=-10.0, deadline_margin=-10.0,
        mode="follower"):
    return TrajectoryRecord(time=time, vehicle_id=vehicle_id,
                            platoon_id=platoon_id, p=p, v=v, accel=accel,
                            u=u, drag=drag, gs_margin=gs_margin,
                            deadline_margin=deadline_margin, mode=mode)


class TestGrouping:
    def test_snapshots_sort_front_to_back(self):
        rows = [rec(time=0.1, vehicle_id=1, p=50.0),
                rec(time=0.1, vehicle_id=2, p=80.0),
                rec(time=0.2, vehicle_id=1, p=52.0)]
        snaps = records_by_time(Trajectory.from_records(rows, PARAMS))
        assert list(snaps) == [0.1, 0.2]
        assert [r.vehicle_id for r in snaps[0.1]] == [2, 1]

    def test_histories_sort_by_time(self):
        rows = [rec(time=0.2, vehicle_id=7), rec(time=0.1, vehicle_id=7),
                rec(time=0.1, vehicle_id=9)]
        hist = records_by_vehicle(Trajectory.from_records(rows, PARAMS))
        assert [r.time for r in hist[7]] == [0.1, 0.2]
        assert set(hist) == {7, 9}


class TestAudits:
    def test_clean_trajectory_has_no_problems(self, short_run):
        assert check_ordering(short_run.trajectory) == []
        assert check_safety(short_run.trajectory) == []

    def test_ordering_flags_a_swap(self):
        rows = [rec(vehicle_id=1, p=100.0), rec(vehicle_id=2, p=100.0)]
        problems = check_ordering(Trajectory.from_records(rows, PARAMS))
        assert len(problems) == 1
        assert "not behind" in problems[0]

    def test_ordering_reads_the_rows_in_stored_order(self):
        # from_records orders each step front to back, so only stored
        # columns can hold a vehicle ahead of the one in front of it.
        tr = Trajectory(PARAMS)
        tr.append_step(0.5, [1, 2, 3], [1, 1, 1], [100.0, 90.0, 95.0],
                       [25.0] * 3, [0.0] * 3, [0] * 3)
        assert check_ordering(tr) == [
            "t=0.500: vehicle 3 (p=95.000000) not behind vehicle 2 "
            "(p=90.000000)"]

    def test_ordering_lists_every_violation_in_row_order(self):
        tr = Trajectory(PARAMS)
        tr.append_step(0.5, [1, 2, 3], [1, 1, 1], [100.0, 90.0, 95.0],
                       [25.0] * 3, [0.0] * 3, [0] * 3)
        tr.append_step(0.6, [1, 2], [1, 1], [103.0, 93.0], [25.0] * 2,
                       [0.0] * 2, [0] * 2)
        tr.append_step(0.7, [4, 1, 2], [4, 1, 1], [90.0, 105.5, 96.0],
                       [25.0] * 3, [0.0] * 3, [0] * 3)
        assert check_ordering(tr) == [
            "t=0.500: vehicle 3 (p=95.000000) not behind vehicle 2 "
            "(p=90.000000)",
            "t=0.700: vehicle 1 (p=105.500000) not behind vehicle 4 "
            "(p=90.000000)",
        ]

    def test_safety_flags_a_crushed_gap(self):
        rows = [rec(vehicle_id=1, p=100.0, v=20.0),
                rec(vehicle_id=2, p=99.0, v=20.0)]
        problems = check_safety(Trajectory.from_records(rows, PARAMS))
        assert len(problems) == 1
        assert "margin" in problems[0]

    def test_safety_flags_a_closing_pair_outside_its_stopping_margin(self):
        # Both bumper gaps exceed delta; only the pair closing at 10 m/s
        # would cede more than the allowance while braking to the floor.
        rows = [rec(time=0.2, vehicle_id=1, p=100.0, v=20.0, gs_margin=0.0),
                rec(time=0.2, vehicle_id=2, p=90.0, v=30.0, gs_margin=0.0),
                rec(time=0.2, vehicle_id=3, p=70.0, v=31.0, gs_margin=0.0)]
        assert check_safety(Trajectory.from_records(rows, PARAMS)) == [
            "t=0.200: margin 7.500000 > 3.510000 between 1 and 2"]


def formations(snap):
    return detect_formations(Trajectory.from_records(snap, PARAMS), -1)


class TestFormations:
    def test_groups_tight_consecutive_pairs(self):
        snap = [rec(vehicle_id=1, p=100.0, v=20.0),
                rec(vehicle_id=2, p=95.0, v=20.0),
                rec(vehicle_id=3, p=90.0, v=20.0),
                rec(vehicle_id=4, p=60.0, v=20.0),
                rec(vehicle_id=5, p=55.0, v=20.0)]
        assert formations(snap) == [(1, 2, 3), (4, 5)]

    def test_speed_mismatch_splits_the_partition(self):
        snap = [rec(vehicle_id=1, p=100.0, v=20.0),
                rec(vehicle_id=2, p=95.0, v=20.2)]
        assert formations(snap) == [(1,), (2,)]

    def test_gap_slack_is_tolerated_up_to_the_band(self):
        snap = [rec(vehicle_id=1, p=100.0, v=20.0),
                rec(vehicle_id=2, p=95.0 - 0.09, v=20.0)]
        assert formations(snap) == [(1, 2)]

    def test_reads_the_step_it_is_given(self):
        tr = Trajectory.from_records([
            rec(time=0.1, vehicle_id=1, p=100.0, v=20.0),
            rec(time=0.1, vehicle_id=2, p=95.0, v=20.0),
            rec(time=0.1, vehicle_id=3, p=80.0, v=20.0),
            rec(time=0.2, vehicle_id=4, p=50.0, v=20.0)], PARAMS)
        assert detect_formations(tr, 0) == [(1, 2), (3,)]
        assert detect_formations(tr, -2) == [(1, 2), (3,)]
        assert detect_formations(tr, 1) == [(4,)]

    def test_columns_and_floats_agree_pair_by_pair(self, short_run):
        tr = short_run.trajectory
        back = pair_rows(tr.offsets)
        p, v = np.array(tr.p), np.array(tr.v)
        columns = in_formation(p[back - 1], v[back - 1], p[back], v[back],
                               PARAMS)
        floats = [in_formation(tr.p[b - 1], tr.v[b - 1], tr.p[b], tr.v[b],
                               PARAMS) for b in back.tolist()]
        assert columns.any() and not columns.all()
        assert columns.tolist() == floats


def summary_of(rows):
    """``summarize`` of hand-built records and no events."""
    return summarize(SimResult(Trajectory.from_records(rows, PARAMS), []))


class TestEnergy:
    def test_drag_square_integral_matches_hand_value(self):
        rows = [rec(time=0.0, drag=0.3), rec(time=0.1, drag=0.4),
                rec(time=0.2, drag=0.5)]
        out = summary_of(rows)
        assert out["total_drag_sq_integral"] == pytest.approx(0.033)

    def test_positive_work_ignores_regeneration(self):
        rows = [rec(time=0.0, u=1.0, v=20.0),
                rec(time=0.1, u=-0.5, v=21.0),
                rec(time=0.2, u=2.0, v=22.0)]
        out = summary_of(rows)
        assert out["total_positive_work"] == pytest.approx(3.2)

    def test_single_sample_integrates_to_zero(self):
        out = summary_of([rec(time=0.0, drag=0.9, u=3.0)])
        assert out["total_drag_sq_integral"] == 0.0
        assert out["total_positive_work"] == 0.0

    def test_no_link_crosses_vehicles(self):
        # Vehicle 2 drives ahead of vehicle 1 and joins a step later, so
        # the two vehicles' rows interleave in every step they share.
        one = [rec(time=t, vehicle_id=1, p=50.0 + t, v=20.0, u=u, drag=d)
               for t, u, d in ((0.0, 1.0, 0.3), (0.1, -0.5, 0.4),
                               (0.2, 2.0, 0.5), (0.3, 0.5, 0.1))]
        two = [rec(time=t, vehicle_id=2, p=90.0 + t, v=25.0, u=u, drag=d)
               for t, u, d in ((0.1, 3.0, 0.9), (0.2, 0.2, 0.7),
                               (0.3, -1.0, 0.8))]
        both = summary_of(one + two)
        apart = [summary_of(one), summary_of(two)]
        for key in ("total_drag_sq_integral", "total_positive_work"):
            assert both[key] == pytest.approx(sum(s[key] for s in apart))


class TestPreviousRows:
    def test_links_each_row_to_the_same_vehicles_row_before(self,
                                                            short_run):
        tr = short_run.trajectory
        last_row, expected = {}, []
        for _, start, stop in tr.steps():
            for i in range(start, stop):
                expected.append(last_row.get(tr.vehicle_id[i], -1))
                last_row[tr.vehicle_id[i]] = i
        assert previous_rows(tr).tolist() == expected

    def test_an_empty_trajectory_has_no_links(self):
        tr = run(SimParams(duration=0.0)).trajectory
        assert previous_rows(tr).tolist() == []


class TestBruteForce:
    @pytest.mark.parametrize("v,p_hat,v_hat,pred,deadline", [
        (30.0, -20.0, 1.0, 0.0, False),
        (30.0, -20.0, -1.0, 0.0, False),
        (30.0, -13.0, 6.0, 0.0, True),
        (20.0, -20.0, -1.0, 0.0, False),
        (22.0, -6.0, -10.0, 0.0, False),
        (25.0, -20.0, -2.0, 0.0, True),
    ])
    def test_agrees_with_the_closed_form_solver(self, v, p_hat, v_hat,
                                                pred, deadline):
        oracle = brute_force_follower(v, p_hat, v_hat, pred, deadline, PARAMS)
        solved = solve_follower_control(v, p_hat, v_hat, pred, deadline,
                                        PARAMS)
        assert oracle.verdict is solved.verdict
        if oracle.verdict is FeasibilityVerdict.FEASIBLE:
            assert solved.accel == pytest.approx(oracle.accel, abs=1e-3)
        else:
            assert oracle.accel is None


class TestSummarize:
    def test_reports_counters_and_final_formations(self, short_run):
        out = summarize(short_run)
        kinds = Counter(e.kind for e in short_run.events)
        assert out["vehicles_spawned"] == kinds["spawn"]
        assert out["duration"] == pytest.approx(40.0)
        assert out["spawn_attempts"] == kinds["spawn"] + kinds["discard"]
        assert out["final_formation_count"] >= 0
        assert out["total_drag_sq_integral"] > 0.0

    def test_peak_vehicle_count_is_the_largest_step(self, short_run):
        out = summarize(short_run)
        assert out["peak_vehicle_count"] == max(
            stop - start for _, start, stop in short_run.trajectory.steps())

    def test_reports_the_duration_its_trajectory_was_run_for(self):
        result = run(SimParams(duration=3.5, seed=2))
        assert summarize(result)["duration"] \
            == result.trajectory.params.duration == 3.5



@pytest.mark.parametrize("module", [analysis, cli, svgplot, verify],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_reader_of_a_run_takes_params_besides(module):
    # A run's params are its trajectory's: a reader that took them as
    # well could judge the run under another run's params.
    readers = {}
    for name, fn in vars(module).items():
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == module.__name__):
            hints = typing.get_type_hints(fn)
            args = inspect.signature(fn).parameters
            if any(hints.get(arg) in (Trajectory, SimResult) for arg in args):
                readers[name] = list(args)
    assert readers
    assert {name: args for name, args in readers.items()
            if "params" in args} == {}
