import inspect
import math
import typing
from collections import Counter

import numpy as np
import pytest

from platoonflow import (FeasibilityVerdict, SimParams, SimResult,
                         Trajectory, WorldState, analysis, cli,
                         insert_vehicle, run, svgplot)
from platoonflow.analysis import (
    brute_force_follower,
    check_ordering,
    check_safety,
    detect_formations,
    in_formation,
    Outcome,
    outcome,
    previous_rows,
    records_by_time,
    records_by_vehicle,
    summarize,
)
from platoonflow._kernels_py import (SPEED_EDGE_TOL, drag_partials,
                                     follower_decision, stopping_margin)
from platoonflow import trajectory
from platoonflow.trajectory import pair_rows

from conftest import RUNS, hand_built

PARAMS = SimParams()
# RUNS and a deadline-free run of the drag-descent check.
PAIRED_RUNS = {**RUNS,
               "deadline_free": SimParams(seed=7000, enforce_deadlines=False)}


def built(steps):
    """``hand_built``'s trajectory of ``steps`` under ``PARAMS``."""
    return hand_built(steps, PARAMS)[0]


class TestGrouping:
    def test_snapshots_sort_front_to_back(self):
        snaps = records_by_time(built([
            (0.1, [(2, 80.0, 25.0), (1, 50.0, 25.0)]),
            (0.2, [(1, 52.0, 25.0)])]))
        assert list(snaps) == [0.1, 0.2]
        assert [r.vehicle_id for r in snaps[0.1]] == [2, 1]

    def test_histories_sort_by_time(self):
        hist = records_by_vehicle(built([
            (0.1, [(9, 80.0, 25.0), (7, 50.0, 25.0)]),
            (0.2, [(7, 52.5, 25.0)])]))
        assert [r.time for r in hist[7]] == [0.1, 0.2]
        assert set(hist) == {7, 9}


class TestAudits:
    def test_clean_trajectory_has_no_problems(self, short_run):
        assert check_ordering(short_run.trajectory) == []
        assert check_safety(short_run.trajectory) == []

    def test_ordering_flags_a_swap(self):
        problems = check_ordering(built([
            (0.0, [(1, 100.0, 25.0), (2, 100.0, 25.0)])]))
        assert len(problems) == 1
        assert "not behind" in problems[0]

    def test_ordering_reads_the_rows_in_stored_order(self):
        # The check reads each step in its stored order, the order the
        # rows were appended in, and does not sort it front to back.
        tr = built([(0.5, [(1, 100.0, 25.0), (2, 90.0, 25.0),
                           (3, 95.0, 25.0)])])
        assert check_ordering(tr) == [
            "t=0.500: vehicle 3 (p=95.000000) not behind vehicle 2 "
            "(p=90.000000)"]

    def test_ordering_lists_every_violation_in_row_order(self):
        tr = built([
            (0.5, [(1, 100.0, 25.0), (2, 90.0, 25.0), (3, 95.0, 25.0)]),
            (0.6, [(1, 103.0, 25.0), (2, 93.0, 25.0)]),
            (0.7, [(4, 90.0, 25.0), (1, 105.5, 25.0), (2, 96.0, 25.0)])])
        assert check_ordering(tr) == [
            "t=0.500: vehicle 3 (p=95.000000) not behind vehicle 2 "
            "(p=90.000000)",
            "t=0.700: vehicle 1 (p=105.500000) not behind vehicle 4 "
            "(p=90.000000)",
        ]

    def test_safety_flags_a_crushed_gap(self):
        problems = check_safety(built([
            (0.0, [(1, 100.0, 20.0), (2, 99.0, 20.0)])]))
        assert len(problems) == 1
        assert "margin" in problems[0]

    def test_safety_flags_a_closing_pair_outside_its_stopping_margin(self):
        # Both bumper gaps exceed delta; only the pair closing at 10 m/s
        # would cede more than the allowance while braking to the floor.
        tr = built([(0.2, [(1, 100.0, 20.0), (2, 90.0, 30.0),
                           (3, 70.0, 31.0)])])
        assert check_safety(tr) == [
            "t=0.200: margin 7.500000 > 3.510000 between 1 and 2"]


def formations(snap):
    """The formations of one step of ``(vid, p, v)`` rows, front to
    back."""
    return detect_formations(built([(0.0, snap)]), -1)


class TestFormations:
    def test_groups_tight_consecutive_pairs(self):
        snap = [(1, 100.0, 20.0), (2, 95.0, 20.0), (3, 90.0, 20.0),
                (4, 60.0, 20.0), (5, 55.0, 20.0)]
        assert formations(snap) == [(1, 2, 3), (4, 5)]

    def test_speed_mismatch_splits_the_partition(self):
        snap = [(1, 100.0, 20.0), (2, 95.0, 20.2)]
        assert formations(snap) == [(1,), (2,)]

    def test_gap_slack_is_tolerated_up_to_the_band(self):
        snap = [(1, 100.0, 20.0), (2, 95.0 - 0.09, 20.0)]
        assert formations(snap) == [(1, 2)]

    def test_reads_the_step_it_is_given(self):
        tr = built([
            (0.1, [(1, 100.0, 20.0), (2, 95.0, 20.0), (3, 80.0, 20.0)]),
            (0.2, [(4, 50.0, 20.0)])])
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


C0 = PARAMS.drag.c0


def summary_of(steps):
    """``summarize`` of a hand-built trajectory of ``steps`` and no
    events."""
    return summarize(SimResult(built(steps), []))


def lone(vid, p0, samples):
    """Steps of one vehicle alone on the road, ``p0`` ahead of the
    origin, from ``(time, v, accel)`` samples."""
    return [(t, [(vid, p0 + t, v, a)]) for t, v, a in samples]


class TestEnergy:
    # A vehicle alone on the road sees the solo drag ``c0 * v**2``, and
    # its effort is ``u = accel + drag``.

    def test_drag_square_integral_matches_hand_value(self):
        samples = [(0.0, 20.0, 0.0), (0.1, 25.0, 0.0), (0.2, 30.0, 0.0)]
        sq = [(C0 * v * v) ** 2 for _, v, _ in samples]
        out = summary_of(lone(1, 50.0, samples))
        assert out["total_drag_sq_integral"] == pytest.approx(
            0.1 * (sq[0] + sq[1]) / 2.0 + 0.1 * (sq[1] + sq[2]) / 2.0)

    def test_positive_work_ignores_regeneration(self):
        samples = [(0.0, 20.0, 1.0), (0.1, 21.0, -0.5), (0.2, 22.0, 2.0)]
        u = [a + C0 * v * v for _, v, a in samples]
        assert u[1] < 0.0
        out = summary_of(lone(1, 50.0, samples))
        # The regenerating middle sample adds no work to either interval.
        assert out["total_positive_work"] == pytest.approx(
            0.1 * u[0] * 20.0 / 2.0 + 0.1 * u[2] * 22.0 / 2.0)

    def test_single_sample_integrates_to_zero(self):
        out = summary_of(lone(1, 50.0, [(0.0, 30.0, 3.0)]))
        assert out["total_drag_sq_integral"] == 0.0
        assert out["total_positive_work"] == 0.0

    def test_no_link_crosses_vehicles(self):
        # Vehicle 2 drives ahead of vehicle 1 and joins a step later, so
        # the two vehicles' rows interleave in every step they share.
        # It is far enough ahead that its wake leaves vehicle 1 the solo
        # drag.
        one = lone(1, 50.0, [(0.0, 20.0, 1.0), (0.1, 21.0, -0.5),
                             (0.2, 22.0, 2.0), (0.3, 21.0, 0.5)])
        two = lone(2, 2000.0, [(0.1, 25.0, 3.0), (0.2, 26.0, 0.2),
                               (0.3, 24.0, -1.0)])
        both = one[:1] + [(t, ahead + behind) for (t, behind), (_, ahead)
                          in zip(one[1:], two)]
        together = summary_of(both)
        apart = [summary_of(one), summary_of(two)]
        for key in ("total_drag_sq_integral", "total_positive_work"):
            assert together[key] == pytest.approx(
                sum(s[key] for s in apart))


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

    @pytest.mark.parametrize("name", PAIRED_RUNS)
    def test_each_previous_row_lies_in_the_step_before(self, run_of, name):
        # A vehicle is stored at every step until it exits, which lets the
        # drag-descent check pair rows through previous_rows alone.
        tr = run_of(PAIRED_RUNS[name]).trajectory
        step = np.repeat(np.arange(len(tr.times)), np.diff(tr.offsets))
        prev = previous_rows(tr)
        later = np.flatnonzero(prev >= 0)
        assert len(later) > 0
        assert (step[prev[later]] == step[later] - 1).all()


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
        ref_accel, ref_verdict = brute_force_follower(v, p_hat, v_hat, pred,
                                                      deadline, PARAMS)
        accel, verdict = follower_decision(v, p_hat, v_hat, pred, deadline,
                                           PARAMS)[:2]
        assert ref_verdict is verdict
        if verdict is FeasibilityVerdict.FEASIBLE:
            assert accel == pytest.approx(ref_accel, abs=1e-3)
        else:
            assert ref_accel is None


def untrimmed_oracle(v, p_hat, v_hat, pred_accel, deadline_active, params):
    """``brute_force_follower`` as first written: every candidate
    filtered into ``[a_min, a_max]``, grid included, and a mask of ones
    for each inequality the state does not have."""
    g = stopping_margin(v, p_hat, v_hat, params)
    f_v, f_p = drag_partials(v, p_hat, params.drag)
    pred = params.a_min if params.worst_case_pred_accel else pred_accel
    at_floor = v <= params.v_min + SPEED_EDGE_TOL
    at_ceiling = v >= params.v_max - SPEED_EDGE_TOL
    decays = (v_hat > 0.0 and not at_floor
              and (params.gamma > 0.0 or g >= -params.eps_g))
    tol = analysis._INEQ_TOL
    cand = [analysis._oracle_grid(params.a_min, params.a_max), [0.0],
            [-f_p * v_hat / f_v]]
    if decays:
        k = (params.v_min - v) / params.a_min
        r = v_hat - pred * (params.v_min - v + v_hat) / params.a_min
        cand.append([(-params.gamma * g - r) / k])
    grid = np.concatenate(cand)
    grid = grid[(grid >= params.a_min) & (grid <= params.a_max)]
    ones = np.ones(grid.shape, bool)
    floor_ok = grid >= -tol if at_floor else ones
    ceil_ok = grid <= tol if at_ceiling else ones
    if decays:
        decay_ok = k * grid + r <= -params.gamma * g + tol
        safety_ok = decay_ok | (grid <= params.a_min + tol)
    else:
        decay_ok = safety_ok = ones
    flow_ok = f_p * v_hat / f_v + grid <= tol
    dl_ok = grid >= -tol if deadline_active else ones
    feasible = floor_ok & ceil_ok & safety_ok & flow_ok & dl_ok
    if feasible.any():
        pts = grid[feasible]
        return (float(pts[np.argmin(np.abs(pts))]),
                FeasibilityVerdict.FEASIBLE)
    cap_negative = decays and not bool((decay_ok & (grid >= -tol)).any())
    safety_active = g >= -params.eps_g or cap_negative
    if at_floor and not (floor_ok & flow_ok).any():
        verdict = FeasibilityVerdict.FLOOR_CONFLICT
    elif not flow_ok.any():
        verdict = FeasibilityVerdict.BRAKE_CONFLICT
    elif deadline_active and not (dl_ok & flow_ok).any():
        verdict = FeasibilityVerdict.DEADLINE_DRAG_CONFLICT
    elif deadline_active and safety_active and v_hat > 0.0:
        verdict = FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT
    else:
        verdict = FeasibilityVerdict.FEASIBLE
    return None, verdict


class TestOracleCandidates:
    """The oracle filters only the boundary points it adds to its grid,
    since the grid lies inside the acceleration bounds already."""

    @pytest.mark.parametrize("a_min,a_max", [
        (-4.0, 3.0), (-1.0, 0.5), (-9.81, 1e-3), (-0.3, 7.7)])
    def test_the_grid_lies_inside_its_bounds(self, a_min, a_max):
        grid = analysis._oracle_grid(a_min, a_max)
        assert (grid[0], grid[-1]) == (a_min, a_max)
        assert ((grid >= a_min) & (grid <= a_max)).all()

    # (v, p_hat, v_hat, pred_accel) at default params, with the flow
    # boundary -f_p * v_hat / f_v above a_max (3), the decay boundary
    # below a_min (-4), or both; at the floor nothing decays.
    @pytest.mark.parametrize("state,outside", [
        ((20.0, -7.0, 12.0, 0.0), [True]),
        ((26.5, -5.5, 3.5, 0.0), [False, True]),
        ((27.0, -8.5, 11.5, 0.0), [True, True]),
        ((35.0, -8.0, 12.0, 0.0), [True, True]),
    ], ids=["flow_at_floor", "decay", "both", "both_at_ceiling"])
    @pytest.mark.parametrize("deadline", [False, True],
                             ids=["free", "deadline"])
    def test_a_boundary_outside_the_bounds_is_no_candidate(
            self, monkeypatch, state, outside, deadline):
        v, p_hat, v_hat, pred = state
        f_v, f_p = drag_partials(v, p_hat, PARAMS.drag)
        bounds = [-f_p * v_hat / f_v]
        if len(outside) == 2:
            g = stopping_margin(v, p_hat, v_hat, PARAMS)
            k = (PARAMS.v_min - v) / PARAMS.a_min
            r = v_hat - pred * (PARAMS.v_min - v + v_hat) / PARAMS.a_min
            bounds.append((-PARAMS.gamma * g - r) / k)
        assert [not PARAMS.a_min <= b <= PARAMS.a_max
                for b in bounds] == outside
        made = []

        def kept(*args, make=analysis._oracle_candidates):
            made.append(make(*args))
            return made[-1]
        monkeypatch.setattr(analysis, "_oracle_candidates", kept)
        answer = brute_force_follower(v, p_hat, v_hat, pred, deadline,
                                      PARAMS)
        [cand] = made
        grid_points = analysis._GRID_POINTS
        assert cand[grid_points:].tolist() == [0.0] + [
            b for b, out in zip(bounds, outside) if not out]
        expected = untrimmed_oracle(v, p_hat, v_hat, pred, deadline, PARAMS)
        assert (repr(answer[0]), answer[1]) \
            == (repr(expected[0]), expected[1])

    def test_random_states_answer_as_the_untrimmed_oracle(self):
        rng = np.random.default_rng(4)
        for params in (PARAMS, SimParams(gamma=0.0),
                       SimParams(worst_case_pred_accel=True)):
            for _ in range(300):
                v = float(rng.choice([params.v_min, params.v_max,
                                      rng.uniform(params.v_min,
                                                  params.v_max)]))
                v_hat = float(rng.uniform(-15.0, 15.0))
                state = (v, float(rng.uniform(-60.0, 5.0)) - params.delta,
                         v_hat, float(rng.uniform(params.a_min,
                                                  params.a_max)),
                         bool(rng.random() < 0.4), params)
                answer = brute_force_follower(*state)
                expected = untrimmed_oracle(*state)
                assert (repr(answer[0]), answer[1]) \
                    == (repr(expected[0]), expected[1])


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

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_is_the_leading_figures_of_outcome_bit_for_bit(self, run_of,
                                                           name):
        result = run_of(RUNS[name])
        full = outcome(result)
        figures = [(key, repr(value))
                   for key, value in zip(Outcome._fields, full)]
        assert [(key, repr(value))
                for key, value in summarize(result).items()] == figures[:14]

    def test_folds_no_audit_no_formed_share_and_no_margin(self, short_run,
                                                          monkeypatch):
        calls = []

        def spied(module, name):
            read = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return read(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for name in ("audit", "_formed_pair_share",
                     "consecutive_gap_excess"):
            spied(analysis, name)
        # A margin is computed past ``_targets``, which the
        # ``deadline_margin`` column reads.
        spied(trajectory, "deadline_margin")
        for name in ("physics", "_targets", "forces"):
            spied(Trajectory, name)
        summarize(short_run)
        assert calls == ["forces"]
        calls.clear()
        outcome(short_run)
        assert sorted(calls) == ["_formed_pair_share", "audit",
                                 "consecutive_gap_excess", "forces"]


class TestOutcome:
    # The figures with nothing to read.  Warnings are errors here, so an
    # empty ``max`` or ``mean`` would fail these tests.

    def test_a_run_with_no_row_has_no_figure(self):
        out = outcome(run(SimParams(duration=0.0)))
        assert (out.records, out.gap_violations) == (0, 0)
        assert (out.worst_gap_excess, out.worst_command,
                out.formed_pair_share, out.drafting_saving) == (None,) * 4

    def test_a_vehicle_alone_forms_no_pair(self):
        params = SimParams(duration=5.0)
        world = WorldState.initial(params, spawning=False)
        insert_vehicle(world, 100.0, 25.0, exit_pos=1e9, deadline=1e9)
        out = outcome(run(params, world=world))
        assert out.records == 50
        assert out.worst_gap_excess is None
        assert out.formed_pair_share is None
        assert out.gap_violations == 0
        assert out.worst_command is not None
        # Alone on the road, the drag is the solo drag.
        assert out.drafting_saving == pytest.approx(0.0, abs=1e-12)

    def test_every_row_a_recovering_head_has_no_command(self):
        out = outcome(SimResult(built([
            (0.0, [(1, 50.0, 20.0, 0.5, 0, 3)]),
            (0.1, [(1, 52.0, 20.05, 0.5, 0, 3)])]), []))
        assert out.records == 2
        assert out.worst_command is None

    def test_formed_pairs_are_rows_minus_formations(self, short_run):
        # A step's vehicles split into formations wherever a vehicle is
        # not in formation with the one ahead, so each step has as many
        # formed pairs as rows less formations.
        tr = short_run.trajectory
        formed = sum(stop - start - len(detect_formations(tr, k))
                     for k, (_, start, stop) in enumerate(tr.steps())
                     if stop > start)
        assert formed > 0
        share = outcome(short_run).formed_pair_share
        assert share * len(pair_rows(tr.offsets)) == pytest.approx(
            formed, rel=1e-12)


# ``verify`` reads runs only through ``analysis``: it has no public
# reader of a run to list here.
@pytest.mark.parametrize("module", [analysis, cli, svgplot],
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
