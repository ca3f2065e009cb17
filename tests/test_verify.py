"""The verify corpus: the per-seed fold, its memory, and its error path."""

import gc
import tracemalloc
import weakref
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

import platoonflow.analysis as analysis
import platoonflow.sim as sim
import platoonflow.verify as verify
from platoonflow import (DragCoefficients, RoadNetwork, SimParams,
                         Trajectory, VehicleMode, run)
from platoonflow.analysis import Audit, audit, outcome, records_by_time
from platoonflow.core import SafetyAuditError
from platoonflow.trajectory import STORED_COLUMNS
from platoonflow.verify import (RunCorpus, check_braking_only,
                                check_determinism, check_drag_descent,
                                check_equilibrium_hold, check_partials,
                                check_pursuit_convergence, check_safety,
                                check_solver_oracle, check_throughput)
from conftest import RUNS

SHORT = SimParams(duration=20.0)


def direct_figures(params: SimParams, seed: int) -> tuple:
    """The per-seed figures, read record by record from a fresh run."""
    result = run(replace(params, seed=seed))
    allowed = params.eps_g + params.v_max * params.dt
    excess = []
    commands = []
    for snapshot in records_by_time(result.trajectory).values():
        excess += [(back.p - front.p) + params.delta
                   for front, back in zip(snapshot, snapshot[1:])]
        commands += [rec.accel for rec in snapshot
                     if rec.mode != "leader_recovering"]
    spawned = [e.kind for e in result.events].count(sim.EVENT_SPAWN)
    return (spawned, len(result.trajectory),
            max(excess, default=None), sum(e > allowed for e in excess),
            max(commands, default=None))


def test_fold_equals_figures_read_from_each_run(monkeypatch):
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 3)
    corpus = RunCorpus(SHORT)
    assert corpus.build() is None
    assert list(corpus.summaries) == [0, 1, 2]
    for seed, summary in corpus.summaries.items():
        assert summary.worst_gap_excess is not None
        assert (summary.vehicles_spawned, summary.records,
                summary.worst_gap_excess, summary.gap_violations,
                summary.worst_command) == direct_figures(SHORT, seed)


def test_a_corpus_reads_no_physics_and_no_previous_rows(monkeypatch):
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 3)
    calls = []

    def counted(name, read):
        def call(*args, **kwargs):
            calls.append(name)
            return read(*args, **kwargs)
        return call

    monkeypatch.setattr(Trajectory, "physics",
                        counted("physics", Trajectory.physics))
    for module in (analysis, verify):
        monkeypatch.setattr(module, "previous_rows", counted(
            "previous_rows", module.previous_rows))
    corpus = RunCorpus(SHORT)
    assert corpus.build() is None
    assert len(corpus.summaries) == 3
    assert calls == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outcome_holds_the_corpus_fold_bit_for_bit(run_of, name):
    result = run_of(RUNS[name])
    figures = audit(result)
    full = outcome(result)
    assert [repr(getattr(full, field)) for field in Audit._fields] \
        == [repr(x) for x in figures]


def traced_peak(call) -> int:
    """Peak traced bytes of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_peak(monkeypatch, seeds: int) -> int:
    """Peak traced bytes of building a corpus of 40 s runs."""
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", seeds)
    return traced_peak(RunCorpus(replace(SHORT, duration=40.0)).build)


def test_build_memory_does_not_grow_with_the_seed_count(monkeypatch):
    # A first build takes the one-time allocations (lazy imports, caches)
    # out of the measured ones.
    build_peak(monkeypatch, 1)
    two = build_peak(monkeypatch, 2)
    six = build_peak(monkeypatch, 6)
    assert six <= 1.5 * two, (
        f"peak {six} B for 6 seeds vs {two} B for 2 seeds")


def test_corpus_checks_name_the_first_failed_seed(monkeypatch):
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 4)
    calls = []

    def failing_run(params):
        calls.append(params.seed)
        if params.seed in (1, 2):
            raise SafetyAuditError(f"gap breach in seed {params.seed}")
        return run(replace(params, duration=5.0))

    monkeypatch.setattr(verify, "run", failing_run)
    params = SimParams()
    corpus = RunCorpus(params)
    results = [check_safety(params, corpus), check_throughput(params, corpus),
               check_braking_only(params, corpus)]
    # The build stops at the first failed seed, and runs it only once.
    assert calls == [0, 1]
    assert corpus.build() == "seed 1: gap breach in seed 1"
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("safety_50_seeds", False,
         "engine audit tripped, seed 1: gap breach in seed 1"),
        ("throughput_band", False,
         "corpus incomplete, seed 1: gap breach in seed 1"),
        ("braking_only_commands", False,
         "corpus incomplete, seed 1: gap breach in seed 1"),
    ]


@pytest.mark.parametrize("changes", [
    {"gamma": 1.0, "worst_case_pred_accel": True},
    {"gamma": 0.0, "worst_case_pred_accel": False},
    {"gamma": 0.0, "worst_case_pred_accel": True},
    {"v_min": 1.0, "v_max": 2.0},
], ids=["gamma1-worst_case", "gamma0-communicated", "gamma0-worst_case",
        "narrow_speed_box"])
def test_the_solver_matches_the_grid_oracle_on_both_band_branches(changes):
    # With gamma > 0 the envelope binds every closing pair; with gamma = 0
    # only inside the eps_g band.  The default, gamma = 1 on communicated
    # commands, is acceptance criterion 07.  On the narrow speed box the
    # drag partial f_v is near 1e-3, so a drag slack stated per unit of
    # dF/dt would admit a command 1e-6 m/s^2 past the descent bound.
    params = replace(SimParams(), **changes)
    result = check_solver_oracle(params)
    assert result.passed, result.detail


def test_a_zero_duration_fails_the_throughput_check(monkeypatch):
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 2)
    params = replace(SimParams(), duration=0.0)
    result = check_throughput(params, RunCorpus(params))
    assert (result.passed, result.detail) == (
        False, "run.duration is 0 s, so no inflow per hour can be measured")


def test_checks_with_nothing_to_check_fail(monkeypatch):
    # A run of zero duration records nothing, so these four checks have
    # no gap, command, step pair or CSV row to judge.
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 2)
    monkeypatch.setattr(verify, "N_DESCENT_SEEDS", 1)
    params = replace(SimParams(), duration=0.0)
    corpus = RunCorpus(params)
    results = [check_safety(params, corpus),
               check_braking_only(params, corpus),
               check_drag_descent(params), check_determinism(params)]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("safety_50_seeds", False,
         "no step in 2 runs had two vehicles on the road, so no gap was "
         "checked"),
        ("braking_only_commands", False,
         "no command outside a recovering head in 0 records, so no command "
         "was checked"),
        ("drag_descent_per_step", False,
         "no follower step pairs in 1 deadline-free runs, so no drag rise "
         "was checked"),
        ("determinism_bytes", False,
         "the seeded run recorded no rows, so there were no bytes to "
         "compare"),
    ]


def test_stepping_checks_fail_with_the_audits_message(monkeypatch):
    def tripped(world, stamp):
        raise SafetyAuditError(f"t={stamp:.3f}: gap breach")

    monkeypatch.setattr(sim, "_audit", tripped)
    params = SimParams()
    results = [check_pursuit_convergence(params),
               check_equilibrium_hold(params), check_drag_descent(params),
               check_determinism(params)]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("pursuit_convergence", False,
         "engine audit tripped, scenario 0: t=0.100: gap breach"),
        ("equilibrium_hold", False,
         "engine audit tripped, t=0.100: gap breach"),
        ("drag_descent_per_step", False,
         "engine audit tripped, seed 7000: t=0.100: gap breach"),
        ("determinism_bytes", False,
         "engine audit tripped, seed 0: t=0.100: gap breach"),
    ]


def with_second_run_changed(monkeypatch, change):
    """Make ``verify.run`` hand the trajectory of its second run to
    ``change`` before returning it; the runs made go into the list
    returned."""
    runs = []

    def changed_run(params):
        result = run(params)
        runs.append(result)
        if len(runs) == 2:
            change(result.trajectory)
        return result

    monkeypatch.setattr(verify, "run", changed_run)
    return runs


def test_determinism_fails_on_one_row_of_a_late_block(monkeypatch):
    def nudge(tr):
        tr.p[tr.offsets[-2]] += 1.0

    runs = with_second_run_changed(monkeypatch, nudge)
    result = check_determinism(SimParams())
    blocks = list(runs[0].trajectory.blocks())
    assert len(blocks) > 1
    start, stop = blocks[-1]
    assert (result.passed, result.detail) == (False, (
        f"two seeded runs, CSV bytes differ in steps {start}:{stop} of "
        f"{stop}"))


def test_determinism_fails_on_one_extra_step(monkeypatch):
    def extend(tr):
        lo, hi = tr.offsets[-2], tr.offsets[-1]
        tr.append_step(tr.times[-1] + tr.params.dt,
                       *(getattr(tr, name)[lo:hi].tolist()
                         for name in STORED_COLUMNS))

    runs = with_second_run_changed(monkeypatch, extend)
    result = check_determinism(SHORT)
    n_steps = len(runs[0].trajectory.times)
    assert (result.passed, result.detail) == (
        False, f"two seeded runs, {n_steps} and {n_steps + 1} steps")


def test_every_check_holds_at_most_one_run(monkeypatch):
    # A trajectory's slots leave no room for a weak reference, so each
    # run is tracked by one to its vehicle id column.
    alive = []

    def tracked_run(params, **kwargs):
        gc.collect()
        earlier = sum(ref() is not None for ref in alive)
        assert not earlier, (
            f"run({params.seed}) started with {earlier} earlier run(s) alive")
        result = run(params, **kwargs)
        alive.append(weakref.ref(result.trajectory.vehicle_id))
        return result

    monkeypatch.setattr(verify, "run", tracked_run)
    # The last three counts only shorten checks that make no run.
    for name, count in [("N_CORPUS_SEEDS", 2), ("N_DESCENT_SEEDS", 2),
                        ("N_FEASIBILITY_EPISODES", 10), ("N_PURSUITS", 5),
                        ("N_ORACLE_STATES", 10)]:
        monkeypatch.setattr(verify, name, count)
    list(verify.run_all(SimParams()))
    # Corpus, equilibrium, drag descent and determinism runs.
    assert len(alive) == 2 + 1 + 2 + 2


def test_determinism_peaks_near_one_run():
    params = SimParams()
    # A short check first takes the one-time allocations out of the
    # measured ones.
    check_determinism(replace(params, duration=1.0))
    one_run = traced_peak(lambda: run(params).trajectory.physics())
    peak = traced_peak(lambda: check_determinism(params))
    assert peak < 1.5 * one_run, (
        f"peak {peak} B for the check vs {one_run} B for one run and its "
        f"physics")


# Each step of a short road, with the (vehicle id, mode) of its rows
# front to back: vehicle 1 leaves after 0.2 s, so vehicle 2 then follows
# vehicle 0, and vehicle 3 joins at 0.2 s and relaxes its deadline at
# 0.4 s.  Only four rows are follower rows behind the same vehicle as
# one step before: vehicles 1 and 2 at 0.2 s, 3 at 0.3 s and 2 at
# 0.4 s.  The rises of every other row are far past the allowance.
LEADER, FOLLOWER = VehicleMode.LEADER, VehicleMode.FOLLOWER
DESCENT_STEPS = [
    (0.1, [(0, LEADER), (1, FOLLOWER), (2, FOLLOWER)]),
    (0.2, [(0, LEADER), (1, FOLLOWER), (2, FOLLOWER), (3, FOLLOWER)]),
    (0.3, [(0, LEADER), (2, FOLLOWER), (3, FOLLOWER)]),
    (0.4, [(0, LEADER), (2, FOLLOWER),
           (3, VehicleMode.FOLLOWER_DEADLINE_RELAXED)]),
]
# The drag of each row of DESCENT_STEPS, with small rises on the four
# pairs, and the same with two rises past the allowance planted: on
# vehicle 3 at 0.3 s, the first in row order, and on vehicle 2 at 0.4 s.
DESCENT_DRAG = [0.3, 0.2, 0.2, 0.6, 0.2005, 0.201, 0.2, 0.9, 0.9, 0.2003,
                1.2, 0.9001, 1.5]
PLANTED_DRAG = [0.3, 0.2, 0.2, 0.6, 0.2005, 0.201, 0.2, 0.9, 0.9, 0.21,
                1.2, 0.91, 1.5]


def descent_columns(drag: list[float]) -> SimpleNamespace:
    """The columns and the forces the drag-descent check reads from a
    run's trajectory, for the rows of DESCENT_STEPS with ``drag``."""
    rows = [row for _, step in DESCENT_STEPS for row in step]
    return SimpleNamespace(
        times=[time for time, _ in DESCENT_STEPS],
        offsets=list(accumulate((len(step) for _, step in DESCENT_STEPS),
                                initial=0)),
        vehicle_id=[vid for vid, _ in rows],
        mode=[mode for _, mode in rows],
        forces=lambda: SimpleNamespace(drag=np.array(drag)))


@pytest.mark.parametrize("drag,expected", [
    (DESCENT_DRAG,
     (True, "8 follower step pairs over 2 deadline-free runs, worst F^2 "
            "rise 4.010e-04 of 1.646e-03 allowed")),
    (PLANTED_DRAG,
     (False, "seed 7001: F^2 rose 4.100e-03 in one step for vehicle 3 at "
             "t=0.3 (allowed 1.646e-03)")),
], ids=["small_rises", "two_planted_rises"])
def test_drag_descent_pairs_each_follower_with_its_previous_step(
        monkeypatch, drag, expected):
    runs = {7000: descent_columns(DESCENT_DRAG),
            7001: descent_columns(drag)}
    monkeypatch.setattr(verify, "N_DESCENT_SEEDS", 2)
    monkeypatch.setattr(verify, "run", lambda params: SimpleNamespace(
        trajectory=runs[params.seed]))
    result = check_drag_descent(SimParams())
    assert (result.passed, result.detail) == expected


def test_the_pursuit_check_does_not_depend_on_the_road_length():
    # On a road of 150 m both vehicles would start past an exit at the
    # road's end.
    short = replace(SimParams(), road=RoadNetwork(
        length=150.0, on_ramps=(), off_ramps=()))
    assert check_pursuit_convergence(short) == \
        check_pursuit_convergence(SimParams())


def test_a_narrow_speed_box_fails_the_pursuit_check():
    result = check_pursuit_convergence(
        replace(SimParams(), v_min=1.0, v_max=2.0))
    assert not result.passed
    assert result.detail.startswith("speed box [1, 2] m/s is narrower")


@pytest.mark.parametrize("c1,detail", [
    (0.6, "50x50 grid, worst relative error 4.99e-09 of 1e-06 allowed"),
    (0.0, None),
], ids=["default", "no_wake"])
def test_the_partials_check_holds_where_the_gap_partial_is_zero(c1, detail):
    # At c1 = 0 the analytic gap partial and its finite difference are
    # both exactly 0.
    result = check_partials(replace(SimParams(),
                                    drag=DragCoefficients(c1=c1)))
    assert result.passed, result.detail
    if detail is not None:
        assert result.detail == detail
