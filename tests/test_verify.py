"""The verify corpus: the per-seed fold, its memory, and its error path."""

import tracemalloc
from dataclasses import replace

import pytest

import platoonflow.sim as sim
import platoonflow.verify as verify
from platoonflow import DragCoefficients, RoadNetwork, SimParams, run
from platoonflow.core import SafetyAuditError, VehicleMode
from platoonflow.verify import (RunCorpus, check_braking_only,
                                check_determinism, check_drag_descent,
                                check_equilibrium_hold, check_partials,
                                check_pursuit_convergence, check_safety,
                                check_solver_oracle, check_throughput)

SHORT = SimParams(duration=20.0)


def direct_figures(params: SimParams, seed: int) -> tuple:
    """The per-seed figures, read record by record from a fresh run."""
    result = run(replace(params, seed=seed))
    allowed = params.eps_g + params.v_max * params.dt
    excess = []
    commands = []
    for k in range(len(result.trajectory.times)):
        snapshot = result.trajectory.snapshot(k)
        excess += [(back.p - front.p) + params.delta
                   for front, back in zip(snapshot, snapshot[1:])]
        commands += [rec.accel for rec in snapshot
                     if rec.mode != VehicleMode.LEADER_RECOVERING.value]
    return (result.metrics["spawned"], len(result.trajectory),
            max(excess, default=None), sum(e > allowed for e in excess),
            max(commands, default=None))


def test_fold_equals_figures_read_from_each_run(monkeypatch):
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", 3)
    corpus = RunCorpus(SHORT)
    corpus.build()
    assert corpus.errors == {}
    assert list(corpus.summaries) == [0, 1, 2]
    for seed, summary in corpus.summaries.items():
        assert summary.worst_gap_excess is not None
        assert (summary.spawned, summary.records, summary.worst_gap_excess,
                summary.gap_violations, summary.worst_command) == \
            direct_figures(SHORT, seed)


def build_peak(monkeypatch, seeds: int) -> int:
    """Peak traced bytes of building a corpus of 40 s runs."""
    monkeypatch.setattr(verify, "N_CORPUS_SEEDS", seeds)
    corpus = RunCorpus(replace(SHORT, duration=40.0))
    tracemalloc.start()
    try:
        corpus.build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    assert calls == [0, 1, 2, 3]
    assert corpus.first_error() == "seed 1: gap breach in seed 1"
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("safety_50_seeds", False,
         "engine audit tripped, seed 1: gap breach in seed 1"),
        ("throughput_band", False,
         "corpus incomplete, seed 1: gap breach in seed 1"),
        ("braking_only_commands", False,
         "corpus incomplete, seed 1: gap breach in seed 1"),
    ]


@pytest.mark.parametrize("gamma,worst", [
    (1.0, True), (0.0, False), (0.0, True),
], ids=["gamma1-worst_case", "gamma0-communicated", "gamma0-worst_case"])
def test_the_solver_matches_the_grid_oracle_on_both_band_branches(gamma,
                                                                  worst):
    # With gamma > 0 the envelope binds every closing pair; with gamma = 0
    # only inside the eps_g band.  The default, gamma = 1 on communicated
    # commands, is acceptance criterion 07.
    params = replace(SimParams(), gamma=gamma, worst_case_pred_accel=worst)
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
    def tripped(world, params, stamp):
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
