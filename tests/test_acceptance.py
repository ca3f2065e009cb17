"""Acceptance gate: the ten release criteria, one test each.

Each test prints a single PASS/FAIL line on the real stdout so the
verdict list survives pytest's capture, then asserts that the check
passed and that its detail line is the one ``golden_digests.json`` pins
for default parameters: the verify output must not just pass but stay
the same.  The expensive 50-seed run corpus (the session ``corpus``
fixture) is built once and shared by the checks that read it.
"""

import json
from pathlib import Path

import pytest

from platoonflow import SimParams
from platoonflow.verify import (
    check_braking_only,
    check_determinism,
    check_drag_descent,
    check_equilibrium_hold,
    check_partials,
    check_pursuit_convergence,
    check_recursive_feasibility,
    check_safety,
    check_solver_oracle,
    check_throughput,
)

GOLDEN = json.loads(
    Path(__file__).with_name("golden_digests.json").read_text())


@pytest.fixture(scope="module")
def acceptance_params():
    return SimParams()


def report(capsys, result):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"{status}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == GOLDEN["verify"][result.name], (
        f"{result.name}: detail changed from the golden line; the golden "
        f"lines were taken on {GOLDEN['platform']}")


def test_criterion_01_no_safety_violations_across_seeds(
        acceptance_params, corpus, capsys):
    report(capsys, check_safety(acceptance_params, corpus))


def test_criterion_02_throughput_inside_the_demand_band(
        acceptance_params, corpus, capsys):
    report(capsys, check_throughput(acceptance_params, corpus))


def test_criterion_03_braking_episodes_stay_feasible(
        acceptance_params, capsys):
    report(capsys, check_recursive_feasibility(acceptance_params))


def test_criterion_04_only_recovering_heads_accelerate(
        acceptance_params, corpus, capsys):
    report(capsys, check_braking_only(acceptance_params, corpus))


def test_criterion_05_pursuits_converge_without_fallback(
        acceptance_params, capsys):
    report(capsys, check_pursuit_convergence(acceptance_params))


def test_criterion_06_spaced_pair_holds_equilibrium(
        acceptance_params, capsys):
    report(capsys, check_equilibrium_hold(acceptance_params))


def test_criterion_07_solver_matches_the_grid_oracle(
        acceptance_params, capsys):
    report(capsys, check_solver_oracle(acceptance_params))


def test_criterion_08_follower_drag_energy_descends(
        acceptance_params, capsys):
    report(capsys, check_drag_descent(acceptance_params))


def test_criterion_09_repeated_runs_are_byte_identical(
        acceptance_params, capsys):
    report(capsys, check_determinism(acceptance_params))


def test_criterion_10_drag_partials_match_finite_differences(
        acceptance_params, capsys):
    report(capsys, check_partials(acceptance_params))
