"""The paper's outcome on every run of ``RUNS``: drafting saves energy
and platoons form.

Both figures are read from ``analysis.outcome``.  Its drafting saving
compares each run's drag effort, ``sum(drag**2)`` over every row, with
the same speeds driven solo, ``sum((c0*v**2)**2)``.  Its formed-pair
share counts a row as formed when ``analysis.in_formation`` holds for
it and the row ahead.  Both bounds are plain positivity, not thresholds
fitted to today's values.

Over seeds 0-9, each run also spends less drag effort per metre than
its wake-blind twin, a run whose controller reads ``drag.c1 = 0``,
with the drag of both taken under the default law.  That is a paired
sign test of the total, and it does not say why the total differs.
Factored into a speed part, ``sum((c0*v**2)**2) / sum(v)``, the same
rows driven solo, and a drafting part, ``1 - saving``, the twin's
speed part is the higher in 10 of 10 seeds (median ratio 1.074) and its
drafting part in 6 of 10 (median ratio 1.002): most of the gap comes
from the wake term slowing the vehicles down, since solo effort per
metre grows as ``v**3``.
"""

import numpy as np
import pytest

from platoonflow import SimParams, drag_force, run
from platoonflow.analysis import outcome
from platoonflow.trajectory import pair_rows
from conftest import RUNS, with_law


@pytest.fixture(scope="module", params=list(RUNS))
def run_outcome(request, run_of):
    return outcome(run_of(RUNS[request.param]))


def test_drafting_saves_energy(run_outcome):
    assert run_outcome.drafting_saving > 0.0


def test_platoons_form(run_outcome):
    assert run_outcome.formed_pair_share > 0.0


def drag_effort_per_metre(tr, law):
    """``sum(drag**2) / sum(v)`` over every row of ``tr``, each row's drag
    taken under ``law`` from its stored ``p`` and ``v``: the drag effort
    ``sum(F**2 * dt)`` per vehicle-metre driven."""
    p, v = np.array(tr.p), np.array(tr.v)
    back = pair_rows(tr.offsets)
    # The front row of each step has nobody ahead: no wake.
    p_hat = np.full(len(p), -np.inf)
    p_hat[back] = p[back] - p[back - 1]
    drag = np.array([drag_force(*row, law)
                     for row in zip(v.tolist(), p_hat.tolist())])
    return np.sum(drag ** 2) / np.sum(v)


@pytest.mark.parametrize("seed", range(10))
def test_the_wake_term_saves_drag_against_a_wake_blind_twin(seed):
    # The twin's controller sees no wake (c1 = 0), but the same air acts
    # on its rows.  Today the twin's effort is 0.7% (seed 1) to 17%
    # higher.
    params = SimParams(seed=seed)
    blind = with_law(params, c1=0.0)
    aware = drag_effort_per_metre(run(params).trajectory, params.drag)
    assert aware < drag_effort_per_metre(run(blind).trajectory, params.drag)
