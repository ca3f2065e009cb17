"""The sampled-data engine converges as the control period ``dt`` shrinks.

The paper states its controller in continuous time; the engine holds
each command for one step of ``dt``.  Over default params and seeds
0-5, at ``dt`` 0.2, 0.1 and 0.05:

- the worst bumper-gap excess over the seeds falls by more than a third
  each time ``dt`` halves.  A vehicle sees its predecessor's command one
  step late, so the excess is first order in ``dt``: it reads 0.490,
  0.222 and 0.112 m.  The gate is over the seeds, since one seed alone
  need not fall: seed 0 reads 0.093, 0.109 and 0.058 m;
- every run stays under ``(v_max - v_min) * dt + |a_min| * dt**2 / 2``,
  the gap one step of lag can lose between a pair that spans the speed
  box, with the braking the ego did not see coming;
- the median formed-pair share settles: it moves less between the two
  finest steps than between the two coarsest.

A lag fixed in seconds rather than in steps (the predecessor's command
read 0.2 s back at every ``dt``) fails the first gate: its worst excess
reads 0.490, 0.405 and 0.359 m, though it still falls.
"""

import numpy as np
import pytest

from platoonflow import SimParams, run
from platoonflow.analysis import outcome

SEEDS = range(6)
STEPS = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def by_dt():
    """For each ``dt``, every seed's worst gap excess and formed-pair
    share, as ``analysis.outcome`` folds them."""
    out = {}
    for dt in STEPS:
        runs = [outcome(run(SimParams(seed=seed, dt=dt))) for seed in SEEDS]
        out[dt] = ([o.worst_gap_excess for o in runs],
                   [o.formed_pair_share for o in runs])
    return out


def test_worst_gap_excess_falls_as_dt_halves(by_dt):
    worst = [max(by_dt[dt][0]) for dt in STEPS]
    assert worst[1] < worst[0] * 2 / 3 and worst[2] < worst[1] * 2 / 3, \
        worst


@pytest.mark.parametrize("dt", STEPS)
def test_each_run_stays_under_the_one_step_lag_bound(by_dt, dt):
    params = SimParams(dt=dt)
    bound = ((params.v_max - params.v_min) * dt
             + abs(params.a_min) * dt ** 2 / 2.0)
    assert max(by_dt[dt][0]) < bound


def test_formed_pair_share_settles(by_dt):
    coarse, mid, fine = (np.median(by_dt[dt][1]) for dt in STEPS)
    assert abs(fine - mid) < abs(mid - coarse), (coarse, mid, fine)
