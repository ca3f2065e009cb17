"""Typed reports of the two solves, kept for the benchmark's tracing.

``solve_follower_control`` and ``leader_control`` pass a solve's state
and its ``params`` to ``kernels.follower_decision`` and
``kernels.leader_decision``, which decide it, and report the kernels'
``(accel, verdict, lo, hi, g, cap, bound)`` as a ``ControlDecision``:
``g`` as ``gs_margin``, ``bound`` as ``flow_bound`` and, in
``active``, the names of ``kernels.ACTIVE`` that ``kernels.binding``
finds hold the command.  The verdict is the kernels' own
``FeasibilityVerdict``, re-exported here.

No module of the package imports this one, and the package root does
not export it: a solve is a kernel call.  It remains because
``perfbench/tracing.py`` wraps ``solve_follower_control`` and
``leader_control`` and reads ``kernels`` and ``FeasibilityVerdict``
from it.  Once ROADMAP item 18 counts the verdicts without those
wraps and they are dropped, item 21 deletes this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import _kernels_py as kernels
from ._kernels_py import FeasibilityVerdict
from .core import SimParams


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """Outcome of one control solve.

    ``[lo, hi]`` is the final feasible interval the command was drawn
    from; when the verdict is not FEASIBLE the command came from the
    fallback policy instead and the interval reflects the relaxation.
    ``gs_margin`` is -inf for a head with nobody ahead.
    """

    accel: float
    verdict: FeasibilityVerdict
    active: frozenset[str]
    lo: float
    hi: float
    gs_margin: float
    flow_bound: float


def _decision(solve: kernels.Decision, v: float, deadline_active: bool,
              follower: bool, params: SimParams) -> ControlDecision:
    """Report a kernel's ``(accel, verdict, lo, hi, g, cap, bound)``,
    naming in ``active`` what ``kernels.binding`` finds holds the
    command."""
    accel, verdict, lo, hi, g, cap, bound = solve
    active = compress(kernels.ACTIVE, kernels.binding(
        accel, verdict, lo, cap, bound, v, deadline_active, follower, params))
    return ControlDecision(accel, verdict, frozenset(active), lo, hi, g, bound)


def solve_follower_control(v: float, p_hat: float, v_hat: float,
                           pred_accel: float, deadline_active: bool,
                           params: SimParams) -> ControlDecision:
    """Minimum-magnitude feasible acceleration for a follower.

    ``pred_accel`` is the predecessor's previous commanded acceleration,
    as ``kernels.safe_interval`` reads it.
    """
    return _decision(kernels.follower_decision(
        v, p_hat, v_hat, pred_accel, deadline_active, params),
        v, deadline_active, True, params)


def leader_control(v: float, p_hat: float, v_hat: float,
                   pred_accel: float, recovering: bool,
                   deadline_active: bool,
                   params: SimParams) -> ControlDecision:
    """Platoon-head policy plus the merge-eligibility verdict.

    A LEADER brakes at the limit until the speed floor lifts the
    admissible interval to zero; a LEADER_RECOVERING head
    (``recovering``) applies the largest admissible acceleration.  Both
    respect the stopping envelope against the physical predecessor; with
    nobody ahead, ``(p_hat, v_hat, pred_accel)`` is ``(-inf, 0.0, 0.0)``
    (see ``kernels.safe_interval``).

    The verdict classifies the head as if it were following its physical
    predecessor, under the descent bound of ``params.drag``;
    resequencing merges platoons whose head comes back FEASIBLE.
    """
    return _decision(kernels.leader_decision(
        v, p_hat, v_hat, pred_accel, recovering, deadline_active, params),
        v, deadline_active, False, params)
