"""Per-vehicle control policies and their typed reports.

Followers solve a one-dimensional constrained problem each step: among
accelerations admitted by the speed box, the stopping envelope, the
drag-descent cap and (when active) the deadline, apply the one of least
magnitude.  Platoon heads instead brake to the speed floor and cruise,
or accelerate to recover a relaxed deadline.

The kernels in ``_kernels_py`` decide every solve, its verdict
included, name what binds its command, and own the rule for a
predecessor's command; this module passes them a solve's state and its
``params``, which they read every constant from.  ``solve_follower_control``
and ``leader_control`` report the result as a ``ControlDecision`` of
plain numbers and the kernels' own ``FeasibilityVerdict``, re-exported
here, whose verdict the engine's resequencing acts on.  To solve under
another drag law, pass ``replace(params, drag=law)``.

This module is the solves' report API and nothing else: the engine,
the trajectory, the analysis, the acceptance checks, the renderer and
the command line call the kernels directly and import nothing from
here.
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
