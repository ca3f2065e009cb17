"""Per-vehicle control policies and the mode state machine.

Followers solve a one-dimensional constrained problem each step: among
accelerations admitted by the speed box, the stopping envelope, the
drag-descent cap and (when active) the deadline, apply the one of least
magnitude.  Platoon heads instead brake to the speed floor and cruise,
or accelerate to recover a relaxed deadline.

The kernels in ``_kernels_py`` state that solve; this module passes
them a solve's state and the constants of its ``params``, drag law
included.  ``solve_follower_control`` and ``leader_control`` return a
``ControlDecision``; ``next_mode`` advances the mode state machine on
its verdict.  To solve under another drag law, pass
``replace(params, drag=law)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels_py as kernels
from .constraints import SPLIT_CODES, FeasibilityVerdict, FeasibleInterval
from .core import SimParams, VehicleMode, VehicleState

_ACTIVE_NAMES = (
    (kernels.ACTIVE_SPEED_FLOOR, "speed_floor"),
    (kernels.ACTIVE_SPEED_CEILING, "speed_ceiling"),
    (kernels.ACTIVE_SAFETY, "safety"),
    (kernels.ACTIVE_DRAG_FLOW, "drag_flow"),
    (kernels.ACTIVE_DEADLINE, "deadline"),
)


def _active_set(mask: int) -> frozenset[str]:
    return frozenset(name for bit, name in _ACTIVE_NAMES if mask & bit)


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """Outcome of one control solve.

    ``interval`` is the final feasible interval the command was drawn
    from; when the verdict is not FEASIBLE the command came from the
    fallback policy instead and the interval reflects the relaxation.
    ``gs_margin`` is nan for a vehicle with no predecessor.
    """

    accel: float
    verdict: FeasibilityVerdict
    active: frozenset[str]
    interval: FeasibleInterval
    gs_margin: float
    flow_bound: float


def _decision(accel: float, code: int, mask: int, lo: float, hi: float,
              g: float, bound: float) -> ControlDecision:
    return ControlDecision(accel, FeasibilityVerdict(code), _active_set(mask),
                           FeasibleInterval(lo, hi), g, bound)


def solve_follower_control(state: VehicleState, p_hat: float, v_hat: float,
                           pred_accel: float, deadline_active: bool,
                           params: SimParams) -> ControlDecision:
    """Minimum-magnitude feasible acceleration for a follower.

    ``pred_accel`` is the predecessor's previous commanded acceleration
    (replaced by full braking under ``params.worst_case_pred_accel``).
    """
    p, law = params, params.drag
    if p.worst_case_pred_accel:
        pred_accel = p.a_min
    return _decision(*kernels.follower_decision(
        state.v, p_hat, v_hat, pred_accel, deadline_active, p.v_min,
        p.v_max, p.a_min, p.a_max, p.delta, p.eps_g, p.gamma, law.c0,
        law.c1, law.c2))


def merge_verdict(v: float, p_hat: float, v_hat: float, g: float, hi: float,
                  deadline_active: bool, params: SimParams
                  ) -> tuple[int, float]:
    """``(verdict, bound)`` of a head classified as a follower of its
    physical predecessor, from its leader solve's ``g`` and ``hi``.

    The descent bound comes from the same drag law a follower in that
    slot would use.
    """
    law = params.drag
    bound = kernels.flow_bound(v, p_hat, v_hat, True, law.c0, law.c1, law.c2)
    safety_active = g == g and (g >= -params.eps_g or hi < 0.0)
    return kernels.classify(v, v_hat, bound, deadline_active, safety_active,
                            params.v_min, params.a_min), bound


def leader_control(state: VehicleState, p_hat: float, v_hat: float,
                   pred_accel: float | None, deadline_active: bool,
                   params: SimParams) -> ControlDecision:
    """Platoon-head policy plus the merge-eligibility verdict.

    A LEADER brakes at the limit until the speed floor lifts the
    admissible interval to zero; a LEADER_RECOVERING head applies the
    largest admissible acceleration.  Both respect the stopping envelope
    against the physical predecessor when one exists (``pred_accel`` is
    None when there is none).

    The verdict classifies the head as if it were following its physical
    predecessor (see ``merge_verdict``); resequencing merges platoons
    whose head comes back FEASIBLE.
    """
    p = params
    v = state.v
    has_pred = pred_accel is not None
    accel, lo, hi, g = kernels.leader_decision(
        v, p_hat, v_hat,
        pred_accel if has_pred and not p.worst_case_pred_accel else p.a_min,
        has_pred, state.mode is VehicleMode.LEADER_RECOVERING, p.v_min,
        p.v_max, p.a_min, p.a_max, p.delta, p.eps_g, p.gamma)
    code, bound = kernels.VERDICT_FEASIBLE, 0.0
    if has_pred:
        code, bound = merge_verdict(v, p_hat, v_hat, g, hi, deadline_active,
                                    p)
    mask = 0
    if accel == 0.0 and lo == 0.0 and v <= p.v_min + kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_FLOOR
    if accel == 0.0 and v >= p.v_max - kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_CEILING
    if has_pred and accel == hi and hi != p.a_max:
        mask |= kernels.ACTIVE_SAFETY
    return _decision(accel, code, mask, lo, hi, g, bound)


def next_mode(mode: VehicleMode, verdict: int, deadline_margin: float,
              is_head: bool, eps_d: float) -> VehicleMode:
    """Advance the mode state machine one step on a verdict code.

    Split verdicts turn followers into heads; the deadline-safety
    conflict relaxes the deadline in place; a relaxed follower reaching
    the head slot accelerates to recover, and graduates to plain LEADER
    once its deadline margin is comfortably negative.  Everything else
    is sticky; demotion of a merged head is the engine's business.
    """
    if mode is VehicleMode.FOLLOWER:
        if verdict in SPLIT_CODES:
            return VehicleMode.LEADER
        if verdict == kernels.VERDICT_DEADLINE_SAFETY_CONFLICT:
            # Promoted and conflicted in the same step: recover as head.
            if is_head:
                return VehicleMode.LEADER_RECOVERING
            return VehicleMode.FOLLOWER_DEADLINE_RELAXED
        if is_head:
            return VehicleMode.LEADER
        return mode
    if mode is VehicleMode.FOLLOWER_DEADLINE_RELAXED:
        if verdict in SPLIT_CODES or is_head:
            return VehicleMode.LEADER_RECOVERING
        return mode
    if mode is VehicleMode.LEADER_RECOVERING:
        if deadline_margin <= -eps_d:
            return VehicleMode.LEADER
        return mode
    return mode


# ``KEEPS_MODE[is_head][mode][verdict]``: whether ``next_mode`` leaves
# the mode as it is whatever the deadline margin, for the engine's
# per-vehicle skip; a ``VehicleMode`` indexes it.  ``next_mode``
# reads the margin only through ``margin <= -eps_d``, so the two
# infinite margins cover both sides of that test.
KEEPS_MODE = tuple(
    tuple(tuple(all(next_mode(mode, verdict.value, margin, is_head, 0.0)
                    is mode for margin in (-math.inf, math.inf))
                for verdict in FeasibilityVerdict)
          for mode in VehicleMode)
    for is_head in (False, True))
