"""Per-vehicle control policies and the mode state machine.

Followers solve a one-dimensional constrained problem each step: among
accelerations admitted by the speed box, the stopping envelope, the
drag-descent cap and (when active) the deadline, apply the one of least
magnitude.  Platoon heads instead brake to the speed floor and cruise,
or accelerate to recover a relaxed deadline.

The default drag law routes through the selected kernel backend in a
single fused call; any other ``DragLaw`` takes the compositional path
below, which is also the readable statement of the solve.
``follower_step`` and ``leader_step`` are the one statement of each
solve and return flat tuples, which the engine consumes directly;
``solve_follower_control`` and ``leader_control`` wrap them in a
``ControlDecision`` for callers that inspect one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import kernels
from .constraints import (
    SPLIT_CODES,
    FeasibilityVerdict,
    FeasibleInterval,
    classify_feasibility,
    safe_accel_interval,
    stopping_margin,
)
from .core import SimParams, VehicleMode, VehicleState
from .drag import DragLaw, ExponentialWakeDrag

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


def follower_step(v: float, p_hat: float, v_hat: float, pred_accel: float,
                  deadline_active: bool, params: SimParams,
                  law: DragLaw | None = None
                  ) -> tuple[float, int, int, float, float, float, float]:
    """Minimum-magnitude feasible acceleration for a follower, flat.

    ``pred_accel`` is the predecessor's previous commanded acceleration
    (replaced by full braking under ``params.worst_case_pred_accel``).
    Returns the kernel's ``(accel, verdict, active_mask, lo, hi, g,
    bound)``.
    """
    if params.worst_case_pred_accel:
        pred_accel = params.a_min
    if law is None or isinstance(law, ExponentialWakeDrag):
        c = law.coeffs if law is not None else params.drag
        return kernels.follower_decision(
            v, p_hat, v_hat, pred_accel, deadline_active,
            params.v_min, params.v_max, params.a_min, params.a_max,
            params.delta, params.eps_g, params.gamma, c.c0, c.c1, c.c2)
    return _solve_composed(v, p_hat, v_hat, pred_accel, deadline_active,
                           params, law)


def solve_follower_control(state: VehicleState, p_hat: float, v_hat: float,
                           pred_accel: float, deadline_active: bool,
                           params: SimParams,
                           law: DragLaw | None = None) -> ControlDecision:
    """``follower_step`` as a ``ControlDecision``."""
    return _decision(*follower_step(state.v, p_hat, v_hat, pred_accel,
                                    deadline_active, params, law))


def _solve_composed(v: float, p_hat: float, v_hat: float, pred_accel: float,
                    deadline_active: bool, params: SimParams, law: DragLaw
                    ) -> tuple[float, int, int, float, float, float, float]:
    # Compositional solve for swapped-in drag laws; mirrors the fused
    # kernel and returns its flat tuple.
    g = stopping_margin(v, p_hat, v_hat, params)
    bound = law.descent_bound(v, p_hat, v_hat, True)
    safe = safe_accel_interval(v, p_hat, v_hat, pred_accel, True, params)
    lo, hi = safe.lo, min(safe.hi, bound)
    if deadline_active:
        lo = max(lo, 0.0)

    if lo <= hi:
        interval = FeasibleInterval(lo, hi)
        accel = interval.clamp_to_zero()
        verdict = FeasibilityVerdict.FEASIBLE
    else:
        safety_active = g >= -params.eps_g or safe.hi < 0.0
        verdict = classify_feasibility(v, p_hat, v_hat, bound,
                                       deadline_active, safety_active, params)
        if verdict is FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT:
            interval = FeasibleInterval(safe.lo, min(safe.hi, bound))
            accel = interval.clamp_to_zero()
        elif verdict.splits:
            interval = safe
            accel = max(params.a_min, safe.lo)
        else:
            raise AssertionError("empty feasible interval with no verdict")

    mask = 0
    if accel == bound:
        mask |= kernels.ACTIVE_DRAG_FLOW
    if accel == safe.hi and safe.hi != params.a_max:
        mask |= kernels.ACTIVE_SAFETY
    if deadline_active and accel == 0.0 \
            and verdict is not FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT:
        mask |= kernels.ACTIVE_DEADLINE
    return accel, verdict.value, mask, interval.lo, interval.hi, g, bound


def leader_step(v: float, p_hat: float, v_hat: float,
                pred_accel: float | None, recovering: bool,
                deadline_active: bool, params: SimParams
                ) -> tuple[float, int, float, float, float, float]:
    """Platoon-head policy plus the merge-eligibility verdict, flat.

    A LEADER brakes at the limit until the speed floor lifts the
    admissible interval to zero; a ``recovering`` head
    (LEADER_RECOVERING) applies the largest admissible acceleration.
    Both respect the stopping envelope against the physical predecessor
    when one exists (``pred_accel`` is None when there is none).

    The verdict classifies the head as if it were following its physical
    predecessor; resequencing merges platoons whose head comes back
    FEASIBLE.  Returns ``(accel, verdict, lo, hi, g, bound)``.
    """
    has_pred = pred_accel is not None
    if not has_pred or params.worst_case_pred_accel:
        pred_accel = params.a_min
    accel, lo, hi, g = kernels.leader_decision(
        v, p_hat, v_hat, pred_accel, has_pred, recovering,
        params.v_min, params.v_max, params.a_min, params.a_max,
        params.delta, params.eps_g, params.gamma,
    )
    code = kernels.VERDICT_FEASIBLE
    bound = 0.0
    if has_pred:
        c = params.drag
        bound = kernels.flow_bound(v, p_hat, v_hat, True, c.c0, c.c1, c.c2)
        safety_active = g == g and (g >= -params.eps_g or hi < 0.0)
        code = kernels.classify(v, v_hat, bound, deadline_active,
                                safety_active, params.v_min, params.a_min)
    return accel, code, lo, hi, g, bound


def leader_control(state: VehicleState, p_hat: float, v_hat: float,
                   pred_accel: float | None, deadline_active: bool,
                   params: SimParams) -> ControlDecision:
    """``leader_step`` as a ``ControlDecision``, with its active set."""
    accel, code, lo, hi, g, bound = leader_step(
        state.v, p_hat, v_hat, pred_accel,
        state.mode is VehicleMode.LEADER_RECOVERING, deadline_active, params)
    mask = 0
    if accel == 0.0 and lo == 0.0 \
            and state.v <= params.v_min + kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_FLOOR
    if accel == 0.0 and state.v >= params.v_max - kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_CEILING
    if pred_accel is not None and accel == hi and hi != params.a_max:
        mask |= kernels.ACTIVE_SAFETY
    return _decision(accel, code, mask, lo, hi, g, bound)


def update_mode(mode: VehicleMode, verdict: FeasibilityVerdict,
                deadline_margin: float, is_head: bool,
                params: SimParams) -> VehicleMode:
    """Advance the mode state machine one step (see ``next_mode``)."""
    return next_mode(mode, verdict.value, deadline_margin, is_head,
                     params.eps_d)


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
