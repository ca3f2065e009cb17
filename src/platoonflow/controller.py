"""Per-vehicle control policies and the mode state machine.

Followers solve a one-dimensional constrained problem each step: among
accelerations admitted by the speed box, the stopping envelope, the
drag-descent cap and (when active) the deadline, apply the one of least
magnitude.  Platoon heads instead brake to the speed floor and cruise,
or accelerate to recover a relaxed deadline.

The default drag law routes through the selected kernel backend in a
single fused call; any other ``DragLaw`` takes the compositional path
below, which is also the readable statement of the solve.  ``bind``
resolves that dispatch, the worst-case substitution and the parameter
constants once per step; the engine then calls the kernels directly per
vehicle, and ``follower_step``/``leader_step`` go through the same
binding for a single solve.  ``solve_follower_control`` and
``leader_control`` wrap those in a ``ControlDecision`` for callers that
inspect one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._backend import kernels
from .constraints import (
    SPLIT_CODES,
    FeasibilityVerdict,
    FeasibleInterval,
    classify_feasibility,
    envelope_cap,
    safe_accel_interval,
    stopping_margin,
)
from .core import SimParams, VehicleMode, VehicleState
from .drag import DragLaw, ExponentialWakeDrag
from .trajectory import MODES

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


class Solves(NamedTuple):
    """What every solve of one step shares, resolved by ``bind``.

    ``follower`` takes the fused follower kernel's flat arguments
    (``follower_decision``); for a law the kernels do not implement it
    is a closure over that law that ignores ``c0, c1, c2``.  ``law`` is
    the drag law whose descent bound classifies a head's merge.
    ``worst_pred`` is the predecessor command to assume in place of the
    communicated one: ``a_min`` under ``worst_case_pred_accel``, else
    None.  The fields from ``v_min`` on are the kernels' trailing
    arguments in their order: ``s[3:]`` for the follower kernel,
    ``s[3:10]`` for the leader kernel.
    """

    follower: Callable[..., tuple]
    law: DragLaw
    worst_pred: float | None
    v_min: float
    v_max: float
    a_min: float
    a_max: float
    delta: float
    eps_g: float
    gamma: float
    c0: float
    c1: float
    c2: float


def bind(params: SimParams, law: DragLaw | None = None) -> Solves:
    """The solves of one step under ``params`` and drag ``law`` (the
    exponential wake law with ``params.drag`` when None).

    The kernels are looked up on every call, so a kernel rebound at run
    time (a timing wrapper, say) is the one the next step calls.
    """
    if law is None:
        law = ExponentialWakeDrag(params.drag)
    if isinstance(law, ExponentialWakeDrag):
        c = law.coeffs
        follower = kernels.follower_decision
    else:
        c = params.drag

        def follower(v, p_hat, v_hat, pred_accel, deadline_active, *_):
            return _solve_composed(v, p_hat, v_hat, pred_accel,
                                   deadline_active, params, law)

    return Solves(
        follower, law,
        params.a_min if params.worst_case_pred_accel else None,
        params.v_min, params.v_max, params.a_min, params.a_max,
        params.delta, params.eps_g, params.gamma, c.c0, c.c1, c.c2)


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
    s = bind(params, law)
    if s.worst_pred is not None:
        pred_accel = s.worst_pred
    return s.follower(v, p_hat, v_hat, pred_accel, deadline_active, *s[3:])


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
    # kernel and returns its flat tuple, active mask included.
    g = stopping_margin(v, p_hat, v_hat, params)
    bound = law.descent_bound(v, p_hat, v_hat, True)
    safe = safe_accel_interval(v, p_hat, v_hat, pred_accel, True, params)
    # The raw envelope cap, before the speed box clips it; inf where the
    # envelope does not bind.
    cap = math.inf
    if v_hat > 0.0 and (g >= -params.eps_g or params.gamma > 0.0):
        cap = envelope_cap(v, v_hat, g, pred_accel, params)
    lo, hi = safe.lo, min(safe.hi, bound)
    if deadline_active:
        lo = max(lo, 0.0)

    if lo <= hi:
        interval = FeasibleInterval(lo, hi)
        accel = interval.clamp_to_zero()
        verdict = FeasibilityVerdict.FEASIBLE
    else:
        safety_active = g >= -params.eps_g or cap < 0.0
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
    if interval.lo == 0.0 and accel == 0.0 \
            and v <= params.v_min + kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_FLOOR
    if accel == 0.0 and v >= params.v_max - kernels.SPEED_EDGE_TOL:
        mask |= kernels.ACTIVE_SPEED_CEILING
    if accel == cap:
        mask |= kernels.ACTIVE_SAFETY
    if accel == bound:
        mask |= kernels.ACTIVE_DRAG_FLOW
    if deadline_active and accel == 0.0 \
            and verdict is not FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT:
        mask |= kernels.ACTIVE_DEADLINE
    return accel, verdict.value, mask, interval.lo, interval.hi, g, bound


def leader_step(v: float, p_hat: float, v_hat: float,
                pred_accel: float | None, recovering: bool,
                deadline_active: bool, params: SimParams,
                law: DragLaw | None = None
                ) -> tuple[float, int, float, float, float, float]:
    """Platoon-head policy plus the merge-eligibility verdict, flat.

    A LEADER brakes at the limit until the speed floor lifts the
    admissible interval to zero; a ``recovering`` head
    (LEADER_RECOVERING) applies the largest admissible acceleration.
    Both respect the stopping envelope against the physical predecessor
    when one exists (``pred_accel`` is None when there is none).

    The verdict classifies the head as if it were following its physical
    predecessor (see ``merge_verdict``); resequencing merges platoons
    whose head comes back FEASIBLE.  Returns ``(accel, verdict, lo, hi,
    g, bound)``.
    """
    s = bind(params, law)
    has_pred = pred_accel is not None
    if not has_pred or s.worst_pred is not None:
        pred_accel = s.a_min
    accel, lo, hi, g = kernels.leader_decision(
        v, p_hat, v_hat, pred_accel, has_pred, recovering, *s[3:10])
    code = kernels.VERDICT_FEASIBLE
    bound = 0.0
    if has_pred:
        code, bound = merge_verdict(v, p_hat, v_hat, g, hi, deadline_active,
                                    s)
    return accel, code, lo, hi, g, bound


def merge_verdict(v: float, p_hat: float, v_hat: float, g: float, hi: float,
                  deadline_active: bool, s: Solves) -> tuple[int, float]:
    """``(verdict, bound)`` of a head classified as a follower of its
    physical predecessor, from its leader solve's ``g`` and ``hi``.

    The descent bound comes from the same drag law a follower in that
    slot would use.
    """
    bound = s.law.descent_bound(v, p_hat, v_hat, True)
    safety_active = g == g and (g >= -s.eps_g or hi < 0.0)
    return kernels.classify(v, v_hat, bound, deadline_active, safety_active,
                            s.v_min, s.a_min), bound


def leader_control(state: VehicleState, p_hat: float, v_hat: float,
                   pred_accel: float | None, deadline_active: bool,
                   params: SimParams,
                   law: DragLaw | None = None) -> ControlDecision:
    """``leader_step`` as a ``ControlDecision``, with its active set."""
    accel, code, lo, hi, g, bound = leader_step(
        state.v, p_hat, v_hat, pred_accel,
        state.mode is VehicleMode.LEADER_RECOVERING, deadline_active, params,
        law)
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


# ``KEEPS_MODE[is_head][mode code][verdict]``: whether ``next_mode``
# leaves the mode as it is whatever the deadline margin, for the
# engine's per-vehicle skip; mode codes index ``MODES``.  ``next_mode``
# reads the margin only through ``margin <= -eps_d``, so the two
# infinite margins cover both sides of that test.
KEEPS_MODE = tuple(
    tuple(tuple(all(next_mode(mode, verdict.value, margin, is_head, 0.0)
                    is mode for margin in (-math.inf, math.inf))
                for verdict in FeasibilityVerdict)
          for mode in MODES)
    for is_head in (False, True))
