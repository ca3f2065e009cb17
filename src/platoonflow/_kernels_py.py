"""Scalar kernels for the per-vehicle hot path.

These functions carry the entire numerical semantics of the controller;
the rest of the package binds parameters and reports their results.
Each rule is stated once: ``advance`` is the vehicle update, which
moves the engine's vehicles and those of the feasibility check;
``safe_interval`` is the speed box intersected with the stopping
envelope, which both decisions start from; ``drag_force``,
``drag_partials`` and ``flow_bound`` are the wake drag law;
``classify`` is the verdict both decisions return, a split for a
follower and a merge for a head.  They take flat float arguments
and allocate nothing beyond result tuples, so the engine can call them
per vehicle and step.
"""

from __future__ import annotations

import math

# Exact-equality guard for speeds parked on a bound by the projection step.
SPEED_EDGE_TOL = 1e-9

INF = float("inf")
NAN = float("nan")

# Verdict codes of the follower feasibility test.
VERDICT_FEASIBLE = 0
VERDICT_FLOOR_CONFLICT = 1
VERDICT_BRAKE_CONFLICT = 2
VERDICT_DEADLINE_DRAG_CONFLICT = 3
VERDICT_DEADLINE_SAFETY_CONFLICT = 4


def advance(p: float, v: float, a: float, dt: float,
            v_min: float, v_max: float) -> tuple[float, float]:
    """Position and speed ``(p', v')`` after one step of ``dt`` under
    the command ``a``.

    Position takes the double-integrator step under the raw command;
    speed takes ``v + a * dt`` projected onto ``[v_min, v_max]``.  The
    position does not see that projection.
    """
    v_new = v + a * dt
    if v_new < v_min:
        v_new = v_min
    elif v_new > v_max:
        v_new = v_max
    return p + v * dt + 0.5 * a * dt * dt, v_new


def drag_force(v: float, p_hat: float, in_wake: bool,
               c0: float, c1: float, c2: float) -> float:
    """Aerodynamic drag: quadratic in speed, discounted in a wake."""
    if in_wake:
        return c0 * v * v * (1.0 - c1 * math.exp(c2 * p_hat))
    return c0 * v * v


def drag_partials(v: float, p_hat: float,
                  c0: float, c1: float, c2: float) -> tuple[float, float]:
    """Closed-form partials of the wake drag force w.r.t. speed and gap."""
    w = math.exp(c2 * p_hat)
    return 2.0 * c0 * v * (1.0 - c1 * w), -c0 * v * v * c1 * c2 * w


def flow_bound(v: float, p_hat: float, v_hat: float,
               c0: float, c1: float, c2: float) -> float:
    """Upper bound on acceleration that keeps drag energy non-increasing.

    Requiring d(F^2)/dt <= 0 for the wake drag law yields
    a <= (|dF/dp_hat| / dF/dv) * v_hat.  A vehicle with no predecessor
    has no wake to hold; ``leader_decision`` gives it the bound 0.
    """
    w = math.exp(c2 * p_hat)
    # dF/dv > 0 on the admissible domain (v >= v_min > 0, c1 < 1).
    ratio = (v * c1 * c2 * w) / (2.0 * (1.0 - c1 * w))
    return ratio * v_hat


def stopping_margin(v: float, p_hat: float, v_hat: float,
                    v_min: float, a_min: float, delta: float) -> float:
    """Stopping-envelope margin; the pair is safe iff this is <= 0.

    A closing vehicle (v_hat > 0) books the distance it would cede while
    braking to the predecessor's worst-case cruise speed; otherwise the
    plain gap-minus-delta test applies.
    """
    if v_hat <= 0.0:
        return p_hat + delta
    return (p_hat + delta
            + v_hat * (v_min - v) / a_min
            + v_hat * v_hat / (2.0 * a_min))


def deadline_margin(p: float, v: float, t: float,
                    exit_pos: float, deadline: float) -> float:
    """Slack on reaching ``exit_pos`` by ``deadline`` at current speed.

    Negative while cruising at v covers the remaining distance in time;
    zero on the boundary; positive once the deadline cannot be met
    without accelerating.  The derive calls it on numpy columns.
    """
    return (exit_pos - p) - (deadline - t) * v


def envelope_cap(v: float, v_hat: float, g: float, pred_accel: float,
                 v_min: float, a_min: float, gamma: float) -> float:
    """Acceleration cap keeping the envelope margin from growing.

    Solves d(g)/dt <= -gamma * g for the ego acceleration, given the
    predecessor's commanded acceleration.  Only meaningful for a closing
    pair (v_hat > 0) whose ego is above the speed floor; the caller
    guards that.

    The raw bound is floored at a_min: a discrete overshoot past the
    envelope can push it lower, but full braking is the strongest
    recovery physically available and never grows the margin.
    """
    k = (v_min - v) / a_min
    r = v_hat - pred_accel * (v_min - v + v_hat) / a_min
    cap = (-gamma * g - r) / k
    if cap < a_min:
        cap = a_min
    return cap


def safe_interval(v: float, p_hat: float, v_hat: float,
                  pred_accel: float, has_pred: bool,
                  v_min: float, v_max: float, a_min: float, a_max: float,
                  delta: float, eps_g: float, gamma: float
                  ) -> tuple[float, float, float, float]:
    """``(lo, hi, g, cap)``: the admissible acceleration interval from
    the speed box and the stopping envelope, the envelope margin and the
    acceleration cap it imposes.

    ``g`` is nan without a predecessor.  ``cap`` is inf where the
    envelope does not bind: without a predecessor, for a pair that is
    not closing, for an ego at the speed floor, and with ``gamma == 0``
    outside the ``eps_g`` band.  With ``gamma > 0`` it binds every other
    closing pair, engaging smoothly ahead of the boundary.  The interval
    is never empty for states reachable by the engine.

    An ego at the floor may still close on a predecessor parked at the
    floor a little below it, by less than ``SPEED_EDGE_TOL``.  It cannot
    brake any further, and the cap, which divides by the ego's headroom
    above the floor, is undefined there.
    """
    lo = a_min
    hi = a_max
    at_floor = v <= v_min + SPEED_EDGE_TOL
    if at_floor:
        lo = 0.0
    if v >= v_max - SPEED_EDGE_TOL:
        hi = 0.0
    if not has_pred:
        return lo, hi, NAN, INF
    g = stopping_margin(v, p_hat, v_hat, v_min, a_min, delta)
    if v_hat > 0.0 and not at_floor and (g >= -eps_g or gamma > 0.0):
        cap = envelope_cap(v, v_hat, g, pred_accel, v_min, a_min, gamma)
        if cap < hi:
            hi = cap
        return lo, hi, g, cap
    return lo, hi, g, INF


def classify(v: float, v_hat: float, bound: float, deadline_active: bool,
             g: float, cap: float, v_min: float, a_min: float,
             eps_g: float) -> int:
    """Feasibility verdict for the follower problem, in precedence order.
    The envelope binds a closing pair in the ``eps_g`` band or capped
    below zero."""
    if v <= v_min + SPEED_EDGE_TOL and bound < 0.0:
        return VERDICT_FLOOR_CONFLICT
    if bound < a_min:
        return VERDICT_BRAKE_CONFLICT
    if deadline_active and bound < 0.0:
        return VERDICT_DEADLINE_DRAG_CONFLICT
    if deadline_active and v_hat > 0.0 and (g >= -eps_g or cap < 0.0):
        return VERDICT_DEADLINE_SAFETY_CONFLICT
    return VERDICT_FEASIBLE


def _clamp_to_zero(lo: float, hi: float) -> float:
    # Minimum-magnitude element of [lo, hi]: the feasible value closest to 0.
    if lo > 0.0:
        return lo
    if hi < 0.0:
        return hi
    return 0.0


def follower_decision(v: float, p_hat: float, v_hat: float,
                      pred_accel: float, deadline_active: bool,
                      v_min: float, v_max: float,
                      a_min: float, a_max: float,
                      delta: float, eps_g: float, gamma: float,
                      c0: float, c1: float, c2: float
                      ) -> tuple[float, int, float, float, float, float,
                                 float]:
    """Full follower control decision.

    Returns (accel, verdict, lo, hi, g, cap, bound) where [lo, hi] is the
    final feasible interval (after any deadline relaxation), ``g`` the
    stopping-envelope margin, ``cap`` the envelope's acceleration cap
    (inf where it does not bind) and ``bound`` the drag-descent cap.

    The command is the feasible acceleration of least magnitude.  When the
    constraint set is empty, the verdict explains why and the command
    falls back: drag-vs-deadline and box conflicts brake on the leader
    policy; an envelope-vs-deadline conflict drops the deadline and
    re-solves.
    """
    lo, hi_safe, g, cap = safe_interval(v, p_hat, v_hat, pred_accel, True,
                                        v_min, v_max, a_min, a_max, delta,
                                        eps_g, gamma)
    bound = flow_bound(v, p_hat, v_hat, c0, c1, c2)

    hi = hi_safe
    if bound < hi:
        hi = bound
    lo_full = lo
    if deadline_active and lo_full < 0.0:
        lo_full = 0.0

    verdict = VERDICT_FEASIBLE
    if lo_full <= hi:
        accel = _clamp_to_zero(lo_full, hi)
        lo = lo_full
    else:
        verdict = classify(v, v_hat, bound, deadline_active, g, cap, v_min,
                           a_min, eps_g)
        if verdict == VERDICT_DEADLINE_SAFETY_CONFLICT:
            # Drop the deadline and re-solve; the caller flips the mode.
            accel = _clamp_to_zero(lo, hi)
        elif verdict != VERDICT_FEASIBLE:
            # Split triggers: brake on the leader policy, envelope intact.
            accel = a_min if a_min > lo else lo
            hi = hi_safe
        else:
            raise AssertionError("empty feasible interval with no verdict")
    return accel, verdict, lo, hi, g, cap, bound


def leader_decision(v: float, p_hat: float, v_hat: float,
                    pred_accel: float, has_pred: bool, recovering: bool,
                    deadline_active: bool, v_min: float, v_max: float,
                    a_min: float, a_max: float,
                    delta: float, eps_g: float, gamma: float,
                    c0: float, c1: float, c2: float
                    ) -> tuple[float, int, float, float, float, float,
                               float]:
    """Platoon-head control: brake to the floor, or accelerate to recover.

    Returns the tuple of ``follower_decision``.  The admissible interval
    is the speed box intersected with the envelope cap against the
    physical predecessor, when one exists.  The verdict, which decides
    merges, classifies the head as a follower of that predecessor;
    without one it is FEASIBLE, with ``bound`` 0 and ``g`` nan.
    """
    lo, hi, g, cap = safe_interval(v, p_hat, v_hat, pred_accel, has_pred,
                                   v_min, v_max, a_min, a_max, delta, eps_g,
                                   gamma)
    if recovering:
        accel = hi
    else:
        accel = a_min if a_min > lo else lo
        if accel > hi:
            accel = hi
    if not has_pred:
        return accel, VERDICT_FEASIBLE, lo, hi, g, cap, 0.0
    bound = flow_bound(v, p_hat, v_hat, c0, c1, c2)
    return (accel, classify(v, v_hat, bound, deadline_active, g, cap, v_min,
                            a_min, eps_g),
            lo, hi, g, cap, bound)
