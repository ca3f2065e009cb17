"""Scalar kernels for the per-vehicle hot path.

These functions carry the entire numerical semantics of the controller;
the rest of the package reports their results.  A kernel reads every
constant of its run from the run's ``SimParams`` (``params``), and a
drag kernel from its law (``params.drag``), not from flat floats.
It reads each field it uses into a local once and calls ``exp``
through one module-level binding: on CPython 3.11.7 (2-core Xeon VM) a
field read took 4.1 ns against 2.4 ns for a local, and ``math.exp``
5.7 ns against 2.8 ns for the global ``exp``.  Each rule is stated
once: ``advance`` is the vehicle update, which moves the engine's
vehicles and those of the feasibility check;
``safe_interval`` is the speed box intersected with the stopping
envelope, which both decisions start from, and alone reads a
predecessor's command, applying the worst-case rule to it;
``gap_allowance`` bounds the stopping margin the audits accept;
``drag_force``, ``drag_partials`` and ``flow_bound`` are the wake drag
law; ``classify`` is the verdict both decisions return, a split for a
follower and a merge for a head; ``binding`` names what holds a
decision's command, by the names of ``ACTIVE``.  ``FeasibilityVerdict``
is that verdict's one type, an ``IntEnum`` whose members the kernels
return and the engine, the controller and the grid oracle compare;
``SPLITS`` holds the members that split.  The kernels allocate nothing
beyond result tuples, so the engine can call them per vehicle and step.
"""

from __future__ import annotations

import enum
from math import exp
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; the kernels import no package module
    from .core import DragCoefficients, SimParams

# Exact-equality guard for speeds parked on a bound by the projection step.
SPEED_EDGE_TOL = 1e-9

INF = float("inf")


class FeasibilityVerdict(enum.IntEnum):
    """Outcome of the follower feasibility test, in precedence order.

    The three split verdicts mean the follower must give up drafting and
    head its own platoon; the deadline-safety conflict instead drops the
    deadline and keeps following.
    """

    FEASIBLE = 0
    #: Parked at the speed floor while drag descent demands deceleration.
    FLOOR_CONFLICT = 1
    #: Drag descent demands more braking than the actuator has.
    BRAKE_CONFLICT = 2
    #: Holding the deadline needs a >= 0, drag descent needs a < 0.
    DEADLINE_DRAG_CONFLICT = 3
    #: Holding the deadline needs a >= 0, the stopping envelope forbids it.
    DEADLINE_SAFETY_CONFLICT = 4

    @property
    def splits(self) -> bool:
        """Whether this verdict makes the follower head a new platoon."""
        return self in SPLITS


# Bound as globals for the kernels: on CPython 3.11.7 (2-core Xeon VM) a
# global read took 17 ns, an enum attribute read 204 ns.
(VERDICT_FEASIBLE, VERDICT_FLOOR_CONFLICT, VERDICT_BRAKE_CONFLICT,
 VERDICT_DEADLINE_DRAG_CONFLICT,
 VERDICT_DEADLINE_SAFETY_CONFLICT) = FeasibilityVerdict

SPLITS = frozenset((VERDICT_FLOOR_CONFLICT, VERDICT_BRAKE_CONFLICT,
                    VERDICT_DEADLINE_DRAG_CONFLICT))

# (accel, verdict, lo, hi, g, cap, bound): what both decisions return.
Decision = tuple[float, FeasibilityVerdict, float, float, float, float, float]

# What can hold a command, in the order of ``binding``'s flags.
ACTIVE = ("speed_floor", "speed_ceiling", "safety", "drag_flow", "deadline")


def advance(p: float, v: float, a: float,
            params: SimParams) -> tuple[float, float]:
    """Position and speed ``(p', v')`` after one step of ``params.dt``
    under the command ``a``.

    Position takes the double-integrator step under the raw command;
    speed takes ``v + a * dt`` projected onto ``[v_min, v_max]``.  The
    position does not see that projection.
    """
    dt = params.dt
    v_new = v + a * dt
    if v_new < params.v_min:
        v_new = params.v_min
    elif v_new > params.v_max:
        v_new = params.v_max
    return p + v * dt + 0.5 * a * dt * dt, v_new


def drag_force(v: float, p_hat: float, law: DragCoefficients) -> float:
    """Aerodynamic drag (m/s^2, force per unit mass): quadratic in speed,
    discounted in a wake, and not at all with nobody ahead."""
    return law.c0 * v * v * (1.0 - law.c1 * exp(law.c2 * p_hat))


def drag_partials(v: float, p_hat: float,
                  law: DragCoefficients) -> tuple[float, float]:
    """Closed-form partials of the wake drag force w.r.t. speed and gap."""
    c0, c1, c2 = law.c0, law.c1, law.c2
    w = exp(c2 * p_hat)
    return 2.0 * c0 * v * (1.0 - c1 * w), -c0 * v * v * c1 * c2 * w


def flow_bound(v: float, p_hat: float, v_hat: float,
               law: DragCoefficients) -> float:
    """Upper bound on acceleration that keeps drag energy non-increasing.

    Requiring d(F^2)/dt <= 0 for the wake drag law yields
    a <= (|dF/dp_hat| / dF/dv) * v_hat.  With nobody ahead (see
    ``safe_interval``) there is no wake to hold, and the bound is 0.
    """
    c1, c2 = law.c1, law.c2
    w = exp(c2 * p_hat)
    # dF/dv > 0 on the admissible domain (v >= v_min > 0, c1 < 1).
    ratio = (v * c1 * c2 * w) / (2.0 * (1.0 - c1 * w))
    return ratio * v_hat


def stopping_margin(v: float, p_hat: float, v_hat: float,
                    params: SimParams) -> float:
    """Stopping-envelope margin; safe iff <= 0, which implies a gap of
    at least delta even if both vehicles brake to the speed floor.

    A closing vehicle (v_hat > 0) books the distance it would cede while
    braking to the predecessor's worst-case cruise speed; otherwise the
    plain gap-minus-delta test applies.
    """
    if v_hat <= 0.0:
        return p_hat + params.delta
    a_min = params.a_min
    return (p_hat + params.delta
            + v_hat * (params.v_min - v) / a_min
            + v_hat * v_hat / (2.0 * a_min))


def gap_allowance(params: SimParams) -> float:
    """Largest stopping margin or bumper-gap shortfall the audits
    accept: the band tolerance plus one step of drift at top speed, the
    tightest bound a sampled-data controller can hold."""
    return params.eps_g + params.v_max * params.dt


def deadline_margin(p: float, v: float, t: float,
                    exit_pos: float, deadline: float) -> float:
    """Slack on reaching ``exit_pos`` by ``deadline`` at current speed.

    Negative while cruising at v covers the remaining distance in time;
    zero on the boundary; positive once the deadline cannot be met
    without accelerating.  ``Trajectory.physics`` calls it on numpy
    columns.
    """
    return (exit_pos - p) - (deadline - t) * v


def safe_interval(v: float, p_hat: float, v_hat: float,
                  pred_accel: float, params: SimParams
                  ) -> tuple[float, float, float, float]:
    """``(lo, hi, g, cap)``: the admissible acceleration interval from
    the speed box and the stopping envelope, the envelope margin and the
    acceleration cap it imposes.

    Under params that ``validate_params`` accepts, ``lo`` is ``a_min``,
    or ``0.0`` for an ego at the speed floor, and
    ``a_min <= lo <= min(0.0, hi)``: the interval is never empty, and
    braking at ``lo`` is always admissible.

    Nobody ahead is a predecessor infinitely far ahead and not closing:
    ``(p_hat, v_hat, pred_accel) = (-inf, 0.0, 0.0)``.  Since
    ``c2 > 0``, its wake discount and descent bound are exactly 0, ``g``
    is -inf and no cap binds, so every kernel treats it as it treats a
    far, non-closing predecessor.

    ``cap`` keeps the envelope margin from growing: it solves
    d(g)/dt <= -gamma * g for the ego acceleration, given the
    predecessor's commanded acceleration, or full braking under
    ``params.worst_case_pred_accel``.  This is the one reader of
    ``pred_accel``, so it owns the worst-case rule.  The raw bound is
    floored at ``a_min``: a discrete overshoot past the envelope can
    push it lower, but full braking is the strongest recovery physically
    available and never grows the margin.

    ``cap`` is inf where the envelope does not bind: for a pair that is
    not closing, for an ego at the speed floor, and with ``gamma == 0``
    outside the ``eps_g`` band.  With ``gamma > 0`` it binds every other
    closing pair, engaging smoothly ahead of the boundary.

    An ego at the floor may still close on a predecessor parked at the
    floor a little below it, by less than ``SPEED_EDGE_TOL``.  It cannot
    brake any further, and the cap, which divides by the ego's headroom
    above the floor, is undefined there.
    """
    v_min, a_min = params.v_min, params.a_min
    lo = a_min
    hi = params.a_max
    at_floor = v <= v_min + SPEED_EDGE_TOL
    if at_floor:
        lo = 0.0
    if v >= params.v_max - SPEED_EDGE_TOL:
        hi = 0.0
    g = stopping_margin(v, p_hat, v_hat, params)
    cap = INF
    if v_hat > 0.0 and not at_floor:
        gamma = params.gamma
        if g >= -params.eps_g or gamma > 0.0:
            if params.worst_case_pred_accel:
                pred_accel = a_min
            k = (v_min - v) / a_min
            r = v_hat - pred_accel * (v_min - v + v_hat) / a_min
            cap = (-gamma * g - r) / k
            if cap < a_min:
                cap = a_min
            if cap < hi:
                hi = cap
    return lo, hi, g, cap


def classify(v: float, v_hat: float, bound: float, deadline_active: bool,
             g: float, cap: float,
             params: SimParams) -> FeasibilityVerdict:
    """Feasibility verdict for the follower problem, in precedence order.
    The envelope binds a closing pair in the ``eps_g`` band or capped
    below zero."""
    if v <= params.v_min + SPEED_EDGE_TOL and bound < 0.0:
        return VERDICT_FLOOR_CONFLICT
    if bound < params.a_min:
        return VERDICT_BRAKE_CONFLICT
    if deadline_active and bound < 0.0:
        return VERDICT_DEADLINE_DRAG_CONFLICT
    if deadline_active and v_hat > 0.0 and (g >= -params.eps_g or cap < 0.0):
        return VERDICT_DEADLINE_SAFETY_CONFLICT
    return VERDICT_FEASIBLE


def follower_decision(v: float, p_hat: float, v_hat: float,
                      pred_accel: float, deadline_active: bool,
                      params: SimParams) -> Decision:
    """Full follower control decision.

    Returns (accel, verdict, lo, hi, g, cap, bound) where [lo, hi] is the
    final feasible interval (after any deadline relaxation), ``g`` the
    stopping-envelope margin, ``cap`` the envelope's acceleration cap
    (inf where it does not bind) and ``bound`` the drag-descent cap.

    The command is the feasible acceleration of least magnitude, which
    is ``hi`` or 0 since ``lo <= 0``.  When the constraint set is empty,
    the verdict explains why and the command falls back: drag-vs-deadline
    and box conflicts split and brake at ``lo``, as a head does, inside
    the envelope; an envelope-vs-deadline conflict drops the deadline
    and re-solves.
    """
    lo, hi_safe, g, cap = safe_interval(v, p_hat, v_hat, pred_accel, params)
    bound = flow_bound(v, p_hat, v_hat, params.drag)

    hi = hi_safe
    if bound < hi:
        hi = bound
    lo_full = 0.0 if deadline_active else lo

    verdict = VERDICT_FEASIBLE
    if lo_full <= hi:
        lo = lo_full
    else:
        verdict = classify(v, v_hat, bound, deadline_active, g, cap, params)
        if verdict == VERDICT_FEASIBLE:
            raise AssertionError("empty feasible interval with no verdict")
        if verdict != VERDICT_DEADLINE_SAFETY_CONFLICT:
            # Split triggers: brake at lo, envelope intact.
            return lo, verdict, lo, hi_safe, g, cap, bound
        # Drop the deadline and re-solve; the caller flips the mode.
    return hi if hi < 0.0 else 0.0, verdict, lo, hi, g, cap, bound


def leader_decision(v: float, p_hat: float, v_hat: float,
                    pred_accel: float, recovering: bool,
                    deadline_active: bool, params: SimParams) -> Decision:
    """Platoon-head control: brake to the floor, or accelerate to recover.

    Returns the tuple of ``follower_decision``.  The admissible interval
    is the speed box intersected with the envelope cap against the
    physical predecessor.  The verdict, which decides merges, classifies
    the head as a follower of that predecessor; with nobody ahead (see
    ``safe_interval``) it is FEASIBLE, with ``bound`` 0 and ``g`` -inf.
    """
    lo, hi, g, cap = safe_interval(v, p_hat, v_hat, pred_accel, params)
    accel = hi if recovering else lo
    bound = flow_bound(v, p_hat, v_hat, params.drag)
    return (accel, classify(v, v_hat, bound, deadline_active, g, cap, params),
            lo, hi, g, cap, bound)


def binding(accel, verdict, lo, cap, bound, v, deadline_active, follower,
            params: SimParams):
    """What holds a decision's command: one flag per name of ``ACTIVE``.

    It reads a decision's ``accel``, verdict, ``lo``, ``cap`` and
    ``bound``, the speed and deadline flag it was solved with, and
    whether the follower kernel solved it.  A speed edge holds a command
    at zero, the envelope at its cap; for followers only, the descent
    bound holds it at the bound and an armed deadline, not dropped, at
    zero.  Works on one solve's floats and on ``analysis.replay``'s
    columns alike; a nan command binds nothing.
    """
    held = accel == 0.0
    return (held & (lo == 0.0) & (v <= params.v_min + SPEED_EDGE_TOL),
            held & (v >= params.v_max - SPEED_EDGE_TOL),
            accel == cap,
            follower & (accel == bound),
            follower & deadline_active & held
            & (verdict != VERDICT_DEADLINE_SAFETY_CONFLICT))
