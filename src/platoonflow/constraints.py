"""Constraint evaluation: stopping envelope, deadline, feasible intervals.

The stopping-envelope margin answers one question: if the predecessor
brakes as hard as allowed down to the minimum speed and cruises there,
and this vehicle reacts the same way, does the bumper gap stay above
delta?  The margin is <= 0 exactly when it does.  Its time derivative is
linear in the ego acceleration, which gives the closed-form cap used in
the admissible interval.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import _kernels_py as kernels
from .core import SimParams

SPEED_EDGE_TOL = kernels.SPEED_EDGE_TOL


class FeasibilityVerdict(enum.Enum):
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
        return self in (
            FeasibilityVerdict.FLOOR_CONFLICT,
            FeasibilityVerdict.BRAKE_CONFLICT,
            FeasibilityVerdict.DEADLINE_DRAG_CONFLICT,
        )


SPLIT_CODES = frozenset(v.value for v in FeasibilityVerdict if v.splits)


@dataclass(frozen=True, slots=True)
class FeasibleInterval:
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def clamp_to_zero(self) -> float:
        """The element of least magnitude: the feasible value closest to 0."""
        if self.empty:
            raise ValueError("empty interval")
        return kernels._clamp_to_zero(self.lo, self.hi)


def stopping_margin(v: float, p_hat: float, v_hat: float,
                    params: SimParams) -> float:
    """Stopping-envelope margin; safe iff <= 0.  Implies gap >= delta."""
    return kernels.stopping_margin(v, p_hat, v_hat,
                                   params.v_min, params.a_min, params.delta)


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
    without accelerating.
    """
    return (exit_pos - p) - (deadline - t) * v


def safe_accel_interval(v: float, p_hat: float, v_hat: float,
                        pred_accel: float | None, has_pred: bool,
                        params: SimParams) -> FeasibleInterval:
    """Admissible accelerations from the speed box and stopping envelope.

    ``pred_accel`` is the predecessor's communicated command; pass None
    (or set ``params.worst_case_pred_accel``) to assume full braking.
    Never empty for engine-reachable states.
    """
    if pred_accel is None or params.worst_case_pred_accel:
        pred_accel = params.a_min
    lo, hi, _, _ = kernels.safe_interval(
        v, p_hat, v_hat, pred_accel, has_pred,
        params.v_min, params.v_max, params.a_min, params.a_max,
        params.delta, params.eps_g, params.gamma,
    )
    return FeasibleInterval(lo, hi)

