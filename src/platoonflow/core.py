"""Core state types and parameters for the highway platooning simulator.

Everything downstream (constraint evaluation, the per-vehicle controller,
the open-system engine) consumes the types defined here.  Parameters are
immutable; vehicle state is mutable and owned by the engine.

Units are SI throughout: metres, seconds, m/s, m/s^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Iterator


class VehicleMode(enum.Enum):
    """Role of a vehicle inside the platoon partition.

    FOLLOWER
        Solves the constrained minimum-effort problem against the vehicle
        physically ahead (drag descent, stopping envelope, deadline).
    LEADER
        Heads a platoon.  Brakes to the minimum speed and cruises there,
        creating a slow anchor that traffic behind can catch and draft.
    FOLLOWER_DEADLINE_RELAXED
        A follower whose deadline was dropped after it collided with the
        stopping-envelope constraint; otherwise behaves as FOLLOWER.
    LEADER_RECOVERING
        A relaxed follower promoted to the head of a platoon.  Applies
        maximum safe acceleration until its deadline is comfortably met,
        then becomes a plain LEADER.
    """

    FOLLOWER = "follower"
    LEADER = "leader"
    FOLLOWER_DEADLINE_RELAXED = "follower_relaxed"
    LEADER_RECOVERING = "leader_recovering"

    @property
    def is_head(self) -> bool:
        return self in (VehicleMode.LEADER, VehicleMode.LEADER_RECOVERING)

    @property
    def deadline_relaxed(self) -> bool:
        return self in (
            VehicleMode.FOLLOWER_DEADLINE_RELAXED,
            VehicleMode.LEADER_RECOVERING,
        )


@dataclass(frozen=True, slots=True)
class DragCoefficients:
    """Coefficients of the quadratic drag law with exponential wake relief.

    Solo vehicles see ``c0 * v**2``.  A vehicle a gap ``-p_hat`` behind its
    predecessor sees ``c0 * v**2 * (1 - c1 * exp(c2 * p_hat))``: the wake
    discount decays exponentially as the gap opens.
    """

    c0: float = 4.0e-4
    c1: float = 0.6
    c2: float = 0.08


@dataclass(frozen=True, slots=True)
class RoadNetwork:
    """Single-lane highway with fixed on-ramps and off-ramps."""

    length: float = 1750.0
    on_ramps: tuple[float, ...] = (100.0, 600.0, 1100.0)
    off_ramps: tuple[float, ...] = (500.0, 1000.0, 1500.0)

    def entry_points(self) -> tuple[float, ...]:
        """Road start plus every on-ramp, in road order."""
        return (0.0,) + self.on_ramps

    def exit_choices(self, entry: float) -> tuple[float, ...]:
        """Exit positions available to a vehicle entering at ``entry``.

        Off-ramps strictly beyond the entry point, plus the road end.
        """
        beyond = tuple(r for r in self.off_ramps if r > entry)
        return beyond + (self.length,)


@dataclass(frozen=True, slots=True)
class SimParams:
    """Every tunable constant of the model and engine.

    The activation tolerances deserve a note: ``eps_g`` is the band (in
    metres of stopping margin) inside which the envelope-derivative cap is
    imposed, ``eps_d`` the band (metres) inside which the deadline
    constraint is considered active, and ``eps_platoon`` the gap/speed
    tolerances used when reporting a pair as physically platooned.

    ``gamma`` scales the envelope approach: the derivative cap enforces
    d(margin)/dt <= -gamma * margin, which lets the cap engage smoothly
    ahead of the boundary instead of only inside the ``eps_g`` band.
    Setting ``gamma=0`` recovers the hard banded rule.

    ``worst_case_pred_accel`` ignores the communicated predecessor command
    and assumes full braking when evaluating the envelope cap.
    """

    v_min: float = 20.0
    v_max: float = 35.0
    a_min: float = -4.0
    a_max: float = 3.0
    delta: float = 5.0
    dt: float = 0.1
    duration: float = 140.0
    seed: int = 0
    eps_g: float = 0.01
    eps_d: float = 0.1
    eps_platoon_gap: float = 0.1
    eps_platoon_speed: float = 0.05
    gamma: float = 1.0
    worst_case_pred_accel: bool = False
    enforce_deadlines: bool = True
    drag: DragCoefficients = field(default_factory=DragCoefficients)
    road: RoadNetwork = field(default_factory=RoadNetwork)


@dataclass(slots=True)
class VehicleState:
    """Mutable per-vehicle state owned by the engine.

    ``accel`` is the last applied command; it is what neighbours read as
    the communicated value on the following step.  ``exit_pos`` is where
    the vehicle intends to leave the road and is the distance target of
    its deadline.

    ``last_solve`` is the engine's own: the binding, the kernel inputs
    and the ``(accel, verdict)`` of this vehicle's latest follower
    solve, which the engine reuses while all of them stand still (see
    ``sim._decide``).  It takes no part in comparison or ``repr``;
    ``None`` means there is nothing to reuse.
    """

    vid: int
    p: float
    v: float
    accel: float
    spawn_time: float
    deadline: float
    exit_pos: float
    mode: VehicleMode
    platoon_id: int
    last_solve: tuple | None = field(default=None, compare=False,
                                     repr=False)


class SimulationError(RuntimeError):
    """Base class for engine failures that indicate a bug, not an outcome."""


class OrderingError(SimulationError):
    """Vehicle positions stopped being strictly decreasing along the list."""


class SafetyAuditError(SimulationError):
    """A bumper gap shrank beyond the discretisation slack."""


def _numbers(params: SimParams) -> Iterator[tuple[str, float]]:
    """Every numeric setting with its dotted name, ramps one by one."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f.name, value
    for f in fields(params.drag):
        yield f"drag.{f.name}", getattr(params.drag, f.name)
    road = params.road
    yield "road.length", road.length
    for label, ramps in (("on_ramps", road.on_ramps),
                         ("off_ramps", road.off_ramps)):
        for r in ramps:
            yield f"road.{label}", r


def validate_params(params: SimParams) -> list[str]:
    """Check parameter sanity; returns a list of violations (empty if fine)."""
    bad: list[str] = []
    for name, value in _numbers(params):
        # nan slips through every comparison below; inf overflows the
        # step count.  An int is always finite (and may not fit a float).
        if isinstance(value, float) and not math.isfinite(value):
            bad.append(f"{name} must be finite, got {value}")
    if not 0.0 < params.v_min < params.v_max:
        bad.append("speed bounds must satisfy 0 < v_min < v_max")
    if not params.a_min < 0.0 < params.a_max:
        bad.append("acceleration bounds must satisfy a_min < 0 < a_max")
    if params.delta <= 0.0:
        bad.append("delta must be positive")
    if params.dt <= 0.0:
        bad.append("dt must be positive")
    if params.duration < 0.0:
        bad.append("duration must be non-negative")
    if params.seed < 0:
        bad.append("seed must be non-negative")
    for name in ("eps_g", "eps_d", "eps_platoon_gap", "eps_platoon_speed"):
        if getattr(params, name) <= 0.0:
            bad.append(f"{name} must be positive")
    if params.gamma < 0.0:
        bad.append("gamma must be non-negative")
    if params.drag.c0 <= 0.0:
        bad.append("drag.c0 must be positive")
    if not 0.0 <= params.drag.c1 < 1.0:
        # c1 < 1 keeps the wake discount strictly below full drag, so the
        # drag force and its speed partial stay positive at any gap.
        bad.append("drag.c1 must lie in [0, 1)")
    if params.drag.c2 <= 0.0:
        bad.append("drag.c2 must be positive")
    road = params.road
    if road.length <= 0.0:
        bad.append("road.length must be positive")
    for label, ramps in (("on_ramps", road.on_ramps), ("off_ramps", road.off_ramps)):
        if list(ramps) != sorted(ramps):
            bad.append(f"road.{label} must be sorted ascending")
        if any(not 0.0 < r < road.length for r in ramps):
            bad.append(f"road.{label} must lie strictly inside the road")
    return bad
