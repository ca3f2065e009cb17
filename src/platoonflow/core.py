"""Core state types and parameters for the highway platooning simulator.

Everything downstream (constraint evaluation, the per-vehicle controller,
the open-system engine) consumes the types defined here.  Parameters are
immutable; vehicle state is mutable and owned by the engine.

Units are SI throughout: metres, seconds, m/s, m/s^2.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, is_dataclass
from operator import attrgetter
from typing import Iterator, get_type_hints


class VehicleMode(enum.IntEnum):
    """Role of a vehicle inside the platoon partition.

    A mode's value is its code in the trajectory's ``mode`` column: bit
    0 marks a platoon head, bit 1 a relaxed deadline.  The engine stores
    only bit 1, as ``VehicleState.relaxed``: a vehicle heads a platoon
    when nobody directly ahead shares its platoon id.

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

    FOLLOWER = 0
    LEADER = 1
    FOLLOWER_DEADLINE_RELAXED = 2
    LEADER_RECOVERING = 3


@dataclass(frozen=True, slots=True)
class DragCoefficients:
    """The quadratic drag law with exponential wake relief.

    Solo vehicles see ``c0 * v**2``.  A vehicle a gap ``-p_hat`` behind its
    predecessor sees ``c0 * v**2 * (1 - c1 * exp(c2 * p_hat))``: the wake
    discount decays exponentially as the gap opens.  The controller needs
    no more than the force, its two partials and the descent bound they
    give, which the kernels ``drag_force``, ``drag_partials`` and
    ``flow_bound`` compute from these coefficients.  A run's law is its
    ``SimParams.drag``, fixed with the rest of its params.
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

    ``worst_case_pred_accel``: the kernels' ``safe_interval`` assumes
    full braking ahead in place of the communicated predecessor command.
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
    its deadline.  ``relaxed``, a dropped deadline, is the one bit of its
    ``VehicleMode`` it stores: the platoon ids say the other.

    The last four fields are the engine's own and take no part in
    comparison or ``repr``.  ``command``, ``verdict`` and
    ``control_mode`` are this step's decision (see ``sim._decide``):
    the command, the kernel's ``FeasibilityVerdict`` and the mode code
    that produced them, which the trajectory records.  ``last_solve`` holds
    the inputs and ``(accel, verdict)`` of the latest follower solve,
    reused while the inputs stand still; ``None`` means there is nothing
    to reuse.
    """

    vid: int
    p: float
    v: float
    accel: float
    deadline: float
    exit_pos: float
    platoon_id: int
    relaxed: bool = False
    command: float = field(default=0.0, compare=False, repr=False)
    verdict: int = field(default=0, compare=False, repr=False)
    control_mode: int | None = field(default=None, compare=False, repr=False)
    last_solve: tuple | None = field(default=None, compare=False,
                                     repr=False)


class SimulationError(RuntimeError):
    """Base class for engine failures that indicate a bug, not an outcome."""


class OrderingError(SimulationError):
    """Vehicle positions stopped being strictly decreasing along the list."""


class SafetyAuditError(SimulationError):
    """A bumper gap shrank beyond the discretisation slack."""


def _declared(cls: type, section: str = "") -> Iterator[tuple]:
    """``(dotted name, section, declared type)`` of every setting and
    section of ``cls``, each section before its own settings."""
    for name, kind in get_type_hints(cls).items():
        name = f"{section}.{name}" if section else name
        yield name, section, kind
        if is_dataclass(kind):
            yield from _declared(kind, name)


# The field annotations are the only statement of each setting's type.
_SETTINGS = tuple((name, section, kind, attrgetter(name))
                  for name, section, kind in _declared(SimParams))
_DECLARED = {name: kind for name, _, kind, _ in _SETTINGS}
_RAMPS = tuple[float, ...]

# The settings that must be above 0, and those that must not be below it.
_POSITIVE = ("delta", "dt", "eps_g", "eps_d", "eps_platoon_gap",
             "eps_platoon_speed", "drag.c0", "drag.c2", "road.length")
_NON_NEGATIVE = ("duration", "gamma", "seed")


def _shown(x: object) -> str:
    try:
        return repr(x)
    except ValueError:  # an int of over 4300 digits, or a list holding one
        return f"an object of type {type(x).__name__}"


def _fault(kind: type, x: object) -> str:
    """What keeps ``x`` from holding a setting declared as ``kind``, or ""
    if nothing does.  A float is finite (nan slips through every rule, and
    inf overflows the step count) or an int that fits one; an int is an
    ``Integral``; no bool is a number; a ramp tuple holds floats."""
    if kind is float:
        if isinstance(x, float):
            return "" if math.isfinite(x) else f"must be finite, got {x}"
        if isinstance(x, bool) or not isinstance(x, int):
            return f"must be a number, got {_shown(x)}"
        try:
            float(x)
        except OverflowError:
            return "must fit a float"
    elif kind is int:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            return f"must be an integer, got {_shown(x)}"
    elif kind == _RAMPS:
        if not isinstance(x, tuple):
            return f"must be a tuple, got {_shown(x)}"
        return next(filter(None, (_fault(float, r) for r in x)), "")
    elif not isinstance(x, kind):
        return f"must be a {kind.__name__}, got {_shown(x)}"
    return ""


def validate_params(params: SimParams) -> list[str]:
    """Check parameter sanity; returns a list of violations (empty if fine).
    A setting or section that breaks its type's rule (``_fault``) is
    reported, and the rules that read it, or a setting in it, skipped."""
    bad: list[str] = []
    setting: dict[str, object] = {}
    wrong: set[str] = set()
    for name, section, kind, read in _SETTINGS:
        if section in wrong:
            wrong.add(name)
        elif fault := _fault(kind, value := read(params)):
            bad.append(f"{name} {fault}")
            wrong.add(name)
        else:
            setting[name] = value
    ok = wrong.isdisjoint
    if ok(("v_min", "v_max")) and not 0.0 < params.v_min < params.v_max:
        bad.append("speed bounds must satisfy 0 < v_min < v_max")
    if ok(("a_min", "a_max")) and not params.a_min < 0.0 < params.a_max:
        bad.append("acceleration bounds must satisfy a_min < 0 < a_max")
    if ok(("a_min", "dt", "v_min")) and params.dt > 0.0 \
            and params.v_min > 0.0 \
            and params.a_min * params.dt < -2.0 * params.v_min:
        # Position moves under the raw command, so from just above v_min
        # one step at a_min would move a vehicle backwards.  The exact
        # kinematics of ROADMAP item 2 may lift this rule.
        bad.append("a_min * dt must be at least -2 * v_min, or one step "
                   "of braking moves a vehicle backwards")
    for name in _POSITIVE:
        if name not in wrong and setting[name] <= 0.0:
            bad.append(f"{name} must be positive")
    for name in _NON_NEGATIVE:
        if name not in wrong and setting[name] < 0.0:
            bad.append(f"{name} must be non-negative")
    if ok(("dt", "duration")) and params.dt > 0.0:
        # Each finite alone, the two can still overflow the step count or
        # pass 2**53 steps, past which a float64 clock stops counting.
        steps = params.duration / params.dt
        if not math.isfinite(steps):
            bad.append(f"duration / dt must be finite, got {steps}")
        elif steps > 2.0 ** 53:
            bad.append(f"duration / dt must be at most 2**53, got {steps}")
    if ok(("drag.c1",)) and not 0.0 <= params.drag.c1 < 1.0:
        # c1 < 1 keeps the wake discount strictly below full drag, so the
        # drag force and its speed partial stay positive at any gap.
        bad.append("drag.c1 must lie in [0, 1)")
    for name in ("road.on_ramps", "road.off_ramps"):
        if name in wrong:
            continue
        ramps = setting[name]
        if any(a >= b for a, b in zip(ramps, ramps[1:])):
            # A repeated ramp would be drawn twice as often as the others.
            repeated = sorted({r for r in ramps if ramps.count(r) > 1})
            bad.append(f"{name} must be strictly ascending" + "".join(
                f"; {r:g} is repeated" for r in repeated))
        if ok(("road.length",)) and any(
                not 0.0 < r < params.road.length for r in ramps):
            bad.append(f"{name} must lie strictly inside the road")
    return bad
