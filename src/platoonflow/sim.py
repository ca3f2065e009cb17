"""Open-system highway engine: spawning, stepping, resequencing, exits.

A world's ``params``, and with them its drag law ``params.drag``, are
fixed when ``WorldState.initial`` builds it: they are its trajectory's
``params``, which its physics is computed under and which every phase of
``step(world)`` reads through ``world.params``.

One step covers the interval [t, t + dt).  ``step`` runs the phases
named in ``PHASES``, in order, each as ``phase(world, stamp)``:

1. ``_decide``: control decisions for every vehicle, all read from the
   frozen pre-step state (predecessor accelerations are the previous
   commands).  A follower whose kernel inputs are those of its own
   previous follower solve reuses that solve's command and verdict
   instead of calling the kernel again: the kernel is a pure function
   of them, so the reuse is exact (platoons at equilibrium repeat their
   inputs step after step);
2. ``_integrate``: integration by ``_kernels_py.advance``: each
   vehicle's position moves by ``v*dt + a*dt**2/2`` under its raw
   command, and its speed by ``a*dt``, projected onto the speed box;
3. ``_process_exits``: exit removal (a vehicle leaves at its drawn exit
   position);
4. ``_audit``: ordering and bumper-gap audits (failures are engine
   bugs, not model outcomes, and raise);
5. ``resequence``: splits, then each vehicle's relaxed flag by its
   rule, then merges;
6. ``try_spawn``: spawn attempts due under the single arrival process;
7. ``_record``: trajectory records, the state columns of
   ``world.trajectory`` (ids, position, speed, command, mode).  The
   physics a reader may want besides (drag, actuator effort, stopping
   and deadline margins) is not stored: ``Trajectory.physics`` computes
   it from the stored state on each read, with the vehicles' exit
   positions and deadlines that the engine registers once when it
   places or spawns a vehicle.

A vehicle heads a platoon when nobody directly ahead shares its platoon
id; it stores only its relaxed flag (see ``core.VehicleMode``).
Each vehicle carries its own decision: the decide pass leaves it on
``VehicleState.command``, ``verdict`` and ``control_mode``, where the
later phases read it; no object is built per vehicle and step.

All emitted records and events are stamped with the post-step clock:
whatever happens while processing a step takes effect at its end.  An
event's ``facts`` are numbers, formatted only by ``cli``: spawn ``(entry,
exit_pos, v0)``, discard ``(entry, v0)``, exit ``(exit_pos,)``, split
and merge ``(old_platoon, new_platoon)``, relax and recover ``(margin,)``.

The random stream is consumed in a fixed order per spawn attempt
(delay, entry point, speed, exit choice, then the deadline for accepted
candidates only), so runs are reproducible byte for byte per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels_py as kernels
from ._kernels_py import deadline_margin, gap_allowance, stopping_margin
from .core import (
    OrderingError,
    SafetyAuditError,
    SimParams,
    VehicleMode,
    VehicleState,
    _fault,
    validate_params,
)
from .trajectory import Trajectory

NEAR_RANGE = 100.0  # on-ramp predecessor distance that caps the entry speed

EVENT_SPAWN = "spawn"
EVENT_DISCARD = "discard"
EVENT_EXIT = "exit"
EVENT_SPLIT = "split"
EVENT_MERGE = "merge"
EVENT_RELAX = "deadline_relax"
EVENT_RECOVER = "deadline_recover"

# The phases of a step, in the order ``step`` runs them, each looked up
# by name in this module's namespace.
PHASES = ("_decide", "_integrate", "_process_exits", "_audit", "resequence",
          "try_spawn", "_record")
_NAMESPACE = globals()


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    kind: str
    vehicle_id: int
    facts: tuple


@dataclass(slots=True)
class WorldState:
    """Complete mutable engine state.

    ``vehicles`` is ordered front to back: positions strictly decrease
    with list index, and platoons are contiguous runs of ``platoon_id``.
    ``next_spawn`` is the due time of the single arrival process, inf
    in a world that spawns nothing.
    ``trajectory`` holds the run's ``params``, computes its physics under
    them, and knows the exit and deadline of every vehicle placed by
    ``insert_vehicle`` or the spawn path.
    """

    t: float
    vehicles: list[VehicleState]
    rng: np.random.Generator
    next_spawn: float
    next_vehicle_id: int
    next_platoon_id: int
    trajectory: Trajectory
    events: list[Event] = field(default_factory=list)

    @property
    def params(self) -> SimParams:
        """Every constant of the run, its drag law included; read-only."""
        return self.trajectory.params

    @classmethod
    def initial(cls, params: SimParams, *, spawning: bool = True
                ) -> "WorldState":
        """An empty world at t=0, with no arrival ever due unless
        ``spawning``; ``ValueError`` lists what ``validate_params`` finds
        wrong with ``params``."""
        problems = validate_params(params)
        if problems:
            raise ValueError("; ".join(problems))
        return cls(
            t=0.0,
            vehicles=[],
            rng=np.random.default_rng(params.seed),
            next_spawn=0.0 if spawning else math.inf,
            next_vehicle_id=0,
            next_platoon_id=0,
            trajectory=Trajectory(params),
        )


@dataclass(frozen=True, slots=True)
class SimResult:
    trajectory: Trajectory
    events: list[Event]


def insert_vehicle(world: WorldState, p: float, v: float, *,
                   exit_pos: float, deadline: float,
                   mode: VehicleMode | None = None) -> VehicleState:
    """Place a vehicle directly; harness entry point, not the spawn path.

    The vehicle is slotted by position.  Without an explicit mode it
    follows the vehicle ahead or heads a platoon when the road ahead is
    empty.  A head mode starts a fresh platoon, which the rest of a
    platoon it cuts into follows; a follower mode joins the platoon of
    the vehicle ahead.  ``ValueError`` refuses a position, exit or
    deadline that is not finite, an exit at or behind ``p``, a deadline
    at or before ``world.t``, a mode that is no ``VehicleMode`` code (a
    bool or a float is none), a follower with none ahead, a position
    taken, a gap under ``delta`` to the vehicle ahead or behind (exactly
    ``delta`` is placeable), and a speed outside ``[v_min, v_max]``.
    """
    for name, x in (("p", p), ("exit_pos", exit_pos), ("deadline", deadline)):
        if not math.isfinite(x):
            raise ValueError(f"{name}={x} is not finite")
    if exit_pos <= p:
        raise ValueError(f"exit_pos={exit_pos:g} is not ahead of p={p:g}")
    if deadline <= world.t:
        raise ValueError(f"deadline={deadline:g} is not after t={world.t:g}")
    if mode is not None:
        if fault := _fault(int, mode):
            raise ValueError(f"mode {fault}")
        mode = VehicleMode(mode)
    idx, ahead, behind = _slot(world, p)
    delta = world.params.delta
    if ahead is None and mode is not None and not mode & 1:
        raise ValueError(f"a {mode.name} at p={p:g} has no vehicle ahead")
    if ahead is not None and ahead.p == p:
        raise ValueError(f"vehicle {ahead.vid} already holds p={p:g}")
    if ahead is not None and p > ahead.p - delta:
        raise ValueError(f"p={p:g} lies {ahead.p - p:g} m behind vehicle "
                         f"{ahead.vid}, under delta={delta:g}")
    if behind is not None and behind.p > p - delta:
        raise ValueError(f"p={p:g} lies {p - behind.p:g} m ahead of vehicle "
                         f"{behind.vid}, under delta={delta:g}")
    if not world.params.v_min <= v <= world.params.v_max:
        raise ValueError(f"v={v:g} lies outside the speed box")
    return _place(world, idx, ahead, p, v, exit_pos, deadline, mode)


def _slot(world: WorldState, p: float
          ) -> tuple[int, VehicleState | None, VehicleState | None]:
    """List index a vehicle at position ``p`` slots into, behind every
    vehicle at or ahead of ``p``, and the vehicles it would then have
    directly ahead of and behind it (None for none)."""
    vehicles = world.vehicles
    idx = 0
    while idx < len(vehicles) and vehicles[idx].p >= p:
        idx += 1
    return (idx, vehicles[idx - 1] if idx else None,
            vehicles[idx] if idx < len(vehicles) else None)


def _place(world: WorldState, idx: int, ahead: VehicleState | None,
           p: float, v: float, exit_pos: float, deadline: float,
           mode: VehicleMode | None = None) -> VehicleState:
    """Insert a fresh vehicle in ``mode`` at ``_slot``'s ``idx``, behind
    its ``ahead``, with the next id and register its exit and deadline."""
    vehicles = world.vehicles
    if mode is None:
        mode = VehicleMode.FOLLOWER if ahead is not None else VehicleMode.LEADER
    veh = VehicleState(
        vid=world.next_vehicle_id, p=p, v=v, accel=0.0, deadline=deadline,
        exit_pos=exit_pos, relaxed=mode > 1, control_mode=mode,
        verdict=kernels.VERDICT_FEASIBLE,
        platoon_id=(world.next_platoon_id if ahead is None
                    else ahead.platoon_id),
    )
    world.next_vehicle_id += 1
    vehicles.insert(idx, veh)
    if ahead is None or mode & 1:
        # A fresh platoon; a head placed inside one splits it there, as
        # resequencing would, and heads the vehicles behind it.
        _relabel(vehicles, idx, world.next_platoon_id)
        world.next_platoon_id += 1
    world.trajectory.register(veh.vid, exit_pos, deadline)
    return veh


def draw_deadline(rng: np.random.Generator, p0: float, v0: float,
                  exit_pos: float, t0: float, params: SimParams) -> float:
    """Arrival deadline drawn between free-flow and floor-speed travel time.

    The lower end is reachable only by holding the entry speed the whole
    way, so a fresh vehicle always starts with non-positive deadline
    margin.
    """
    dist = exit_pos - p0
    return t0 + rng.uniform(dist / v0, dist / params.v_min)


def _decide(world: WorldState, stamp: float) -> None:
    """Control decisions for all vehicles from the frozen pre-step state.

    Walking front to back, the pass reads each vehicle's role from the
    platoon ids: it heads a platoon when nobody directly ahead shares
    its id.  Followers run the follower kernel; heads run the leader
    kernel, whose verdict against their physical predecessor decides
    merges.  The front head has none, and passes the kernels'
    predecessor infinitely far ahead (see ``kernels.safe_interval``).
    The kernels read every constant from ``world.params``, and apply the
    worst-case predecessor rule themselves.  The decision goes onto
    each vehicle's ``command``, ``verdict`` and ``control_mode``, the
    ``VehicleMode`` code of its role and relaxed flag; the state the
    pass reads (``p``, ``v``, ``accel``, ``platoon_id``, ``relaxed``)
    stays as it was, so a follower reads its predecessor's ``accel`` as
    the previous command and deciding twice gives the same result.

    A follower's kernel result is a pure function of its inputs ``(v,
    p_hat, v_hat, pred_accel, deadline_active)`` under the world's fixed
    params, so a follower whose inputs compare equal to those of its
    stored ``last_solve`` (the deadline flag, a bool, by identity) takes
    that solve's ``(accel, verdict)`` without calling the kernel (the
    raw predecessor command is compared, even where the kernel ignores
    it).  Float ``==`` is exact here, not just close:

    - ``v >= v_min > 0`` and ``p_hat < 0`` strictly, as placement,
      integration and the ordering audit ensure, so neither is a signed zero;
    - ``v_hat = v - pred.v`` is ``+0.0`` whenever it is zero;
    - no NaN reaches the kernel (``validate_params`` rejects it, and the
      state is built from finite values);
    - ``pred_accel`` may be ``0.0`` or ``-0.0``, which compare equal.  It
      enters the kernel only through ``safe_interval``'s cap and only when
      ``v_hat > 0``, where ``v_hat - pred_accel * x / a_min`` is exactly
      ``v_hat`` for either zero (or under the worst-case rule not at
      all), so both give the same result bit for bit.

    Heads are always solved.  Over default seeds 0-4, 6,209 of 31,620
    head solves (19.6%) repeat their previous inputs, mostly the front
    head at the floor, yet a reuse rule for both roles, bit-identical on
    10 configs, ran at 0.97x the speed on default and 0.87x on dense.
    """
    params = world.params
    t = world.t
    neg_eps_d = -params.eps_d
    enforce = params.enforce_deadlines
    follower = kernels.follower_decision
    leader = kernels.leader_decision

    pred = None
    for veh in world.vehicles:
        relaxed = veh.relaxed
        v = veh.v
        deadline_active = (enforce and not relaxed
                           and deadline_margin(veh.p, v, t, veh.exit_pos,
                                               veh.deadline) >= neg_eps_d)
        if pred is None:
            head = True
            p_hat, v_hat, pred_accel = -math.inf, 0.0, 0.0
        else:
            head = pred.platoon_id != veh.platoon_id
            p_hat = veh.p - pred.p
            v_hat = v - pred.v
            pred_accel = pred.accel
        if head:
            mode = 3 if relaxed else 1
            accel, code, _, _, _, _, _ = leader(
                v, p_hat, v_hat, pred_accel, relaxed, deadline_active,
                params)
        else:
            mode = 2 if relaxed else 0
            last = veh.last_solve
            if (last is not None and last[0] == v and last[1] == p_hat
                    and last[2] == v_hat and last[3] == pred_accel
                    and last[4] is deadline_active):
                accel = last[5]
                code = last[6]
            else:
                accel, code, _, _, _, _, _ = follower(
                    v, p_hat, v_hat, pred_accel, deadline_active, params)
                veh.last_solve = (v, p_hat, v_hat, pred_accel,
                                  deadline_active, accel, code)
        veh.command, veh.verdict, veh.control_mode = accel, code, mode
        pred = veh


def _integrate(world: WorldState, stamp: float) -> None:
    params = world.params
    advance = kernels.advance
    for veh in world.vehicles:
        a = veh.command
        veh.p, veh.v = advance(veh.p, veh.v, a, params)
        veh.accel = a


def _process_exits(world: WorldState, stamp: float) -> None:
    """Remove vehicles past their exit."""
    vehicles = world.vehicles
    gone = [i for i, veh in enumerate(vehicles) if veh.p >= veh.exit_pos]
    for i in gone:
        veh = vehicles[i]
        world.events.append(Event(stamp, EVENT_EXIT, veh.vid, (veh.exit_pos,)))
    for i in reversed(gone):
        del vehicles[i]


def _audit(world: WorldState, stamp: float) -> None:
    params = world.params
    # One step of drift at top speed is legitimate discretisation slack
    # (the final closing step shrinks the gap with the pre-step relative
    # speed); anything past it is an engine bug.
    slack = gap_allowance(params)
    delta = params.delta
    vehicles = world.vehicles
    # Pairs front to back: the front-most bad pair raises.
    for ahead, veh in zip(vehicles, vehicles[1:]):
        if veh.p >= ahead.p:
            raise OrderingError(
                f"t={stamp:.3f}: vehicle {veh.vid} at p={veh.p:.6f} "
                f"reached vehicle {ahead.vid} at p={ahead.p:.6f}"
            )
        shortfall = (veh.p - ahead.p) + delta
        if shortfall > slack:
            raise SafetyAuditError(
                f"t={stamp:.3f}: gap between {ahead.vid} and {veh.vid} "
                f"is {delta - shortfall:.6f} m, required "
                f"{delta:g} m within {slack:.6f}"
            )


def _relabel(vehicles: list[VehicleState], i: int, new: int) -> int:
    """Move the run of vehicles that share ``vehicles[i]``'s platoon id,
    from index ``i`` back, to platoon ``new``; return the old id."""
    old = vehicles[i].platoon_id
    j = i
    while j < len(vehicles) and vehicles[j].platoon_id == old:
        vehicles[j].platoon_id = new
        j += 1
    return old


def resequence(world: WorldState, stamp: float) -> None:
    """Apply splits, deadline relaxations and merges for this step.

    Every rule reads the ``control_mode`` that produced a vehicle's
    command.  Splits act on this step's follower verdicts; merges act on
    heads whose against-predecessor classification came back feasible,
    so heads promoted only this step sit out the merge test.  A split
    gives its vehicle and those behind it a new platoon id, which makes
    the vehicle a head.

    The relaxed flag is set by a ``FOLLOWER``'s deadline-safety conflict
    and cleared once a ``LEADER_RECOVERING`` head's deadline margin is
    at most ``-eps_d``; every other mode keeps it.  A ``deadline_relax``
    event marks it turning on, a ``deadline_recover`` event turning off;
    they follow the step's split events, although one pass front to back
    applies both.  That pass skips a feasible vehicle in any mode but
    ``LEADER_RECOVERING``: it neither splits nor flips.  It also notes
    each feasible head behind the front vehicle, and the merge pass then
    joins those heads, front to back, to the platoon ahead and clears
    their flags: each is a plain ``FOLLOWER``.
    """
    vehicles = world.vehicles
    neg_eps_d = -world.params.eps_d
    splits = kernels.SPLITS
    conflict = kernels.VERDICT_DEADLINE_SAFETY_CONFLICT
    feasible = kernels.VERDICT_FEASIBLE
    flips = []
    merging = []
    for i, veh in enumerate(vehicles):
        mode = veh.control_mode
        verdict = veh.verdict
        if verdict == feasible:
            if mode & 1 and i:
                merging.append(i)
            if mode != 3:
                continue
        if verdict in splits and not mode & 1:
            new = world.next_platoon_id
            world.next_platoon_id += 1
            old = _relabel(vehicles, i, new)
            world.events.append(Event(stamp, EVENT_SPLIT, veh.vid,
                                      (old, new)))
        if mode == 3 or mode == 0 and verdict == conflict:
            margin = deadline_margin(veh.p, veh.v, stamp,
                                     veh.exit_pos, veh.deadline)
            if mode == 0:
                veh.relaxed = True
                flips.append(Event(stamp, EVENT_RELAX, veh.vid, (margin,)))
            elif margin <= neg_eps_d:
                veh.relaxed = False
                flips.append(Event(stamp, EVENT_RECOVER, veh.vid,
                                   (margin,)))
    world.events += flips

    for i in merging:
        veh = vehicles[i]
        target = vehicles[i - 1].platoon_id
        old = _relabel(vehicles, i, target)
        # Merging re-arms the deadline even for a recovering head: if it
        # still cannot be met the next solve routes through a fresh
        # conflict instead of resuming the recovery burst, which is what
        # keeps a hopeless deadline from ratcheting a vehicle into the
        # gap ahead one burst at a time.
        veh.relaxed = False
        world.events.append(Event(stamp, EVENT_MERGE, veh.vid,
                                  (old, target)))


def try_spawn(world: WorldState, stamp: float) -> None:
    """Process every due arrival of the single spawn process.

    A candidate is discarded when inserting it would violate the
    stopping envelope for itself or for the vehicle it would cut off;
    discarded arrivals consume no vehicle id and no deadline draw.
    """
    due = world.t + 1e-9
    if world.next_spawn > due:
        return
    params = world.params
    road = params.road
    entries = road.entry_points()
    while world.next_spawn <= due:
        rng = world.rng
        delay = float(rng.uniform(0.5, 1.5))
        world.next_spawn = world.next_spawn + delay
        entry = entries[int(rng.integers(0, len(entries)))]

        idx, ahead, behind = _slot(world, entry)

        if entry > 0.0 and ahead is not None and ahead.p - entry <= NEAR_RANGE:
            v0 = float(rng.uniform(params.v_min, min(params.v_max, ahead.v)))
        else:
            v0 = float(rng.uniform(params.v_min, params.v_max))

        choices = road.exit_choices(entry)
        exit_pos = choices[int(rng.integers(0, len(choices)))]

        ok = True
        if ahead is not None:
            g = stopping_margin(v0, entry - ahead.p, v0 - ahead.v, params)
            ok = g <= 0.0
        if ok and behind is not None:
            g = stopping_margin(behind.v, behind.p - entry,
                                behind.v - v0, params)
            ok = g <= 0.0
        if not ok:
            world.events.append(Event(stamp, EVENT_DISCARD, -1, (entry, v0)))
            continue

        t_f = draw_deadline(rng, entry, v0, exit_pos, stamp, params)
        veh = _place(world, idx, ahead, entry, v0, exit_pos, t_f)
        world.events.append(Event(stamp, EVENT_SPAWN, veh.vid,
                                  (entry, exit_pos, v0)))


def _record(world: WorldState, stamp: float) -> None:
    """Append the post-step state to the trajectory columns, each
    vehicle in the mode that produced its command."""
    vehicles = world.vehicles
    if not vehicles:
        return
    world.trajectory.append_step(
        stamp,
        [veh.vid for veh in vehicles],
        [veh.platoon_id for veh in vehicles],
        [veh.p for veh in vehicles],
        [veh.v for veh in vehicles],
        [veh.accel for veh in vehicles],
        [veh.control_mode for veh in vehicles],
    )


def step(world: WorldState) -> None:
    """Advance the world by one control period."""
    stamp = world.t + world.params.dt
    # Looked up at call time: a rebound module attribute (a tracer's
    # wrap, a test's monkeypatch) is what runs.
    for name in PHASES:
        _NAMESPACE[name](world, stamp)
    world.t = stamp


def run(params: SimParams, *, world: WorldState | None = None) -> SimResult:
    """Run a full simulation and return its trajectory and events.

    A pre-built world (e.g. with seeded vehicles or spawning disabled)
    may be passed in, built from these very ``params`` (``ValueError``
    otherwise); without one an empty world is created from them.
    """
    if world is None:
        world = WorldState.initial(params)
    elif world.params != params:
        raise ValueError("world was built from other params than the run's")
    n_steps = round(params.duration / params.dt)
    for _ in range(n_steps):
        step(world)
    return SimResult(trajectory=world.trajectory, events=world.events)
