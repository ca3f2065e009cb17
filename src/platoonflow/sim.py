"""Open-system highway engine: spawning, stepping, resequencing, exits.

One step covers the interval [t, t + dt):

1. control decisions for every vehicle, all read from the frozen
   pre-step state (predecessor accelerations are the previous commands).
   A follower whose kernel inputs and binding are those of its own
   previous follower solve reuses that solve's command and verdict
   instead of calling the kernel again: the kernel is a pure function of
   them, so the reuse is exact (platoons at equilibrium repeat their
   inputs step after step);
2. explicit Euler integration with speed projection onto the box;
3. exit removal (a vehicle leaves at its drawn exit position);
4. ordering and bumper-gap audits (failures are engine bugs, not model
   outcomes, and raise);
5. resequencing: splits, mode transitions, merges;
6. spawn attempts due under the single arrival process;
7. trajectory records: the state columns of ``world.trajectory`` (ids,
   position, speed, command, mode).  The physics a reader may want
   besides (drag, actuator effort, stopping and deadline margins) is
   not computed here: the trajectory derives it from the stored state
   on its first read, with the vehicles' exit positions and deadlines
   that the engine registers once when it places or spawns a vehicle.

Phases pass plain per-vehicle tuples (see ``Decision``) and kernel
results between them; no object is built per vehicle and step.

All emitted records and events are stamped with the post-step clock:
whatever happens while processing a step takes effect at its end.

The random stream is consumed in a fixed order per spawn attempt
(delay, entry point, speed, exit choice, then the deadline for accepted
candidates only), so runs are reproducible byte for byte per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._backend import kernels
from .constraints import SPLIT_CODES, deadline_margin, stopping_margin
from .controller import KEEPS_MODE, Solves, bind, merge_verdict, next_mode
from .core import (
    OrderingError,
    SafetyAuditError,
    SimParams,
    VehicleMode,
    VehicleState,
)
from .drag import DragLaw, ExponentialWakeDrag
from .trajectory import MODE_CODES, MODES, Trajectory
from .trajectory import TrajectoryRecord  # noqa: F401  (re-exported)

NEAR_RANGE = 100.0  # on-ramp predecessor distance that caps the entry speed

EVENT_SPAWN = "spawn"
EVENT_DISCARD = "discard"
EVENT_EXIT = "exit"
EVENT_SPLIT = "split"
EVENT_MERGE = "merge"
EVENT_RELAX = "deadline_relax"
EVENT_RECOVER = "deadline_recover"


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    kind: str
    vehicle_id: int
    detail: str


@dataclass(slots=True)
class WorldState:
    """Complete mutable engine state.

    ``vehicles`` is ordered front to back: positions strictly decrease
    with list index, and platoons are contiguous runs of ``platoon_id``.
    ``next_spawn`` is the due time of the single arrival process.
    ``trajectory`` knows the exit and deadline of every vehicle placed
    by ``insert_vehicle`` or the spawn path.  ``solves`` is the binding
    the last step decided under (see ``_decide``); None before the
    first step.
    """

    params: SimParams
    t: float
    vehicles: list[VehicleState]
    rng: np.random.Generator
    next_spawn: float
    next_vehicle_id: int
    next_platoon_id: int
    spawning: bool
    drag_law: DragLaw
    events: list[Event] = field(default_factory=list)
    trajectory: Trajectory = field(default_factory=Trajectory)
    counters: dict[str, int] = field(default_factory=dict)
    solves: Solves | None = field(default=None, repr=False)

    @classmethod
    def initial(cls, params: SimParams, *, spawning: bool = True,
                drag_law: DragLaw | None = None) -> "WorldState":
        return cls(
            params=params,
            t=0.0,
            vehicles=[],
            rng=np.random.default_rng(params.seed),
            next_spawn=0.0,
            next_vehicle_id=0,
            next_platoon_id=0,
            spawning=spawning,
            drag_law=drag_law or ExponentialWakeDrag(params.drag),
            counters={
                "spawned": 0,
                "discarded": 0,
                "exited": 0,
                "splits": 0,
                "merges": 0,
                "relaxations": 0,
                "recoveries": 0,
                "peak_vehicles": 0,
            },
        )


@dataclass(frozen=True, slots=True)
class SimResult:
    trajectory: Trajectory
    events: list[Event]
    metrics: dict[str, int]


def insert_vehicle(world: WorldState, p: float, v: float, *,
                   exit_pos: float, deadline: float,
                   mode: VehicleMode | None = None,
                   platoon_id: int | None = None) -> VehicleState:
    """Place a vehicle directly; harness entry point, not the spawn path.

    The vehicle is slotted by position.  Without an explicit mode it
    follows the vehicle ahead (joining its platoon) or heads a fresh
    platoon when the road ahead is empty.
    """
    idx = 0
    while idx < len(world.vehicles) and world.vehicles[idx].p >= p:
        idx += 1
    ahead = world.vehicles[idx - 1] if idx > 0 else None
    if platoon_id is None:
        if ahead is not None and mode is None:
            platoon_id = ahead.platoon_id
        else:
            platoon_id = world.next_platoon_id
            world.next_platoon_id += 1
    if mode is None:
        mode = VehicleMode.FOLLOWER if ahead is not None else VehicleMode.LEADER
    veh = VehicleState(
        vid=world.next_vehicle_id, p=p, v=v, accel=0.0,
        spawn_time=world.t, deadline=deadline, exit_pos=exit_pos,
        mode=mode, platoon_id=platoon_id,
    )
    world.next_vehicle_id += 1
    world.vehicles.insert(idx, veh)
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


# What ``_decide`` hands the later phases, one entry per vehicle in
# ``world.vehicles`` order: (command, verdict code, mode code at control,
# heads a platoon).  Mode codes index ``trajectory.MODES``.
Decision = tuple[float, int, int, bool]


def _decide(world: WorldState, params: SimParams) -> list[Decision]:
    """Control decisions for all vehicles from the frozen pre-step state.

    Followers run the follower kernel; heads run the leader kernel and
    classify themselves against their physical predecessor, which
    decides merges.  ``controller.bind`` resolves the drag law and the
    constants once for the step.

    A follower's kernel result is a pure function of its inputs ``(v,
    p_hat, v_hat, pred_accel, deadline_active)`` and the binding, so a
    follower whose inputs compare equal to those of its stored
    ``last_solve`` (the deadline flag, a bool, by identity), under the
    very same binding object, takes that solve's ``(accel, verdict)``
    without calling the kernel.  The binding is carried over from the
    last step while it compares equal (``world.solves``), so a swapped
    drag law, other ``params`` or a kernel rebound at run time all
    start afresh; a law the kernels do not implement binds a fresh
    closure every step and never reuses.  Float ``==`` is exact here,
    not just close:

    - ``v >= v_min > 0``, and ``p_hat < 0`` strictly once the ordering
      audit has run, so neither is a signed zero;
    - ``v_hat = v - pred.v`` is ``+0.0`` whenever it is zero;
    - no NaN reaches the kernel (``validate_params`` rejects it, and the
      state is built from finite values);
    - ``pred_accel`` may be ``0.0`` or ``-0.0``, which compare equal.  It
      enters the kernel only through ``envelope_cap`` and only when
      ``v_hat > 0``, where ``v_hat - pred_accel * x / a_min`` is exactly
      ``v_hat`` for either zero, so both give the same result bit for
      bit.

    Heads are always solved: their inputs seldom repeat.
    """
    t = world.t
    neg_eps_d = -params.eps_d
    enforce = params.enforce_deadlines
    solves = bind(params, world.drag_law)
    if solves != world.solves:
        world.solves = solves
    solves = world.solves
    (follower, _, worst_pred, v_min, v_max, a_min, a_max, delta, eps_g,
     gamma, c0, c1, c2) = solves
    leader = kernels.leader_decision

    decisions: list[Decision] = []
    append = decisions.append
    pred = None
    for veh in world.vehicles:
        # bit 0 of the mode code: heads a platoon; bit 1: deadline relaxed
        mcode = MODES.index(veh.mode)
        v = veh.v
        deadline_active = (enforce and mcode < 2
                           and deadline_margin(veh.p, v, t, veh.exit_pos,
                                               veh.deadline) >= neg_eps_d)
        if pred is None:
            if not mcode & 1:
                raise OrderingError(
                    f"follower {veh.vid} has no predecessor at t={t:.3f}"
                )
            accel = leader(v, veh.p, v, a_min, False, mcode == 3, v_min,
                           v_max, a_min, a_max, delta, eps_g, gamma)[0]
            append((accel, kernels.VERDICT_FEASIBLE, mcode, True))
            pred = veh
            continue
        p_hat = veh.p - pred.p
        v_hat = v - pred.v
        pred_accel = pred.accel if worst_pred is None else worst_pred
        if mcode & 1:
            accel, _, hi, g = leader(v, p_hat, v_hat, pred_accel, True,
                                     mcode == 3, v_min, v_max, a_min, a_max,
                                     delta, eps_g, gamma)
            code = merge_verdict(v, p_hat, v_hat, g, hi, deadline_active,
                                 solves)[0]
        else:
            last = veh.last_solve
            if (last is not None and last[0] is solves and last[1] == v
                    and last[2] == p_hat and last[3] == v_hat
                    and last[4] == pred_accel
                    and last[5] is deadline_active):
                accel = last[6]
                code = last[7]
            else:
                accel, code, _, _, _, _, _ = follower(
                    v, p_hat, v_hat, pred_accel, deadline_active, v_min,
                    v_max, a_min, a_max, delta, eps_g, gamma, c0, c1, c2)
                veh.last_solve = (solves, v, p_hat, v_hat, pred_accel,
                                  deadline_active, accel, code)
        append((accel, code, mcode, pred.platoon_id != veh.platoon_id))
        pred = veh
    return decisions


def _integrate(world: WorldState, params: SimParams,
               decisions: list[Decision]) -> None:
    dt = params.dt
    v_min, v_max = params.v_min, params.v_max
    for veh, dec in zip(world.vehicles, decisions):
        a = dec[0]
        veh.p = veh.p + veh.v * dt + 0.5 * a * dt * dt
        v_new = veh.v + a * dt
        if v_new < v_min:
            v_new = v_min
        elif v_new > v_max:
            v_new = v_max
        veh.v = v_new
        veh.accel = a


def _process_exits(world: WorldState, stamp: float,
                   decisions: list[Decision]) -> None:
    """Remove vehicles past their exit, together with their decisions."""
    vehicles = world.vehicles
    gone = [i for i, veh in enumerate(vehicles) if veh.p >= veh.exit_pos]
    for i in gone:
        veh = vehicles[i]
        world.events.append(Event(stamp, EVENT_EXIT, veh.vid,
                                  f"at {veh.exit_pos:g}"))
        world.counters["exited"] += 1
    for i in reversed(gone):
        del vehicles[i]
        del decisions[i]


def _audit(world: WorldState, params: SimParams, stamp: float) -> None:
    # One step of drift at top speed is legitimate discretisation slack
    # (the final closing step shrinks the gap with the pre-step relative
    # speed); anything past it is an engine bug.
    slack = params.eps_g + params.v_max * params.dt
    vehicles = world.vehicles
    for i in range(1, len(vehicles)):
        ahead, veh = vehicles[i - 1], vehicles[i]
        if veh.p >= ahead.p:
            raise OrderingError(
                f"t={stamp:.3f}: vehicle {veh.vid} at p={veh.p:.6f} "
                f"reached vehicle {ahead.vid} at p={ahead.p:.6f}"
            )
        shortfall = (veh.p - ahead.p) + params.delta
        if shortfall > slack:
            raise SafetyAuditError(
                f"t={stamp:.3f}: gap between {ahead.vid} and {veh.vid} "
                f"is {params.delta - shortfall:.6f} m, required "
                f"{params.delta:g} m within {slack:.6f}"
            )


def resequence(world: WorldState, params: SimParams,
               decisions: list[Decision], stamp: float) -> None:
    """Apply splits, mode transitions and merges for this step.

    ``decisions`` line up with ``world.vehicles``.  Splits act on this
    step's follower verdicts; merges act on heads whose
    against-predecessor classification came back feasible.  Heads
    promoted only this step sit out the merge test until they have a
    head verdict of their own.
    """
    vehicles = world.vehicles

    for i, dec in enumerate(decisions):
        if not dec[3] and dec[1] in SPLIT_CODES:
            veh = vehicles[i]
            old = veh.platoon_id
            new = world.next_platoon_id
            world.next_platoon_id += 1
            j = i
            while j < len(vehicles) and vehicles[j].platoon_id == old:
                vehicles[j].platoon_id = new
                j += 1
            world.counters["splits"] += 1
            world.events.append(Event(stamp, EVENT_SPLIT, veh.vid,
                                      f"platoon {old} -> {new}"))

    eps_d = params.eps_d
    keeps = KEEPS_MODE
    ahead_pid = None
    for veh, dec in zip(vehicles, decisions):
        pid = veh.platoon_id
        is_head = pid != ahead_pid
        ahead_pid = pid
        # dec[2] is the code of veh.mode: splits above change only ids.
        if keeps[is_head][dec[2]][dec[1]]:
            continue
        margin = deadline_margin(veh.p, veh.v, stamp,
                                 veh.exit_pos, veh.deadline)
        mode = veh.mode
        new_mode = next_mode(mode, dec[1], margin, is_head, eps_d)
        if new_mode is mode:
            continue
        if new_mode is VehicleMode.FOLLOWER_DEADLINE_RELAXED or (
                new_mode is VehicleMode.LEADER_RECOVERING
                and mode is VehicleMode.FOLLOWER):
            world.counters["relaxations"] += 1
            world.events.append(Event(stamp, EVENT_RELAX, veh.vid,
                                      f"margin {margin:.3f}"))
        elif (mode is VehicleMode.LEADER_RECOVERING
              and new_mode is VehicleMode.LEADER):
            world.counters["recoveries"] += 1
            world.events.append(Event(stamp, EVENT_RECOVER, veh.vid,
                                      f"margin {margin:.3f}"))
        veh.mode = new_mode

    feasible = kernels.VERDICT_FEASIBLE
    for i in range(1, len(vehicles)):
        veh = vehicles[i]
        if vehicles[i - 1].platoon_id == veh.platoon_id:
            continue
        _, code, _, was_head = decisions[i]
        if not was_head or code != feasible:
            continue
        old = veh.platoon_id
        target = vehicles[i - 1].platoon_id
        j = i
        while j < len(vehicles) and vehicles[j].platoon_id == old:
            vehicles[j].platoon_id = target
            j += 1
        # Merging re-arms the deadline even for a recovering head: if it
        # still cannot be met the next solve routes through a fresh
        # conflict instead of resuming the recovery burst, which is what
        # keeps a hopeless deadline from ratcheting a vehicle into the
        # gap ahead one burst at a time.
        veh.mode = VehicleMode.FOLLOWER
        world.counters["merges"] += 1
        world.events.append(Event(stamp, EVENT_MERGE, veh.vid,
                                  f"platoon {old} -> {target}"))


def try_spawn(world: WorldState, params: SimParams, stamp: float) -> None:
    """Process every due arrival of the single spawn process.

    A candidate is discarded when inserting it would violate the
    stopping envelope for itself or for the vehicle it would cut off;
    discarded arrivals consume no vehicle id and no deadline draw.
    """
    road = params.road
    entries = road.entry_points()
    while world.spawning and world.next_spawn <= world.t + 1e-9:
        rng = world.rng
        delay = float(rng.uniform(0.5, 1.5))
        world.next_spawn = world.next_spawn + delay
        entry = entries[int(rng.integers(0, len(entries)))]

        idx = 0
        while idx < len(world.vehicles) and world.vehicles[idx].p >= entry:
            idx += 1
        ahead = world.vehicles[idx - 1] if idx > 0 else None
        behind = world.vehicles[idx] if idx < len(world.vehicles) else None

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
            world.counters["discarded"] += 1
            world.events.append(Event(stamp, EVENT_DISCARD, -1,
                                      f"entry={entry:g} v={v0:.3f}"))
            continue

        t_f = draw_deadline(rng, entry, v0, exit_pos, stamp, params)
        if ahead is not None:
            platoon_id = ahead.platoon_id
            mode = VehicleMode.FOLLOWER
        else:
            platoon_id = world.next_platoon_id
            world.next_platoon_id += 1
            mode = VehicleMode.LEADER
        veh = VehicleState(
            vid=world.next_vehicle_id, p=entry, v=v0, accel=0.0,
            spawn_time=stamp, deadline=t_f, exit_pos=exit_pos,
            mode=mode, platoon_id=platoon_id,
        )
        world.next_vehicle_id += 1
        world.vehicles.insert(idx, veh)
        world.trajectory.register(veh.vid, exit_pos, t_f)
        world.counters["spawned"] += 1
        world.events.append(Event(
            stamp, EVENT_SPAWN, veh.vid,
            f"entry={entry:g} exit={exit_pos:g} v={v0:.3f}",
        ))


def _record(world: WorldState, params: SimParams, stamp: float,
            decisions: list[Decision]) -> None:
    """Append the post-step state to the trajectory columns.

    ``decisions`` line up with the vehicles that were on the road at
    control time.  Vehicles spawned this step hold the newest ids, have
    no decision, and are recorded in their own mode.  The step's
    ``params`` and the world's drag law are what the trajectory derives
    this step's physics with.
    """
    vehicles = world.vehicles
    if not vehicles:
        return
    first_new = world.next_vehicle_id - (len(vehicles) - len(decisions))
    at_control = iter(decisions)
    modes = [next(at_control)[2] if veh.vid < first_new
             else MODE_CODES[veh.mode] for veh in vehicles]
    trajectory = world.trajectory
    trajectory.bind(params, world.drag_law)
    trajectory.append_step(
        stamp,
        [veh.vid for veh in vehicles],
        [veh.platoon_id for veh in vehicles],
        [veh.p for veh in vehicles],
        [veh.v for veh in vehicles],
        [veh.accel for veh in vehicles],
        modes,
    )


def step(world: WorldState, params: SimParams) -> None:
    """Advance the world by one control period."""
    stamp = world.t + params.dt
    decisions = _decide(world, params)
    _integrate(world, params, decisions)
    _process_exits(world, stamp, decisions)
    _audit(world, params, stamp)
    resequence(world, params, decisions, stamp)
    try_spawn(world, params, stamp)
    _record(world, params, stamp, decisions)
    if len(world.vehicles) > world.counters["peak_vehicles"]:
        world.counters["peak_vehicles"] = len(world.vehicles)
    world.t = stamp


def run(params: SimParams, *, world: WorldState | None = None) -> SimResult:
    """Run a full simulation and return trajectory, events and counters.

    A pre-built world (e.g. with seeded vehicles or spawning disabled)
    may be passed in; otherwise an empty world is created from the
    parameters.
    """
    if world is None:
        world = WorldState.initial(params)
    n_steps = round(params.duration / params.dt)
    for _ in range(n_steps):
        step(world, params)
    return SimResult(trajectory=world.trajectory, events=world.events,
                     metrics=dict(world.counters))
