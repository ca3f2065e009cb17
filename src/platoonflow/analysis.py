"""Post-run analysis and independent cross-checks.

Everything here works from the engine's output alone, its trajectory
columns and events, so it audits what the engine actually emitted
rather than trusting its internal state; each reader judges a run by
the params its trajectory holds, ``tr.params``.  The row view is
here: ``records_by_time`` and ``records_by_vehicle`` build a
``TrajectoryRecord`` per row for a reader that wants objects.  The
audits of consecutive vehicles work on whole columns: each pairs the
rows that ``trajectory.pair_rows`` gives with the row ahead of them,
one row up in the same step.  ``summarize`` integrates along time
over the pairs that ``previous_rows`` gives: each row with the same
vehicle's row before it, which ``replay`` re-solves each row's
command from.
The brute-force solver deliberately re-states each control constraint
as a pointwise inequality and scans a dense acceleration grid; it
shares no code path with the closed-form controller it checks.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._kernels_py import (SPEED_EDGE_TOL, FeasibilityVerdict, drag_partials,
                          follower_decision, gap_allowance, leader_decision,
                          stopping_margin)
from .core import SimParams
from .sim import (EVENT_DISCARD, EVENT_EXIT, EVENT_MERGE, EVENT_RECOVER,
                  EVENT_RELAX, EVENT_SPAWN, EVENT_SPLIT, SimResult)
from .trajectory import MODE_NAMES, Trajectory, pair_rows

_INEQ_TOL = 1e-9  # slack applied to every brute-force inequality
_GRID_POINTS = 10001  # evenly spaced candidates from a_min to a_max


@lru_cache(maxsize=8)
def _oracle_grid(a_min: float, a_max: float) -> np.ndarray:
    """The oracle's ``_GRID_POINTS`` evenly spaced candidates from
    ``a_min`` to ``a_max``, built once per pair of acceleration bounds.
    Read-only, since every call with those bounds shares it."""
    grid = np.linspace(a_min, a_max, _GRID_POINTS)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """Post-step snapshot of one vehicle.

    ``accel`` is the command applied over the step that produced this
    state; ``mode`` the mode that produced the command.  ``u`` is the
    actuator effort implied by the dynamics (accel plus drag).
    ``gs_margin`` is nan for the front vehicle of the road.
    """

    time: float
    vehicle_id: int
    platoon_id: int
    p: float
    v: float
    accel: float
    u: float
    drag: float
    gs_margin: float
    deadline_margin: float
    mode: str


def _records(tr: Trajectory, key: str) -> dict:
    """Every row of ``tr`` as a record, grouped by the record field
    ``key`` in stored order."""
    out: dict = defaultdict(list)
    physics = zip(*(column.tolist() for column in tr.physics()))
    for time, start, stop in tr.steps():
        for i, (u, drag, gs, dm) in zip(range(start, stop), physics):
            # The shared nan object keeps front-vehicle records equal.
            rec = TrajectoryRecord(
                time, tr.vehicle_id[i], tr.platoon_id[i], tr.p[i], tr.v[i],
                tr.accel[i], u, drag, gs if gs == gs else math.nan, dm,
                MODE_NAMES[tr.mode[i]])
            out[getattr(rec, key)].append(rec)
    return dict(out)


def records_by_time(tr: Trajectory) -> dict[float, list[TrajectoryRecord]]:
    """Group records into per-time snapshots ordered front to back."""
    return _records(tr, "time")


def records_by_vehicle(tr: Trajectory) -> dict[int, list[TrajectoryRecord]]:
    """Group records per vehicle in time order."""
    return _records(tr, "vehicle_id")


def previous_rows(tr: Trajectory) -> np.ndarray:
    """Each row's previous row of the same vehicle, or -1 at the
    vehicle's first row."""
    vid = np.array(tr.vehicle_id)
    order = np.argsort(vid, kind="stable")
    later, earlier = order[1:], order[:-1]
    same = vid[later] == vid[earlier]
    prev = np.full(len(vid), -1)
    prev[later[same]] = earlier[same]
    return prev


class Replay(NamedTuple):
    """``replay``'s columns, one element per row: ``before``, the row its
    command was decided from, then the decision kernel's tuple with the
    verdict as its code, then the deadline flag it was solved with."""

    before: np.ndarray
    accel: np.ndarray
    verdict: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    g: np.ndarray
    cap: np.ndarray
    bound: np.ndarray
    deadline_active: np.ndarray


def replay(tr: Trajectory) -> Replay:
    """Re-solve every row's command from the step stored before it.

    A row's ``accel`` is the command its vehicle was given from the
    state of the step stored before it: its own row there, ``before``
    (``previous_rows``), and the row ahead of that one, its
    predecessor, whose ``accel`` was the predecessor's last command.  A
    head with nobody ahead passes ``(p_hat, v_hat, pred_accel) = (-inf,
    0.0, 0.0)``.  The deadline is armed when ``enforce_deadlines``, the
    row's mode is below 2 and ``deadline_margin`` at ``before`` is at
    least ``-eps_d``; bit 0 of the row's mode, the mode that produced
    the command, picks the leader kernel or the follower kernel.  That
    is the engine's decide rule, so on an engine's trajectory the
    replayed ``accel`` is the recorded one bit for bit.  A vehicle's
    first row has no step before it: ``before`` is -1 there, the
    kernel columns nan, the verdict -1 and the flag False.  With
    deadlines enforced it reads ``deadline_margin``, so like every
    physics read it raises ``KeyError`` on a vehicle that was never
    registered.

    Every row calls the scalar kernels, since ``np.exp`` is not libm's
    ``exp``; repeated inputs are solved again, not reused.
    """
    params = tr.params
    before = previous_rows(tr)
    rows = np.flatnonzero(before >= 0)
    prior, mode = before[rows], np.array(tr.mode)[rows]
    armed = np.zeros(len(before), np.bool_)
    if params.enforce_deadlines:
        armed[rows] = ((mode < 2) & (tr.physics().deadline_margin[prior]
                                     >= -params.eps_d))
    has_ahead = np.zeros(len(before), np.bool_)
    has_ahead[pair_rows(tr.offsets)] = True
    ahead = np.where(has_ahead[prior], prior - 1, -1)

    p, v, accel = tr.p, tr.v, tr.accel
    solves = []
    for j, a, m, dl in zip(prior.tolist(), ahead.tolist(), mode.tolist(),
                           armed[rows].tolist()):
        pred = ((p[j] - p[a], v[j] - v[a], accel[a]) if a >= 0
                else (-math.inf, 0.0, 0.0))
        solves.append(leader_decision(v[j], *pred, m == 3, dl, params)
                      if m & 1 else follower_decision(v[j], *pred, dl, params))
    table = np.full((7, len(before)), math.nan)
    table[:, rows] = np.array(solves, np.float64).reshape(-1, 7).T
    verdict = np.where(before >= 0, table[1], -1).astype(np.int64)
    return Replay(before, table[0], verdict, *table[2:], armed)


def row_times(tr: Trajectory) -> np.ndarray:
    """Time stamp of every row."""
    return np.repeat(np.array(tr.times), np.diff(np.array(tr.offsets)))


def consecutive_gap_excess(tr: Trajectory) -> np.ndarray:
    """Bumper-gap shortfall ``(p_back - p_front) + delta`` of every pair of
    consecutive vehicles in every snapshot (positive means inside delta)."""
    p = np.array(tr.p)
    back = pair_rows(tr.offsets)
    return (p[back] - p[back - 1]) + tr.params.delta


def check_ordering(tr: Trajectory) -> list[str]:
    """Positions must strictly decrease front to back in every snapshot."""
    p = np.array(tr.p)
    back = pair_rows(tr.offsets)
    t, vid = row_times(tr), tr.vehicle_id
    return [f"t={t[b]:.3f}: vehicle {vid[b]} (p={p[b]:.6f}) "
            f"not behind vehicle {vid[b - 1]} (p={p[b - 1]:.6f})"
            for b in back[p[back] >= p[back - 1]].tolist()]


def check_safety(tr: Trajectory) -> list[str]:
    """Stopping-envelope audit over all consecutive pairs at all times,
    allowing ``gap_allowance(tr.params)``.  It reads the physics
    column ``gs_margin``, so like every physics read it raises
    ``KeyError`` on a vehicle that was never registered."""
    allowed = gap_allowance(tr.params)
    back = pair_rows(tr.offsets)
    g = tr.physics().gs_margin[back]
    bad = g > allowed
    t, vid = row_times(tr), tr.vehicle_id
    return [f"t={t[b]:.3f}: margin {gb:.6f} > {allowed:.6f} between "
            f"{vid[b - 1]} and {vid[b]}"
            for b, gb in zip(back[bad].tolist(), g[bad].tolist())]


def in_formation(p_ahead, v_ahead, p, v, params: SimParams):
    """Whether a vehicle forms a pair with the vehicle ahead of it: the
    bumper gap sits within ``eps_platoon_gap`` of the target spacing and
    the speeds agree within ``eps_platoon_speed``.

    Works on floats and on numpy columns alike.
    """
    return ((abs((p - p_ahead) + params.delta) <= params.eps_platoon_gap)
            & (abs(v - v_ahead) <= params.eps_platoon_speed))


def detect_formations(tr: Trajectory, k: int) -> list[tuple[int, ...]]:
    """Group step ``k`` into tight formations by observed gap and speed.

    The step's vehicles, front to back, are split wherever a vehicle is
    not ``in_formation`` with the one ahead.  ``k`` may be negative, as
    a list index may.  This is measured from positions alone and is
    independent of the engine's platoon bookkeeping.
    """
    k = range(len(tr.times))[k]
    start, stop = tr.offsets[k], tr.offsets[k + 1]
    p, v = np.array(tr.p[start:stop]), np.array(tr.v[start:stop])
    vid = tr.vehicle_id[start:stop]
    cuts = np.flatnonzero(~in_formation(p[:-1], v[:-1], p[1:], v[1:],
                                        tr.params)) + 1
    bounds = [0, *cuts.tolist(), len(vid)]
    return [tuple(vid[a:b]) for a, b in zip(bounds, bounds[1:])]


def brute_force_follower(v: float, p_hat: float, v_hat: float,
                         pred_accel: float, deadline_active: bool,
                         params: SimParams
                         ) -> tuple[Optional[float], FeasibilityVerdict]:
    """Reference follower decision by dense grid search: ``(accel,
    verdict)``, the head of ``follower_decision``'s tuple, with ``accel``
    None when nothing is feasible.

    Every candidate acceleration is tested against the raw constraint
    inequalities (no interval algebra): hold the speed box when pinned
    to an edge, keep the stopping margin decaying at rate ``gamma``
    whenever closing above the floor (full braking is always admissible
    there, since the envelope is defined by the full-brake stopping
    distance), keep drag non-increasing, and hold speed when a deadline
    binds.  The candidate set is the dense grid plus zero plus each
    inequality's own boundary point, so feasible slivers narrower than
    the grid spacing are still found.  The verdict is re-derived from
    the grid masks in the precedence ``classify`` documents.

    The drag inequality ``f_p * v_hat + f_v * a <= 0`` is stated per
    unit of acceleration, divided by ``f_v``, as the box and deadline
    inequalities are, so its slack ``_INEQ_TOL`` is in m/s^2.  ``f_v``
    is positive on every validated parameter set (``v_min > 0``,
    ``c0 > 0``, ``c1 < 1``).  Left in units of dF/dt, the slack would
    admit ``_INEQ_TOL / f_v`` m/s^2 beyond the bound: about 1e-6 m/s^2
    on a speed box as narrow as [1, 2] m/s.
    """
    g = stopping_margin(v, p_hat, v_hat, params)
    f_v, f_p = drag_partials(v, p_hat, params.drag)
    pred = params.a_min if params.worst_case_pred_accel else pred_accel
    at_floor = v <= params.v_min + SPEED_EDGE_TOL
    at_ceiling = v >= params.v_max - SPEED_EDGE_TOL
    decays = (v_hat > 0.0 and not at_floor
              and (params.gamma > 0.0 or g >= -params.eps_g))

    cand = [_oracle_grid(params.a_min, params.a_max), [0.0],
            [-f_p * v_hat / f_v]]
    if decays:
        k = (params.v_min - v) / params.a_min
        r = v_hat - pred * (params.v_min - v + v_hat) / params.a_min
        cand.append([(-params.gamma * g - r) / k])
    grid = np.concatenate(cand)
    grid = grid[(grid >= params.a_min) & (grid <= params.a_max)]

    floor_ok = grid >= -_INEQ_TOL if at_floor else np.ones(grid.shape, bool)
    ceil_ok = grid <= _INEQ_TOL if at_ceiling else np.ones(grid.shape, bool)
    if decays:
        decay_ok = k * grid + r <= -params.gamma * g + _INEQ_TOL
        safety_ok = decay_ok | (grid <= params.a_min + _INEQ_TOL)
    else:
        decay_ok = safety_ok = np.ones(grid.shape, bool)
    flow_ok = f_p * v_hat / f_v + grid <= _INEQ_TOL
    dl_ok = grid >= -_INEQ_TOL if deadline_active else np.ones(grid.shape,
                                                               bool)

    feasible = floor_ok & ceil_ok & safety_ok & flow_ok & dl_ok
    if feasible.any():
        pts = grid[feasible]
        return (float(pts[np.argmin(np.abs(pts))]),
                FeasibilityVerdict.FEASIBLE)

    cap_negative = decays and not bool((decay_ok & (grid >= -_INEQ_TOL)).any())
    safety_active = g >= -params.eps_g or cap_negative
    if at_floor and not (floor_ok & flow_ok).any():
        verdict = FeasibilityVerdict.FLOOR_CONFLICT
    elif not flow_ok.any():
        verdict = FeasibilityVerdict.BRAKE_CONFLICT
    elif deadline_active and not (dl_ok & flow_ok).any():
        verdict = FeasibilityVerdict.DEADLINE_DRAG_CONFLICT
    elif deadline_active and safety_active and v_hat > 0.0:
        verdict = FeasibilityVerdict.DEADLINE_SAFETY_CONFLICT
    else:
        verdict = FeasibilityVerdict.FEASIBLE
    return None, verdict


def summarize(result: SimResult) -> dict[str, object]:
    """Aggregate run metrics for reporting: the run's duration, events
    counted by kind, the most vehicles on the road at the end of any
    step, the final formations, and two trapezoidal integrals over every
    vehicle's lifetime, of ``drag**2`` and of ``max(u, 0) * v``, summed
    over all vehicles."""
    n = Counter(e.kind for e in result.events)
    tr = result.trajectory
    final = detect_formations(tr, -1) if len(tr) else []
    multi = [len(f) for f in final if len(f) > 1]
    prev = previous_rows(tr)
    rows = np.flatnonzero(prev >= 0)
    prev = prev[rows]
    t = row_times(tr)
    dt = t[rows] - t[prev]
    u, drag = tr.physics()[:2]
    work = np.maximum(u, 0.0) * np.array(tr.v)

    def integral(y: np.ndarray) -> float:
        # ``np.trapezoid``'s term, over every vehicle's row pairs at once.
        return float((dt * (y[rows] + y[prev]) / 2.0).sum())

    return {
        "duration": tr.params.duration,
        "spawn_attempts": n[EVENT_SPAWN] + n[EVENT_DISCARD],
        "vehicles_spawned": n[EVENT_SPAWN],
        "spawns_discarded": n[EVENT_DISCARD],
        "vehicles_exited": n[EVENT_EXIT],
        "peak_vehicle_count": int(np.diff(tr.offsets).max(initial=0)),
        "platoon_splits": n[EVENT_SPLIT],
        "platoon_merges": n[EVENT_MERGE],
        "deadline_relaxations": n[EVENT_RELAX],
        "deadline_recoveries": n[EVENT_RECOVER],
        "final_formation_count": len(multi),
        "largest_final_formation": max(multi, default=0),
        "total_drag_sq_integral": integral(drag * drag),
        "total_positive_work": integral(work),
    }
