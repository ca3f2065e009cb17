"""Columnar store of the engine's post-step vehicle snapshots.

The engine appends one step at a time: its stamp plus one row per
vehicle on the road, front to back.  Every field is a typed ``array``
column, so a record costs a few dozen bytes instead of an object, and a
reader takes step ``k`` as the row slice ``offsets[k]:offsets[k + 1]``,
already ordered front to back.

A trajectory keeps only what the engine wrote: ids, position, speed,
command and mode, and the exit and deadline it registers per vehicle.
The four physics columns (``u``, ``drag``, ``gs_margin`` and
``deadline_margin``) are computed from those and the ``params`` every
trajectory is built with (its envelope constants and ``params.drag``)
on each call of ``Trajectory.physics``, for any range of steps, and
the trajectory keeps none of them.  The computation works on whole
columns, a bounded block of rows at a time, so its temporaries do not
grow with the range.

The module stores and derives columns only, and has no row object
(that is ``analysis.TrajectoryRecord``); ``trajectory_csv_text``
formats the rows as the lines of ``trajectory.csv``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._kernels_py import deadline_margin
from .core import SimParams

# Labels of the ``mode`` column's codes, which are ``VehicleMode``
# values: ``MODE_NAMES[mode]``.
MODE_NAMES = ("follower", "leader", "follower_relaxed", "leader_recovering")


class Physics(NamedTuple):
    """The physics columns of a range of rows, one element per row, as
    ``Trajectory.physics`` returns them: fresh float64 arrays."""

    u: np.ndarray
    drag: np.ndarray
    gs_margin: np.ndarray
    deadline_margin: np.ndarray


# The per-row columns a trajectory stores, in ``append_step`` order (time
# is per step), and the ones ``Trajectory.physics`` computes from them.
STORED_COLUMNS = ("vehicle_id", "platoon_id", "p", "v", "accel", "mode")
DERIVED_COLUMNS = Physics._fields
# Rows per block of ``Trajectory.blocks``, which the physics and the CSV
# writer both work in: whole steps up to about this many rows.
DERIVE_BLOCK_ROWS = 4096


def pair_rows(offsets: Iterable[int]) -> np.ndarray:
    """Rows that have a row ahead of them in their own step, in row order.

    ``offsets`` are step bounds from 0, as ``Trajectory.offsets``: step
    ``k`` is rows ``offsets[k]:offsets[k + 1]``, front to back.  So the
    row ahead of each returned row ``i`` is ``i - 1``, and the only rows
    left out are the front row of each step.
    """
    offsets = np.array(offsets, np.int64)
    behind = np.ones(offsets[-1], np.bool_)
    behind[offsets[:-1]] = False
    return np.flatnonzero(behind)


class Trajectory:
    """Recorded snapshots, one typed column per stored field.

    ``times[k]`` is the stamp of step ``k`` and its rows are
    ``offsets[k]:offsets[k + 1]``; steps with no vehicle on the road are
    not stored.  ``mode`` holds ``VehicleMode`` values.  ``physics``
    computes the columns in ``DERIVED_COLUMNS`` (see the module
    docstring) under ``params``, the run's constants that every reader
    of the trajectory takes.
    """

    __slots__ = (("times", "offsets") + STORED_COLUMNS
                 + ("_params", "_exit_pos", "_deadline"))

    def __init__(self, params: SimParams) -> None:
        self.times = array("d")
        self.offsets = array("q", [0])
        self.vehicle_id, self.platoon_id = array("q"), array("q")
        self.p, self.v, self.accel = array("d"), array("d"), array("d")
        self.mode = array("b")
        self._params = params
        # Exit position and deadline by vehicle id, nan for an id never
        # registered: engine ids are dense from 0.
        self._exit_pos = array("d")
        self._deadline = array("d")

    @property
    def params(self) -> SimParams:
        """The run's constants the physics is computed under;
        read-only."""
        return self._params

    def register(self, vehicle_id: int, exit_pos: float,
                 deadline: float) -> None:
        """The exit position and deadline of a vehicle, for its
        ``deadline_margin`` rows.

        Ids index a table, so they must be non-negative, and small like
        the engine's, which count up from 0.  ``ValueError`` refuses an
        exit or deadline that is not finite, as ``insert_vehicle`` does.
        """
        if vehicle_id < 0:
            raise ValueError(f"vehicle id {vehicle_id} is negative")
        for name, x in (("exit_pos", exit_pos), ("deadline", deadline)):
            if not math.isfinite(x):
                raise ValueError(f"{name}={x} is not finite")
        grow = vehicle_id + 1 - len(self._exit_pos)
        if grow > 0:
            self._exit_pos.extend([math.nan] * grow)
            self._deadline.extend([math.nan] * grow)
        self._exit_pos[vehicle_id] = exit_pos
        self._deadline[vehicle_id] = deadline

    def append_step(self, time: float, vehicle_id: list[int],
                    platoon_id: list[int], p: list[float], v: list[float],
                    accel: list[float], mode: list[int]) -> None:
        """Append one non-empty snapshot of state, as equal-length lists.

        Every vehicle in it must be registered before the physics of its
        rows is read.
        """
        self.times.append(time)
        self.vehicle_id.fromlist(vehicle_id)
        self.platoon_id.fromlist(platoon_id)
        self.p.fromlist(p)
        self.v.fromlist(v)
        self.accel.fromlist(accel)
        self.mode.fromlist(mode)
        self.offsets.append(len(self.vehicle_id))

    def physics(self, start: int = 0, stop: int | None = None) -> Physics:
        """The physics of the rows of steps ``start:stop`` (every step
        by default), computed on this call a block of ``blocks`` at a
        time.  ``KeyError`` names the first vehicle of the range that
        was never registered.
        """
        stop = len(self.times) if stop is None else stop
        base = self.offsets[start]
        out = Physics(*(np.empty(self.offsets[stop] - base)
                        for _ in DERIVED_COLUMNS))
        for k, end in self.blocks(start):
            if k >= stop:
                break
            end = min(end, stop)
            rows = slice(self.offsets[k] - base, self.offsets[end] - base)
            for column, block in zip(out, self._derive_block(k, end)):
                column[rows] = block
        return out

    def _derive_block(self, k: int, stop: int) -> Physics:
        """The physics of the rows of steps ``k:stop``.

        Every numpy array here reads a slice copy of a column, never the
        live column: an exported buffer would make the engine's next
        ``append_step`` raise ``BufferError``.
        """
        lo, hi = self.offsets[k], self.offsets[stop]
        bounds = np.frombuffer(self.offsets[k:stop + 1], np.int64) - lo
        time = np.repeat(np.frombuffer(self.times[k:stop]), np.diff(bounds))
        exit_pos, deadline = self._targets(
            np.frombuffer(self.vehicle_id[lo:hi], np.int64))
        p = np.frombuffer(self.p[lo:hi])
        v = np.frombuffer(self.v[lo:hi])
        # The front row of each step has the solo drag and no margin.
        back = pair_rows(bounds)
        p_hat = p[back] - p[back - 1]

        # Column forms of kernels.drag_force and kernels.stopping_margin,
        # in the kernels' own operation order, so every element has the
        # kernels' bits; tests/conftest.py recompute_derived, which calls
        # the kernels row by row, is their reference.  The wake takes
        # libm's exp, not np.exp, which differs from it in the last bit
        # on some wake-range inputs.
        params = self.params
        law = params.drag
        w = np.fromiter(map(math.exp, (law.c2 * p_hat).tolist()), np.float64,
                        len(p_hat))
        drag = law.c0 * v * v
        drag[back] *= 1.0 - law.c1 * w
        v_min, a_min, delta = params.v_min, params.a_min, params.delta
        ego, v_hat = v[back], v[back] - v[back - 1]
        gs = np.full(len(p), math.nan)
        gs[back] = np.where(v_hat <= 0.0, p_hat + delta,
                            p_hat + delta + v_hat * (v_min - ego) / a_min
                            + v_hat * v_hat / (2.0 * a_min))

        return Physics(np.frombuffer(self.accel[lo:hi]) + drag, drag, gs,
                       deadline_margin(p, v, time, exit_pos, deadline))

    def _targets(self, vids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exit positions and deadlines of ``vids``; ``KeyError`` names
        the first id never registered, whose exit is nan."""
        exit_pos = np.array(self._exit_pos)
        known = (vids >= 0) & (vids < len(exit_pos))
        known[known] = ~np.isnan(exit_pos[vids[known]])
        if not known.all():
            raise KeyError(int(vids[np.argmin(known)]))
        return exit_pos[vids], np.array(self._deadline)[vids]

    def __len__(self) -> int:
        return len(self.vehicle_id)

    def steps(self, start: int = 0,
              stop: int | None = None) -> Iterator[tuple[float, int, int]]:
        """``(time, start, stop)`` of the stored steps ``start:stop``
        (every one by default), in time order."""
        offsets = self.offsets[start:None if stop is None else stop + 1]
        return zip(self.times[start:stop], offsets, offsets[1:])

    def blocks(self, k: int = 0) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` step ranges that cut steps ``k:`` into
        consecutive blocks of whole steps, in time order.

        Each block holds as many steps as fit in ``DERIVE_BLOCK_ROWS``
        rows, and at least one, so a step longer than that is a block of
        its own.  The steps are counted when the first block is asked
        for.  ``physics`` computes its range a block at a time, and the
        CSV writer formats the rows a block at a time, so neither holds
        more than a block of temporaries.
        """
        offsets, n_steps = self.offsets, len(self.times)
        while k < n_steps:
            stop = bisect_right(offsets, offsets[k] + DERIVE_BLOCK_ROWS,
                                k + 2, n_steps + 1) - 1
            yield k, stop
            k = stop

    def __repr__(self) -> str:
        return f"<Trajectory: {len(self)} records in {len(self.times)} steps>"


_CSV_HEADER = ("t", "id", "platoon_id", "p", "v", "a", "u", "drag",
               "gs_margin", "deadline_margin", "mode")
# One row of _CSV_HEADER's columns; ``%.6g`` formats a float as _sig does.
_CSV_ROW = "%s,%d,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%s\n"


def _sig(x: float) -> str:
    return f"{x:.6g}"


def trajectory_csv_text(tr: Trajectory, start: int = 0,
                        stop: int | None = None) -> str:
    """CSV of the records of steps ``start:stop`` (every step by
    default), ordered by time and then vehicle id.

    The header line leads a range that starts at step 0 and no other,
    so the texts of steps ``0:k`` and ``k:`` join into the whole text
    for any ``k > 0``; the default call returns that whole text, the
    header alone when ``tr`` has no step.  This is the one statement of
    the row format, and ``trajectory_csv_blocks`` of how the file is cut.
    """
    vid, pid, mode, p, v, accel = (tr.vehicle_id, tr.platoon_id, tr.mode,
                                   tr.p, tr.v, tr.accel)
    # The range's physics is indexed from its first row, ``base``.
    base = tr.offsets[start]
    u, drag, gs, dm = map(memoryview, tr.physics(start, stop))
    # One string per step, not per row: a list of rows would hold one
    # string object per record until the final join.
    steps = [",".join(_CSV_HEADER) + "\n"] if start == 0 else []
    for time, lo, hi in tr.steps(start, stop):
        t = _sig(time)
        steps.append("".join([
            _CSV_ROW % (t, vid[i], pid[i], p[i], v[i], accel[i], u[j],
                        drag[j], gs[j], dm[j], MODE_NAMES[mode[i]])
            for i in sorted(range(lo, hi), key=vid.__getitem__)
            for j in [i - base]]))
    return "".join(steps)


def trajectory_csv_blocks(tr: Trajectory) -> Iterator[tuple[int, int, str]]:
    """``(start, stop, text)`` of each block of ``tr.blocks()``, ``text``
    its ``trajectory_csv_text``, so the header leads the first block;
    ``(0, 0, header)`` alone when ``tr`` has no step.  The one statement
    of how ``trajectory.csv`` is cut: ``platoonflow run`` writes these
    texts and ``verify.check_determinism`` digests them.
    """
    for start, stop in tr.blocks() if tr.times else [(0, 0)]:
        yield start, stop, trajectory_csv_text(tr, start, stop)
