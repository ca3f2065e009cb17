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
the trajectory keeps none of them.  One pass derives them in column
order a bounded block of rows at a time, from one copy of the block's
positions and speeds, so its temporaries do not grow with the range;
``Trajectory.forces`` stops after ``u`` and ``drag``: it has no margin.

The module stores and derives columns only, and has no row object
(that is ``analysis.TrajectoryRecord``).  ``trajectory_csv_text``
formats the rows as the lines of ``trajectory.csv`` in the same
blocks: one ``stable_order`` of a single (step, vehicle id) key puts a
block's rows in that order, each stored and physics column is copied
into a compact ``array`` in that order, and every row is one ``%`` of
``_CSV_ROW`` over the zipped columns.  Only the text grows with the
range.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._kernels_py import deadline_margin
from .core import SimParams

# Labels of the ``mode`` column's codes, which are ``VehicleMode``
# values: ``MODE_NAMES[mode]``.
MODE_NAMES = ("follower", "leader", "follower_relaxed", "leader_recovering")
_MODE_LABELS = np.array(MODE_NAMES, object)


class Forces(NamedTuple):
    """The ``u`` and ``drag`` columns of a range of rows, one element per
    row, as ``Trajectory.forces`` returns them: fresh float64 arrays."""

    u: np.ndarray
    drag: np.ndarray


class Physics(NamedTuple):
    """The physics columns of a range of rows, one element per row, as
    ``Trajectory.physics`` returns them: fresh float64 arrays; the
    first two are ``Forces``."""

    u: np.ndarray
    drag: np.ndarray
    gs_margin: np.ndarray
    deadline_margin: np.ndarray


# The per-row columns a trajectory stores, in ``append_step`` order (time
# is per step), and the ones ``Trajectory.physics`` computes from them.
STORED_COLUMNS = ("vehicle_id", "platoon_id", "p", "v", "accel", "mode")
DERIVED_COLUMNS = Physics._fields
# Rows per block of ``Trajectory.blocks``, which the physics and the CSV
# writer both work in: whole steps up to about this many rows.  The
# writer holds a block's row strings until it joins them: at 4096 rows
# its peak on a default run is twice that at 2048.
DERIVE_BLOCK_ROWS = 2048


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


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable order of the integer column ``keys``: what
    ``np.argsort(keys, kind="stable")`` gives.

    Keys that all fit 16 bits unsigned are sorted as ``uint16``, which
    numpy radix-sorts, in about a quarter of the time of its comparison
    sort on a default run's 46k vehicle ids; other keys are sorted as
    they are.
    """
    if len(keys) and 0 <= keys.min() and keys.max() <= 0xFFFF:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


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
        time; ``forces`` computes its first two columns alone.
        ``KeyError`` names the first vehicle of the range that was never
        registered, and ``ValueError`` a range outside the stored steps.
        """
        return self._columns(Physics, start, stop)

    def forces(self, start: int = 0, stop: int | None = None) -> Forces:
        """The ``u`` and ``drag`` columns of ``physics(start, stop)``,
        bit for bit, computed alone: no margin is computed, so no
        vehicle needs to be registered.  ``ValueError`` refuses a range
        outside the stored steps.
        """
        return self._columns(Forces, start, stop)

    def _columns(self, kind, start: int, stop: int | None):
        """The ``kind`` of the rows of steps ``start:stop``: the leading
        columns of ``Physics`` that ``_derive_block(k, end)`` yields for
        each block ``(k, end)`` of ``blocks(start, stop)``, up to
        ``kind``'s last, past which nothing is computed."""
        stop = self._check_range(start, stop)
        base = self.offsets[start]
        out = kind(*(np.empty(self.offsets[stop] - base)
                     for _ in kind._fields))
        for k, end in self.blocks(start, stop):
            rows = slice(self.offsets[k] - base, self.offsets[end] - base)
            for column, block in zip(out, self._derive_block(k, end)):
                column[rows] = block
        return out

    def _derive_block(self, k: int, stop: int) -> Iterator[np.ndarray]:
        """The ``Physics`` columns of the rows of steps ``k:stop``, in
        field order, each computed when asked for, from one slice copy
        of ``p`` and ``v`` and one ``pair_rows``.  No array here reads a
        live column: an exported buffer would make the engine's next
        ``append_step`` raise ``BufferError``."""
        lo, hi = self.offsets[k], self.offsets[stop]
        bounds = np.frombuffer(self.offsets[k:stop + 1], np.int64) - lo
        p, v = np.frombuffer(self.p[lo:hi]), np.frombuffer(self.v[lo:hi])
        # The front row of each step has the solo drag and no margin.
        back = pair_rows(bounds)
        p_hat = p[back] - p[back - 1]
        # Column form of kernels.drag_force, in the kernel's own
        # operation order, so every element has the kernel's bits;
        # tests/conftest.py recompute_derived, which calls the kernels
        # row by row, is the reference of every physics column.  The
        # wake takes libm's exp, not np.exp, which differs from it in
        # the last bit on some wake-range inputs.
        law = self.params.drag
        w = np.fromiter(map(math.exp, (law.c2 * p_hat).tolist()),
                        np.float64, len(back))
        drag = law.c0 * v * v
        drag[back] *= 1.0 - law.c1 * w
        yield np.frombuffer(self.accel[lo:hi]) + drag
        yield drag

        # Column form of kernels.stopping_margin, in the same way.
        params = self.params
        v_min, a_min, delta = params.v_min, params.a_min, params.delta
        ego, v_hat = v[back], v[back] - v[back - 1]
        gs = np.full(len(p), math.nan)
        gs[back] = np.where(v_hat <= 0.0, p_hat + delta,
                            p_hat + delta + v_hat * (v_min - ego) / a_min
                            + v_hat * v_hat / (2.0 * a_min))
        yield gs

        time = np.repeat(np.frombuffer(self.times[k:stop]), np.diff(bounds))
        exit_pos, deadline = self._targets(
            np.frombuffer(self.vehicle_id[lo:hi], np.int64))
        yield deadline_margin(p, v, time, exit_pos, deadline)

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
        (every one by default), in time order; ``ValueError`` refuses a
        range outside them."""
        stop = self._check_range(start, stop)
        offsets = self.offsets[start:stop + 1]
        return zip(self.times[start:stop], offsets, offsets[1:])

    def blocks(self, k: int = 0,
               stop: int | None = None) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` step ranges that cut steps ``k:stop`` (to
        the last step by default) into consecutive blocks of whole
        steps, in time order; the last block is cut short at ``stop``.
        ``ValueError`` refuses a range outside the stored steps.

        Each block holds as many steps as fit in ``DERIVE_BLOCK_ROWS``
        rows, and at least one, so a step longer than that is a block of
        its own.  The steps are counted when the first block is asked
        for.  ``physics`` computes its range a block at a time, and the
        CSV writer formats the rows a block at a time, so neither holds
        more than a block of temporaries.
        """
        offsets, n_steps = self.offsets, len(self.times)
        stop = self._check_range(k, stop)
        while k < stop:
            end = bisect_right(offsets, offsets[k] + DERIVE_BLOCK_ROWS,
                               k + 2, n_steps + 1) - 1
            yield k, min(end, stop)
            k = end

    def _check_range(self, start: int, stop: int | None) -> int:
        """``stop``, the last step's when None, once ``ValueError`` has
        refused a range ``start:stop`` of steps that is not inside
        ``0:len(times)``."""
        n_steps = len(self.times)
        stop = n_steps if stop is None else stop
        if not 0 <= start <= stop <= n_steps:
            raise ValueError(f"steps {start}:{stop} are not a range of the "
                             f"{n_steps} stored steps")
        return stop

    def __repr__(self) -> str:
        return f"<Trajectory: {len(self)} records in {len(self.times)} steps>"


_CSV_HEADER = ("t", "id", "platoon_id", "p", "v", "a", "u", "drag",
               "gs_margin", "deadline_margin", "mode")
# One row of _CSV_HEADER's columns, formatted from a tuple of a block's
# zipped columns: the stamp comes as its step's _sig text, and ``%.6g``
# formats every other float as _sig does.
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
    ``ValueError`` refuses a range outside the stored steps.
    """
    stop = tr._check_range(start, stop)
    # CPython grows the only reference to a str in place on ``+=``, so
    # the text is never held twice; a final join of the blocks, or
    # StringIO's getvalue copy, raised dense_corridor's peak RSS by
    # about 10 MB (41 MB of text).
    text = ",".join(_CSV_HEADER) + "\n" if start == 0 else ""
    for k, end in tr.blocks(start, stop):
        lo, hi = tr.offsets[k], tr.offsets[end]
        counts = np.diff(np.frombuffer(tr.offsets[k:end + 1], np.int64))
        vids = np.frombuffer(tr.vehicle_id[lo:hi], np.int64)
        # One key orders the rows by step, then by vehicle id.
        order = stable_order(np.repeat(np.arange(end - k), counts)
                             * (vids.max(initial=0) + 1) + vids)
        stored = (np.frombuffer(column[lo:hi], column.typecode) for column
                  in (tr.platoon_id, tr.p, tr.v, tr.accel))
        # Rows stay in step order, so each step's stamp repeats unmoved.
        columns = [
            list(chain.from_iterable(map(repeat, map(_sig, tr.times[k:end]),
                                         counts.tolist()))),
            *(array(column.dtype.char, column[order].tobytes())
              for column in (vids, *stored, *tr.physics(k, end))),
            _MODE_LABELS[np.frombuffer(tr.mode[lo:hi], np.int8)[order]]
            .tolist()]
        text += "".join(map(_CSV_ROW.__mod__, zip(*columns)))
    return text


def trajectory_csv_blocks(tr: Trajectory) -> Iterator[tuple[int, int, str]]:
    """``(start, stop, text)`` of each block of ``tr.blocks()``, ``text``
    its ``trajectory_csv_text``, so the header leads the first block;
    ``(0, 0, header)`` alone when ``tr`` has no step.  The one statement
    of how ``trajectory.csv`` is cut: ``platoonflow run`` writes these
    texts and ``verify.check_determinism`` digests them.
    """
    for start, stop in tr.blocks() if tr.times else [(0, 0)]:
        yield start, stop, trajectory_csv_text(tr, start, stop)
