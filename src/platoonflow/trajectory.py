"""Columnar store of the engine's post-step vehicle snapshots.

The engine appends one step at a time: its stamp plus one row per
vehicle on the road, front to back.  Every field is a typed ``array``
column, so a record costs a few dozen bytes instead of an object, and a
reader takes step ``k`` as the row slice ``offsets[k]:offsets[k + 1]``,
already ordered front to back.  ``TrajectoryRecord`` stays the row type
for callers that want objects: indexing and iteration build one per row
on demand.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import VehicleMode

# Codes of the ``mode`` column: bit 0 marks a platoon head, bit 1 a
# relaxed deadline.
MODES = (VehicleMode.FOLLOWER, VehicleMode.LEADER,
         VehicleMode.FOLLOWER_DEADLINE_RELAXED,
         VehicleMode.LEADER_RECOVERING)
MODE_NAMES = tuple(mode.value for mode in MODES)
MODE_CODES = {mode: code for code, mode in enumerate(MODES)}
_NAME_CODES = {name: code for code, name in enumerate(MODE_NAMES)}


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


# Per-row columns in TrajectoryRecord field order (time is per step).
INT_COLUMNS = ("vehicle_id", "platoon_id")
FLOAT_COLUMNS = ("p", "v", "accel", "u", "drag", "gs_margin",
                 "deadline_margin")
COLUMNS = INT_COLUMNS + FLOAT_COLUMNS + ("mode",)


class Trajectory:
    """Recorded snapshots, one typed column per record field.

    ``times[k]`` is the stamp of step ``k`` and its rows are
    ``offsets[k]:offsets[k + 1]``; steps with no vehicle on the road are
    not stored.  ``mode`` holds codes into ``MODES``.
    """

    __slots__ = ("times", "offsets") + COLUMNS

    def __init__(self) -> None:
        self.times = array("d")
        self.offsets = array("q", [0])
        for name in INT_COLUMNS:
            setattr(self, name, array("q"))
        for name in FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self.mode = array("b")

    def append_step(self, time: float, vehicle_id: list[int],
                    platoon_id: list[int], p: list[float], v: list[float],
                    accel: list[float], u: list[float], drag: list[float],
                    gs_margin: list[float], deadline_margin: list[float],
                    mode: list[int]) -> None:
        """Append one non-empty snapshot given as equal-length lists."""
        self.times.append(time)
        self.vehicle_id.fromlist(vehicle_id)
        self.platoon_id.fromlist(platoon_id)
        self.p.fromlist(p)
        self.v.fromlist(v)
        self.accel.fromlist(accel)
        self.u.fromlist(u)
        self.drag.fromlist(drag)
        self.gs_margin.fromlist(gs_margin)
        self.deadline_margin.fromlist(deadline_margin)
        self.mode.fromlist(mode)
        self.offsets.append(len(self.vehicle_id))

    @classmethod
    def from_records(cls, records: Iterable[TrajectoryRecord]
                     ) -> "Trajectory":
        """Columns for hand-built records, in any order.

        Records with equal ``time`` form one step, ordered front to back
        (ties keep their input order), and steps run in time order.
        """
        out = cls()
        rows = sorted(records, key=lambda r: (r.time, -r.p))
        start = 0
        while start < len(rows):
            stop = start + 1
            while stop < len(rows) and rows[stop].time == rows[start].time:
                stop += 1
            step = rows[start:stop]
            try:
                modes = [_NAME_CODES[r.mode] for r in step]
            except KeyError as exc:
                raise ValueError(f"unknown vehicle mode {exc}") from None
            out.append_step(
                rows[start].time, *([getattr(r, name) for r in step]
                                    for name in INT_COLUMNS + FLOAT_COLUMNS),
                modes)
            start = stop
        return out

    def __len__(self) -> int:
        return len(self.vehicle_id)

    def steps(self) -> Iterator[tuple[float, int, int]]:
        """``(time, start, stop)`` of every stored step, in time order."""
        offsets = self.offsets
        return zip(self.times, offsets, offsets[1:])

    def record(self, i: int, time: float) -> TrajectoryRecord:
        """Row ``i`` as a record; ``time`` is the stamp of its step."""
        gs = self.gs_margin[i]
        if gs != gs:
            # The shared nan object keeps front-vehicle records equal.
            gs = math.nan
        return TrajectoryRecord(
            time, self.vehicle_id[i], self.platoon_id[i], self.p[i],
            self.v[i], self.accel[i], self.u[i], self.drag[i],
            gs, self.deadline_margin[i], MODE_NAMES[self.mode[i]])

    def snapshot(self, k: int) -> list[TrajectoryRecord]:
        """Records of step ``k``, front to back."""
        time = self.times[k]
        k %= len(self.times)
        return [self.record(i, time)
                for i in range(self.offsets[k], self.offsets[k + 1])]

    def __getitem__(self, i: int) -> TrajectoryRecord:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trajectory index out of range")
        return self.record(i, self.times[bisect_right(self.offsets, i) - 1])

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        for time, start, stop in self.steps():
            for i in range(start, stop):
                yield self.record(i, time)

    def __eq__(self, other: object) -> bool:
        # Bitwise, so runs that record the same nan compare equal.
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(getattr(self, name).tobytes()
                   == getattr(other, name).tobytes()
                   for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<Trajectory: {len(self)} records in {len(self.times)} steps>"


def as_trajectory(trajectory: Trajectory | Iterable[TrajectoryRecord]
                  ) -> Trajectory:
    """The columns themselves, or columns built from plain records."""
    if isinstance(trajectory, Trajectory):
        return trajectory
    return Trajectory.from_records(trajectory)
