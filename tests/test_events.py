"""The events agree with the trajectory.

Each event shows in the columns where the step it was stamped in left
it:

- a spawn ``(entry, exit_pos, v0)`` is its vehicle's first row, at the
  event's stamp, with ``p == entry``, ``v == v0`` and ``accel == 0.0``;
- an exit is stamped one stored step after its vehicle's last row;
- a split or merge ``(old, new)`` leaves its vehicle's row at the stamp
  in platoon ``new``;
- a ``deadline_relax`` sets, and a ``deadline_recover`` clears, bit 1 of
  the mode of its vehicle's next row, since the ``mode`` column holds
  the mode that produced the row's command.  An event whose vehicle has
  no later row shows nowhere.

And the columns change only where an event says so: every vehicle on
record was spawned, every vehicle gone before the last step exited, and
every change of a vehicle's ``platoon_id`` from one row to its next is
what the step's splits and merges make of it.  They apply in the order
they came, each to the rows of its own vehicle and of the vehicles
behind it in the step, and only to a row whose platoon id so far is the
event's ``old``.
"""

from bisect import bisect_left
from dataclasses import replace

import pytest

from platoonflow.sim import (EVENT_EXIT, EVENT_MERGE, EVENT_RECOVER,
                             EVENT_RELAX, EVENT_SPAWN, EVENT_SPLIT)

from conftest import RUNS


def disagreements(tr, events):
    """Each way in which ``events`` and the columns of ``tr`` disagree,
    described in a line."""
    vid, pid, mode = tr.vehicle_id, tr.platoon_id, tr.mode
    times = list(tr.times)
    row_at = {}  # (step, vehicle id) -> row
    rows_of = {}  # vehicle id -> its rows, in time order
    for k, (_, start, stop) in enumerate(tr.steps()):
        for i in range(start, stop):
            row_at[k, vid[i]] = i
            rows_of.setdefault(vid[i], []).append((k, i))
    relabels = {}  # step -> its splits and merges, in event order
    spawned, exited = set(), set()
    out = []
    for e in events:
        rows = rows_of.get(e.vehicle_id, [])
        # The step stamped at the event's time, if one was stored.
        k = bisect_left(times, e.time)
        stored = k < len(times) and times[k] == e.time
        if e.kind == EVENT_SPAWN:
            spawned.add(e.vehicle_id)
            entry, _, v0 = e.facts
            first = rows[0][1] if rows else None
            if (first is None or not stored or rows[0][0] != k
                    or (tr.p[first], tr.v[first], tr.accel[first])
                    != (entry, v0, 0.0)):
                out.append(f"{e}: not the vehicle's first row")
        elif e.kind == EVENT_EXIT:
            exited.add(e.vehicle_id)
            if not rows or rows[-1][0] != k - 1:
                out.append(f"{e}: the vehicle's last row is not one "
                           f"stored step before it")
        elif e.kind in (EVENT_SPLIT, EVENT_MERGE):
            relabels.setdefault(k, []).append(e)
            i = row_at.get((k, e.vehicle_id)) if stored else None
            if i is None or pid[i] != e.facts[1]:
                out.append(f"{e}: the vehicle's row is not in the new "
                           f"platoon")
        elif e.kind in (EVENT_RELAX, EVENT_RECOVER):
            later = [i for step, i in rows if times[step] > e.time]
            if later and bool(mode[later[0]] & 2) != (e.kind == EVENT_RELAX):
                out.append(f"{e}: bit 1 of the next row's mode disagrees")

    last = len(times) - 1
    for v, rows in rows_of.items():
        if v not in spawned:
            out.append(f"vehicle {v} is on record but never spawned")
        if rows[-1][0] < last and v not in exited:
            out.append(f"vehicle {v} left the road with no exit event")
        for (_, before), (k, i) in zip(rows, rows[1:]):
            so_far = pid[before]
            for e in relabels.get(k, ()):
                j = row_at.get((k, e.vehicle_id))
                if j is not None and j <= i and e.facts[0] == so_far:
                    so_far = e.facts[1]
            if so_far != pid[i]:
                out.append(f"t={times[k]}: vehicle {v} in platoon "
                           f"{pid[i]}, where its events leave it in "
                           f"{so_far}")
    return out


@pytest.mark.parametrize("name", RUNS)
def test_the_events_agree_with_the_trajectory(run_of, name):
    result = run_of(RUNS[name])
    assert len(result.events) > 300
    assert disagreements(result.trajectory, result.events) == []


def planted(events, kind, change):
    """``events`` with the first event of ``kind`` changed by ``change``,
    a function of the old value by field name."""
    i = [e.kind for e in events].index(kind)
    e = events[i]
    e = replace(e, **{name: f(getattr(e, name)) for name, f in change.items()})
    return events[:i] + [e] + events[i + 1:]


@pytest.mark.parametrize("kind,change", [
    (EVENT_SPLIT, {"facts": lambda facts: facts[::-1]}),
    (EVENT_MERGE, {"facts": lambda facts: facts[::-1]}),
    (EVENT_SPAWN, {"time": lambda t: t + 1.0}),
    (EVENT_EXIT, {"time": lambda t: t + 1.0}),
    (EVENT_MERGE, {"time": lambda t: t + 1.0}),
    (EVENT_RELAX, {"kind": lambda kind: EVENT_RECOVER}),
], ids=["split_old_and_new_swapped", "merge_old_and_new_swapped",
        "spawn_a_second_late", "exit_a_second_late", "merge_a_second_late",
        "relax_as_recover"])
def test_a_planted_disagreement_is_caught(short_run, kind, change):
    events = planted(short_run.events, kind, change)
    assert events != short_run.events
    assert disagreements(short_run.trajectory, events) != []
