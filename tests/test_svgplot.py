"""The time-space renderer against its per-row reference."""

import pytest

import platoonflow.svgplot as svgplot
from platoonflow import SimParams
from platoonflow.svgplot import PALETTE, _fmt, _points, render_timespace

from conftest import hand_built

SHORT = SimParams(duration=40.0, seed=1)


def reference_vehicle_paths(tr, lo_t, hi_t, sx, sy):
    """The vehicle polylines and squares built row by row, as the
    renderer did before it read whole columns."""
    points = {}
    first = {}
    last = {}
    vids, ps = tr.vehicle_id, tr.p
    for time, start, stop in tr.steps():
        if lo_t <= time <= hi_t:
            x = sx(time)
            x_text = _fmt(x) + ","
            for i in range(start, stop):
                vid = vids[i]
                y = sy(ps[i])
                pts = points.get(vid)
                if pts is None:
                    points[vid] = pts = []
                    first[vid] = (x, y)
                pts.append(x_text + _fmt(y))
                last[vid] = (x, y)
    parts = []
    for vid in sorted(points):
        color = PALETTE[vid % len(PALETTE)]
        pts = " ".join(points[vid])
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.1"/>'
        )
        for (x, y), fill in ((first[vid], color), (last[vid], "none")):
            parts.append(
                f'<rect x="{_fmt(x - 2.2)}" y="{_fmt(y - 2.2)}" '
                f'width="4.4" height="4.4" fill="{fill}" '
                f'stroke="{color}" stroke-width="0.9"/>'
            )
    return parts


def assert_matches_reference(monkeypatch, trajectory, t0=None, t1=None):
    svg = render_timespace(trajectory, t0, t1)
    with monkeypatch.context() as m:
        m.setattr(svgplot, "_vehicle_paths", reference_vehicle_paths)
        expected = render_timespace(trajectory, t0, t1)
    assert svg == expected
    return svg


@pytest.mark.parametrize("ys", [
    [12.0, 7.5, 3.05, 0.0, -0.0],
    [0.001, -0.004, 0.005, 99.995, 100.0, 10.1],
    [float("nan"), float("inf"), -float("inf"), 1e20, -1e20],
    [-12.0, -7.5, -3.05, -0.5, -10.0, -100.25],
    [250.0], [-0.0], [float("nan")], [3.5]],
    ids=["round_half_tenth", "rounding", "not_finite_and_huge", "negative",
         "one_point", "one_negative_zero", "one_nan", "one_half"])
def test_points_are_the_joined_fmt_texts(ys):
    x_texts = [_fmt(62.0 + 8.25 * i) + "," for i in range(len(ys))]
    assert _points(x_texts, ys) \
        == " ".join(x + _fmt(y) for x, y in zip(x_texts, ys))


def test_the_whole_run(monkeypatch, short_run):
    svg = assert_matches_reference(monkeypatch, short_run.trajectory)
    assert svg.count("<polyline") == len(set(short_run.trajectory.vehicle_id))


def test_a_one_step_window(monkeypatch, short_run):
    times = short_run.trajectory.times
    t = times[100]
    svg = assert_matches_reference(monkeypatch, short_run.trajectory,
                                   t - 0.25 * SHORT.dt, t + 0.25 * SHORT.dt)
    assert svg.count("<polyline") == short_run.trajectory.offsets[101] \
        - short_run.trajectory.offsets[100]


def test_a_window_whose_ends_are_step_stamps(monkeypatch, short_run):
    times = short_run.trajectory.times
    assert_matches_reference(monkeypatch, short_run.trajectory,
                             times[40], times[90])


@pytest.mark.parametrize("where", ["between_steps", "after_the_run"])
def test_a_window_with_no_steps(monkeypatch, short_run, where):
    times = short_run.trajectory.times
    if where == "between_steps":
        window = (times[7] + 0.25 * SHORT.dt, times[8] - 0.25 * SHORT.dt)
    else:
        window = (times[-1] + 1.0, times[-1] + 2.0)
    svg = assert_matches_reference(monkeypatch, short_run.trajectory,
                                   *window)
    assert "<polyline" not in svg


def test_record_lists_and_one_step_vehicles(monkeypatch):
    # Vehicles 4 and 1 in two steps; 7 and 12 in one step each.
    tr, _ = hand_built([
        (0.1, [(4, 300.0, 25.0), (1, 250.0, 25.0)]),
        (0.2, [(7, 400.0, 25.0), (4, 302.5, 25.0), (1, 252.5, 25.0)]),
        (0.3, [(12, 120.0, 25.0)])], SimParams(duration=0.3))
    svg = assert_matches_reference(monkeypatch, tr)
    assert svg.count("<polyline") == 4
    assert_matches_reference(monkeypatch, tr, 0.15, 0.3)


def test_the_default_window_ends_at_the_runs_duration(short_run):
    tr = short_run.trajectory
    assert tr.params.duration == SHORT.duration
    svg = render_timespace(tr)
    assert svg == render_timespace(tr, 0.0, tr.params.duration)
    assert svg != render_timespace(tr, 0.0, SimParams().duration)


@pytest.mark.parametrize("window", [
    (0.0, float("nan")), (float("nan"), 3.0), (-float("inf"), 3.0),
    (0.0, float("inf"))], ids=["nan_end", "nan_start", "inf_start",
                               "inf_end"])
def test_a_window_that_is_not_finite_is_refused(short_run, window):
    with pytest.raises(ValueError, match=r"time window \[.*\] is not finite"):
        render_timespace(short_run.trajectory, *window)
