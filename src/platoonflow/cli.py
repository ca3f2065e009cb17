"""Command-line front end: config parsing, run driving, artifact writing.

The configuration file is YAML with a fixed section layout; unknown
sections or keys are hard errors naming the offending dotted path, so
experiment typos fail loudly instead of silently running defaults.
Command-line overrides win over file values, and the effective
configuration is echoed next to the outputs so any run can be redone
from its artifacts alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Optional

import yaml

from .analysis import summarize
from .core import DragCoefficients, RoadNetwork, SimParams, validate_params
from .sim import Event, SimResult, run
from .svgplot import render_timespace
from .trajectory import (
    MODE_NAMES,
    Trajectory,
    TrajectoryRecord,
    as_trajectory,
)


class ConfigError(ValueError):
    """Bad configuration file, key, value, or override."""


def _need_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: {value} does not fit a float") from None


def _need_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _need_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _need_positions(value: object, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, (int, float))
            for x in value):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    return tuple(_need_number(x, path) for x in value)


_SCHEMA = {
    "run": {"seed": _need_int, "duration": _need_number, "dt": _need_number},
    "vehicle": {"v_min": _need_number, "v_max": _need_number,
                "a_min": _need_number, "a_max": _need_number},
    "control": {"delta": _need_number, "eps_g": _need_number,
                "eps_d": _need_number, "gamma": _need_number,
                "worst_case_pred_accel": _need_bool,
                "enforce_deadlines": _need_bool},
    "formation": {"gap_tol": _need_number, "speed_tol": _need_number},
    "drag": {"c0": _need_number, "c1": _need_number, "c2": _need_number},
    "road": {"length": _need_number, "on_ramps": _need_positions,
             "off_ramps": _need_positions},
}

# config keys whose SimParams field is named differently
_FIELD_NAMES = {
    ("formation", "gap_tol"): "eps_platoon_gap",
    ("formation", "speed_tol"): "eps_platoon_speed",
}


def params_from_dict(raw: object) -> SimParams:
    """Build validated SimParams from a parsed config mapping."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    kwargs: dict[str, object] = {}
    drag_kw: dict[str, float] = {}
    road_kw: dict[str, object] = {}
    for section, content in raw.items():
        schema = _SCHEMA.get(section)
        if schema is None:
            raise ConfigError(f"unknown config section: {section}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected a mapping of keys")
        for key, value in content.items():
            convert = schema.get(key)
            if convert is None:
                raise ConfigError(f"unknown config key: {section}.{key}")
            parsed = convert(value, f"{section}.{key}")
            if section == "drag":
                drag_kw[key] = parsed
            elif section == "road":
                road_kw[key] = parsed
            else:
                kwargs[_FIELD_NAMES.get((section, key), key)] = parsed
    if drag_kw:
        kwargs["drag"] = DragCoefficients(**drag_kw)
    if road_kw:
        kwargs["road"] = RoadNetwork(**road_kw)
    params = SimParams(**kwargs)
    _validate_or_raise(params)
    return params


def _validate_or_raise(params: SimParams) -> None:
    problems = validate_params(params)
    if problems:
        raise ConfigError("; ".join(problems))


def parse_config(path: str | Path) -> SimParams:
    """Read a YAML config file; missing keys take the built-in defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return params_from_dict(raw)


def params_to_dict(params: SimParams) -> dict[str, dict[str, object]]:
    """Inverse of params_from_dict, used for the config echo."""
    return {
        "run": {"seed": params.seed, "duration": params.duration,
                "dt": params.dt},
        "vehicle": {"v_min": params.v_min, "v_max": params.v_max,
                    "a_min": params.a_min, "a_max": params.a_max},
        "control": {"delta": params.delta, "eps_g": params.eps_g,
                    "eps_d": params.eps_d, "gamma": params.gamma,
                    "worst_case_pred_accel": params.worst_case_pred_accel,
                    "enforce_deadlines": params.enforce_deadlines},
        "formation": {"gap_tol": params.eps_platoon_gap,
                      "speed_tol": params.eps_platoon_speed},
        "drag": {"c0": params.drag.c0, "c1": params.drag.c1,
                 "c2": params.drag.c2},
        "road": {"length": params.road.length,
                 "on_ramps": list(params.road.on_ramps),
                 "off_ramps": list(params.road.off_ramps)},
    }


_CSV_HEADER = ("t", "id", "platoon_id", "p", "v", "a", "u", "drag",
               "gs_margin", "deadline_margin", "mode")


def _sig(x: float) -> str:
    return f"{x:.6g}"


def trajectory_csv_text(trajectory: Trajectory | Iterable[TrajectoryRecord]
                        ) -> str:
    """CSV of every record, ordered by time and then vehicle id."""
    tr = as_trajectory(trajectory)
    vid, pid, mode = tr.vehicle_id, tr.platoon_id, tr.mode
    p, v, accel, u, drag = tr.p, tr.v, tr.accel, tr.u, tr.drag
    gs, dm = tr.gs_margin, tr.deadline_margin
    # One string per step, not per row: a list of rows would hold one
    # string object per record until the final join.
    steps = [",".join(_CSV_HEADER) + "\n"]
    for time, start, stop in tr.steps():
        t = _sig(time)
        steps.append("".join(
            f"{t},{vid[i]},{pid[i]},{p[i]:.6g},{v[i]:.6g},{accel[i]:.6g},"
            f"{u[i]:.6g},{drag[i]:.6g},{gs[i]:.6g},{dm[i]:.6g},"
            f"{MODE_NAMES[mode[i]]}\n"
            for i in sorted(range(start, stop), key=vid.__getitem__)))
    return "".join(steps)


def events_csv_text(events: Iterable[Event]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("t", "kind", "id", "detail"))
    for ev in events:
        writer.writerow([_sig(ev.time), ev.kind, ev.vehicle_id, ev.detail])
    return buf.getvalue()


def metrics_text(result: SimResult, params: SimParams) -> str:
    lines = []
    for key, value in summarize(result, params).items():
        text = _sig(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def emit_outputs(result: SimResult, params: SimParams, out_dir: Path,
                 plot_window: Optional[tuple[float, float]] = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.csv").write_text(
        trajectory_csv_text(result.trajectory))
    (out_dir / "events.csv").write_text(events_csv_text(result.events))
    (out_dir / "metrics.txt").write_text(metrics_text(result, params))
    (out_dir / "config.echo").write_text(
        yaml.safe_dump(params_to_dict(params), sort_keys=False))
    if plot_window is not None:
        (out_dir / "timespace.svg").write_text(render_timespace(
            result.trajectory, params, plot_window[0], plot_window[1]))


def _parse_window(text: str) -> tuple[float, float]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ConfigError(f"--plot expects T_A:T_B, got {text!r}")
    try:
        return float(head), float(tail)
    except ValueError as exc:
        raise ConfigError(f"--plot expects numbers, got {text!r}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    params = parse_config(args.config)
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.dt is not None:
        overrides["dt"] = args.dt
    if overrides:
        params = replace(params, **overrides)
        _validate_or_raise(params)
    window = None
    if args.plot is not None:
        t0, t1 = _parse_window(args.plot)
        if not 0.0 <= t0 < t1 <= params.duration:
            raise ConfigError(
                f"plot window [{t0:g}, {t1:g}] is not inside the run "
                f"horizon [0, {params.duration:g}]"
            )
        window = (t0, t1)
    result = run(params)
    emit_outputs(result, params, args.out, window)
    print(f"wrote {args.out}/trajectory.csv "
          f"({len(result.trajectory)} records, {len(result.events)} events)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all
    params = parse_config(args.config) if args.config else SimParams()
    failed = []
    # Each check's wall time goes to stderr, so stdout stays the same
    # from run to run.  The shared corpus is built inside the first
    # check that reads it, and its time is counted there.
    start = perf_counter()
    for check in run_all(params):
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: {check.detail}")
        now = perf_counter()
        print(f"time  {check.name}: {now - start:.2f} s", file=sys.stderr)
        start = now
        if not check.passed:
            failed.append(check.name)
    if failed:
        print("failing checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    print("all acceptance checks passed")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="platoonflow",
        description="Decentralized highway platooning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and write run artifacts")
    p_run.add_argument("--config", required=True, type=Path,
                       help="YAML configuration file")
    p_run.add_argument("--seed", type=int, help="override run.seed")
    p_run.add_argument("--duration", type=float,
                       help="override run.duration (seconds)")
    p_run.add_argument("--dt", type=float, help="override run.dt (seconds)")
    p_run.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: out)")
    p_run.add_argument("--plot", metavar="T_A:T_B",
                       help="also write timespace.svg over this time window")

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--config", type=Path,
                          help="YAML configuration file (defaults apply "
                               "when omitted)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
