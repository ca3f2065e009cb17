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
import re
import sys
from dataclasses import replace
from operator import attrgetter, itemgetter
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional

import yaml

from . import sim
from .analysis import summarize
from .core import (_DECLARED, _RAMPS, SimParams, SimulationError, _fault,
                   _shown, validate_params)
from .sim import Event, SimResult, run
from .svgplot import render_timespace
# trajectory_csv_text stays bound here: the benchmark wraps and imports it.
from .trajectory import _sig, trajectory_csv_blocks, trajectory_csv_text


class ConfigError(ValueError):
    """Bad configuration file, key, value, or override."""


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, but reading a number with an exponent as
    YAML 1.2 does: ``1e-3`` is a float, where YAML 1.1 reads it as text.
    Any scalar YAML 1.1 reads as a number reads the same."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


# The config keys of each section, in the order the echo writes them.
_SCHEMA = {
    "run": ("seed", "duration", "dt"),
    "vehicle": ("v_min", "v_max", "a_min", "a_max"),
    "control": ("delta", "eps_g", "eps_d", "gamma", "worst_case_pred_accel",
                "enforce_deadlines"),
    "formation": ("gap_tol", "speed_tol"),
    "drag": ("c0", "c1", "c2"),
    "road": ("length", "on_ramps", "off_ramps"),
}
# The dotted SimParams setting of each config key ``section.key``: a key
# of a section held in a field of its own (``drag``, ``road``) is that
# field's setting, any other the SimParams field of its name, bar two.
_SETTING_OF = {
    f"{section}.{key}": f"{section}.{key}" if section in _DECLARED else key
    for section, keys in _SCHEMA.items() for key in keys
} | {"formation.gap_tol": "eps_platoon_gap",
     "formation.speed_tol": "eps_platoon_speed"}
_KEY_OF = {setting: key for key, setting in _SETTING_OF.items()}


def _setting_value(key: str, value: object) -> object:
    """Config ``key``'s value as its setting holds it: a float for a
    float setting, a tuple of floats for a ramp one, where YAML gives an
    int or a list.  A value its setting's type rule (``core._fault``)
    refuses is a ConfigError naming ``key``."""
    kind = _DECLARED[_SETTING_OF[key]]
    if kind == _RAMPS:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {_shown(value)}")
        value = tuple(value)
    if fault := _fault(kind, value):
        raise ConfigError(f"{key} {fault}")
    if kind == _RAMPS:
        return tuple(map(float, value))
    return float(value) if kind is float else value


def params_from_dict(raw: object) -> SimParams:
    """Build validated SimParams from a parsed config mapping."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    # The settings given, by the section field that holds them ("" for
    # SimParams itself).
    fields: dict[str, dict[str, object]] = {}
    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected a mapping of keys")
        for key, value in content.items():
            key = f"{section}.{key}"
            if key not in _SETTING_OF:
                raise ConfigError(f"unknown config key: {key}")
            owner, _, name = _SETTING_OF[key].rpartition(".")
            fields.setdefault(owner, {})[name] = _setting_value(key, value)
    kwargs = fields.pop("", {})
    for owner, values in fields.items():
        kwargs[owner] = _DECLARED[owner](**values)
    params = SimParams(**kwargs)
    _validate_or_raise(params)
    return params


def _validate_or_raise(params: SimParams) -> None:
    """Raise every problem ``validate_params`` finds in ``params`` as one
    ConfigError, each setting named before a message's ``got`` value
    named by its config key."""
    problems = [re.sub(r"[\w.]+", lambda m: _KEY_OF.get(m[0], m[0]), rule)
                + got + value for rule, got, value
                in (p.partition(" got ") for p in validate_params(params))]
    if problems:
        raise ConfigError("; ".join(problems))


def parse_config(path: str | Path) -> SimParams:
    """Read a YAML config file; missing keys take the built-in defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, _Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: 4300+ digits
        raise ConfigError(f"{path}: {exc}") from exc
    return params_from_dict(raw)


def params_to_dict(params: SimParams) -> dict[str, dict[str, object]]:
    """Inverse of params_from_dict, used for the config echo."""
    out: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for key, setting in _SETTING_OF.items():
        section, _, name = key.partition(".")
        value = attrgetter(setting)(params)
        out[section][name] = list(value) if isinstance(value, tuple) else value
    return out


# The ``detail`` column of each event kind, formatted from its facts.
_EVENT_DETAIL = {
    sim.EVENT_SPAWN: "entry=%g exit=%g v=%.3f",
    sim.EVENT_DISCARD: "entry=%g v=%.3f",
    sim.EVENT_EXIT: "at %g",
    sim.EVENT_SPLIT: "platoon %d -> %d",
    sim.EVENT_MERGE: "platoon %d -> %d",
    sim.EVENT_RELAX: "margin %.3f",
    sim.EVENT_RECOVER: "margin %.3f",
}


def events_csv_text(events: Iterable[Event]) -> str:
    return "t,kind,id,detail\n" + "".join([
        f"{_sig(ev.time)},{ev.kind},{ev.vehicle_id},"
        f"{_EVENT_DETAIL[ev.kind] % ev.facts}\n" for ev in events])


def metrics_text(result: SimResult) -> str:
    lines = []
    for key, value in summarize(result).items():
        text = _sig(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _make_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc


def _replace(path: Path, chunks: Optional[Iterable[str]]) -> None:
    """Replace ``path`` by a new file holding ``chunks``, written one
    after another as they are made, or only remove it when ``chunks`` is
    None.

    Unlinking first makes every write one to a fresh file, and a write
    that raises part way removes it again.  Truncating
    a file written moments before costs a flush of its old blocks on
    ext4 (``auto_da_alloc``), many times the write itself.  So a symlink
    or hard link at ``path`` is replaced, and its target left alone.
    """
    try:
        path.unlink(missing_ok=True)
        if chunks is not None:
            with path.open("w") as f:
                try:
                    f.writelines(chunks)
                except BaseException:
                    # A chunk that fails to build or to write leaves no
                    # short file that reads like a whole one.
                    path.unlink()
                    raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# The files a run writes into its output directory, in writing order.
_ARTIFACTS = ("trajectory.csv", "events.csv", "metrics.txt", "config.echo",
              "timespace.svg")


def _artifact_texts(result: SimResult,
                    plot_window: Optional[tuple[float, float]]
                    ) -> Iterator[Optional[Iterable[str]]]:
    """The text of each of ``_ARTIFACTS`` in turn, as chunks built when
    written; None for the plot without ``plot_window``."""
    tr = result.trajectory
    # ``map`` keeps no block alive while it makes the next one.
    yield map(itemgetter(2), trajectory_csv_blocks(tr))
    yield (events_csv_text(result.events),)
    yield (metrics_text(result),)
    yield (yaml.safe_dump(params_to_dict(tr.params), sort_keys=False),)
    yield None if plot_window is None else (
        render_timespace(tr, plot_window[0], plot_window[1]),)


def emit_outputs(result: SimResult, out_dir: Path,
                 plot_window: Optional[tuple[float, float]] = None) -> None:
    """Write the run's artifacts into ``out_dir``, replacing earlier ones;
    the config echo holds the run's params, ``result.trajectory.params``.

    Without ``plot_window`` an earlier run's ``timespace.svg`` is
    removed, so the directory never mixes two runs.
    """
    _make_out_dir(out_dir)
    for name, chunks in zip(_ARTIFACTS,
                            _artifact_texts(result, plot_window)):
        _replace(out_dir / name, chunks)


def _parse_window(text: str) -> tuple[float, float]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ConfigError(f"--plot expects T_A:T_B, got {text!r}")
    try:
        return float(head), float(tail)
    except ValueError as exc:
        raise ConfigError(f"--plot expects numbers, got {text!r}") from exc


# The ``run`` flags that override the SimParams field of the same name.
_OVERRIDES = ("seed", "duration", "dt")


def _cmd_run(args: argparse.Namespace) -> int:
    params = parse_config(args.config)
    overrides = {name: getattr(args, name) for name in _OVERRIDES
                 if getattr(args, name) is not None}
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
    # An unwritable --out fails now, not after the whole simulation, and
    # a run stopped by an engine audit leaves no earlier run's artifacts.
    _make_out_dir(args.out)
    for name in _ARTIFACTS:
        _replace(args.out / name, None)
    try:
        result = run(params)
    except SimulationError as exc:
        raise SimulationError(
            f"{exc}; no artifacts written to {args.out}") from exc
    emit_outputs(result, args.out, window)
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
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
