"""Exact work per vehicle-step of each engine phase, in bytecodes.

Run from the repository root:

    python3 opcount.py --unit default              # run(), default params
    python3 opcount.py --unit dense --duration 50  # the dense_corridor road

One unit runs once under ``sys.settrace`` opcode events and one JSON line
is printed: bytecodes per vehicle-step for each entry of
``platoonflow.sim.PHASES``, for ``step``'s own loop and in total;
follower and leader kernel calls per vehicle-step; and the share of
follower decisions that reuse the previous solve.  The counts depend on
the code and the Python version only, not on the host's speed, so two
processes on the same code print the same line.

A phase's frames are those of the code object that ``getattr(sim,
name)`` holds when the count starts, so a rebound phase is counted as
what runs; a call made inside a phase counts toward that phase.  Work
done in C (``%`` formatting, numpy, ``math.exp``) is not seen, and every
bytecode counts as one whatever it costs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from platoonflow import RoadNetwork, SimParams, sim  # noqa: E402
from platoonflow import _kernels_py as kernels  # noqa: E402

# The dense unit's simulated seconds: a window of dense_corridor's run.
DENSE_WINDOW = 100.0


def dense_road() -> dict:
    """``perfbench/worker.py``'s ``DENSE_ROAD``, the dense_corridor road,
    imported without writing bytecode under ``perfbench/``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import DENSE_ROAD
    return DENSE_ROAD


def unit_params(unit: str, duration: float | None) -> SimParams:
    """Seed 0 of the ``unit``, over ``duration`` simulated seconds when
    given (the unit's own otherwise)."""
    if unit == "default":
        params = SimParams(seed=0)
    else:
        params = SimParams(seed=0, duration=DENSE_WINDOW,
                           road=RoadNetwork(**dense_road()))
    return params if duration is None else replace(params, duration=duration)


def count(params: SimParams) -> dict:
    """Run ``sim.run(params)`` under opcode tracing and return the
    figures of the module docstring."""
    buckets = (*sim.PHASES, "step")
    codes = {getattr(sim, name).__code__: name for name in buckets}
    follower = kernels.follower_decision.__code__
    leader = kernels.leader_decision.__code__
    ops = dict.fromkeys(buckets, 0)
    calls = {"follower": 0, "leader": 0, "vsteps": 0}

    def counter(bucket):
        def trace(frame, event, arg):
            if event == "opcode":
                ops[bucket] += 1
            return trace
        return trace

    tracers = {name: counter(name) for name in buckets}

    def on_call(frame, event, arg):
        code = frame.f_code
        name = codes.get(code)
        if name is not None:
            tracer = tracers[name]
            if name == "step":
                calls["vsteps"] += len(frame.f_locals["world"].vehicles)
        else:
            # Any other frame counts toward the frame that called it,
            # and is not counted outside ``step``.
            caller = frame.f_back
            tracer = caller.f_trace if caller is not None else None
            if tracer is None:
                return None
            if code is follower:
                calls["follower"] += 1
            elif code is leader:
                calls["leader"] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return tracer

    sys.settrace(on_call)
    try:
        sim.run(params)
    finally:
        sys.settrace(None)

    vsteps = calls["vsteps"]
    if not vsteps:
        raise ValueError("the unit ran no vehicle-step to count")
    per = {name: round(ops[name] / vsteps, 4) for name in buckets}
    per["total"] = round(sum(ops.values()) / vsteps, 4)
    # Every head is solved each step, so the rest of the decisions are
    # the followers', solved or reused.
    decisions = vsteps - calls["leader"]
    return {
        "vsteps": vsteps,
        "bytecodes_per_vstep": per,
        "follower_calls_per_vstep": round(calls["follower"] / vsteps, 6),
        "leader_calls_per_vstep": round(calls["leader"] / vsteps, 6),
        "follower_reuse": (round(1.0 - calls["follower"] / decisions, 6)
                           if decisions else None),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unit", choices=("default", "dense"),
                        default="default",
                        help="default: run() at default params, seed 0, "
                             f"{SimParams().duration:g} s; dense: the "
                             f"dense_corridor road, seed 0, {DENSE_WINDOW:g} s")
    parser.add_argument("--duration", type=float,
                        help="simulated seconds, in place of the unit's")
    args = parser.parse_args(argv)
    params = unit_params(args.unit, args.duration)
    try:
        figures = count(params)
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps({"unit": args.unit, "duration": params.duration,
                      **figures}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
