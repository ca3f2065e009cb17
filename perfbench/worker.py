"""One workload in one fresh, single-threaded process.

``run.py`` starts this file; it is not meant to be run by hand.

    worker.py --workload W --seed N --setup-only
        set up once and print {"setup_s": ...}
    worker.py --workload W --seed N --seconds S --trace 0|1
        set up, run passes for S seconds, check every pass, print the
        result as one JSON line

A timed run (``--trace 0``) repeats units of work until S seconds have
passed; a unit is one pass, or for ``cli_default`` one rotation of its
seeds.  A traced run (``--trace 1``) first times one unit untraced, then
wraps every layer (see tracing.py) and repeats traced units for S seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from clock import Clock  # noqa: E402
from tracing import (  # noqa: E402
    EXACT_COUNTS, FIELDS, SIM_PHASES, Tracer, deep_size, instrument, rebind)

# cli_default: one rotation visits these many simulation seeds.
CLI_ROTATION = 4
CLI_PLOT = "20:120"
CLI_ARTIFACTS = ("trajectory.csv", "events.csv", "metrics.txt",
                 "config.echo", "timespace.svg")

# dense_corridor: a long road whose steady state holds about 130
# vehicles, well above the ~50-vehicle density where per-step overhead
# and per-vehicle cost trade places.
DENSE_ROAD = {"length": 6000.0, "on_ramps": (100.0, 600.0, 1100.0),
              "off_ramps": (3000.0, 4500.0)}
DENSE_DURATION = 400.0

REFERENCE = json.loads((HERE / "reference.json").read_text())
# verify_suite passes only when exactly these checks run and pass.
VERIFY_CHECKS = tuple(REFERENCE["verify_suite_passes"])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """Digest of the package source, so cached digests follow the code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Expected:
    """Digests every pass must reproduce.

    The reference seed has committed digests in reference.json.  For any
    other seed the first digest seen for a key is the expectation: within
    the run, and across runs of the same source in this checkout, through
    a cache file under out/digests.
    """

    def __init__(self, workload: str, seed: int):
        self.reference = (REFERENCE["digests"].get(workload, {})
                          if seed == REFERENCE["seed"] else {})
        self.cache = (OUT / "digests"
                      / f"{workload}-{seed}-{source_digest()}.json")
        self.seen = (json.loads(self.cache.read_text())
                     if self.cache.exists() else {})
        self.dirty = False

    def check(self, key: str, digests: dict[str, str]) -> list[str]:
        expected = self.reference.get(key) or self.seen.get(key)
        if expected is None:
            self.seen[key] = digests
            self.dirty = True
            return []
        return [f"{key}/{name}: digest {digests.get(name, 'missing')[:16]} "
                f"!= expected {want[:16]}"
                for name, want in expected.items()
                if digests.get(name) != want]

    def save(self) -> None:
        if self.dirty:
            self.cache.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.cache.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
            os.replace(tmp, self.cache)


class CliDefault:
    """``platoonflow run --plot 20:120`` on the default scenario, in
    process through ``cli.main``, one simulation seed per pass."""

    unit_passes = CLI_ROTATION

    def __init__(self, seed: int, workdir: Path):
        self.sim_seeds = [seed * CLI_ROTATION + k for k in range(CLI_ROTATION)]
        self.configs = []
        for s in self.sim_seeds:
            path = workdir / f"seed{s}.yaml"
            path.write_text(f"run:\n  seed: {s}\n")
            self.configs.append(path)
        self.out = workdir / "artifacts"

    def setup(self) -> None:
        import platoonflow  # noqa: F401
        import platoonflow.cli as cli
        self.cli = cli
        self.params = cli.parse_config(self.configs[0])

    def run_pass(self, k: int):
        argv = ["run", "--config", str(self.configs[k]),
                "--out", str(self.out), "--plot", CLI_PLOT]
        with redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def check(self, k: int, status, expected: Expected) -> list[str]:
        if status != 0:
            return [f"cli.main returned {status}"]
        digests = {name: sha256((self.out / name).read_bytes())
                   for name in CLI_ARTIFACTS}
        return expected.check(f"seed{self.sim_seeds[k]}", digests)


class DenseCorridor:
    """Library ``run()`` on a 6 km road for 400 s; no artifacts."""

    unit_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        import platoonflow
        import platoonflow.sim as sim
        self.sim = sim
        params = platoonflow.SimParams(
            seed=self.seed, duration=DENSE_DURATION,
            road=platoonflow.RoadNetwork(**DENSE_ROAD))
        problems = platoonflow.validate_params(params)
        if problems:
            raise ValueError("; ".join(problems))
        self.params = params

    def run_pass(self, k: int):
        return self.sim.run(self.params)

    def check(self, k: int, result, expected: Expected) -> list[str]:
        csv_text = self.csv_text(result.trajectory).encode()
        return expected.check("trajectory_csv",
                              {"trajectory_csv_text": sha256(csv_text)})

    def prepare_checks(self) -> None:
        from platoonflow.cli import trajectory_csv_text
        self.csv_text = trajectory_csv_text


class VerifySuite:
    """``verify.run_all(SimParams())``: the ten acceptance checks on the
    shared 50-seed corpus."""

    unit_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        import platoonflow
        import platoonflow.verify as verify
        self.verify = verify
        self.params = platoonflow.SimParams(seed=self.seed)

    def run_pass(self, k: int):
        return list(self.verify.run_all(self.params))

    def check(self, k: int, results, expected: Expected) -> list[str]:
        names = tuple(r.name for r in results)
        problems = [f"{r.name} FAIL: {r.detail}"
                    for r in results if not r.passed]
        if names != VERIFY_CHECKS:
            problems.append(f"checks ran: {names}")
        return problems


KINDS = {"cli_default": CliDefault, "dense_corridor": DenseCorridor,
         "verify_suite": VerifySuite}


def set_up(workload: str, seed: int, workdir: Path):
    """Build the workload; return it with its raw and rescaled set-up s."""
    job = KINDS[workload](seed, workdir)
    clock = Clock()
    clock.start()
    job.setup()
    raw, scaled = clock.stop()
    return job, raw, scaled


class Passes:
    """Timed passes, each checked once its clock has stopped."""

    def __init__(self, job, expected: Expected):
        self.job = job
        self.expected = expected
        self.clock = Clock()
        self.tracer: Tracer | None = None
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def unit(self) -> float:
        """Run one unit of passes; return its rescaled time."""
        total = 0.0
        for k in range(self.job.unit_passes):
            gc.collect()
            output = None
            index = len(self.times)
            if self.tracer is not None:
                self.tracer.pass_index = index
            t0 = time.perf_counter()
            self.clock.start()
            try:
                output = self.job.run_pass(k)
            except Exception:  # a failed pass is counted, the run goes on
                problems = [traceback.format_exc(limit=3)]
            else:
                problems = None
            raw, scaled = self.clock.stop()
            if self.tracer is not None:
                self.tracer.spans.append({
                    "name": "pass", "pass": index, "parent": None,
                    "start": t0, "end": time.perf_counter()})
            if problems is None:
                problems = self.job.check(k, output, self.expected)
            del output
            total += scaled
            self.times.append(scaled)
            self.raw_times.append(raw)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                for line in problems:
                    print(f"pass {index + 1}: {line}", file=sys.stderr)
        return total

    def result(self) -> dict:
        return {"pass_times": self.times, "raw_pass_times": self.raw_times,
                "failed": self.failed, "problems": self.problems}


def time_runs(clock: Clock) -> dict:
    """Make every engine step tick ``clock`` and time every ``run()`` on
    it; return the running totals of the ``run()`` calls."""
    import platoonflow.sim as sim
    totals = {"calls": 0, "seconds": 0.0, "records": 0}
    step, run = sim.step, sim.run

    def ticking_step(*args, **kwargs):
        result = step(*args, **kwargs)
        clock.tick()
        return result

    def timed(*args, **kwargs):
        start = clock.reading()
        result = run(*args, **kwargs)
        totals["seconds"] += clock.reading() - start
        totals["calls"] += 1
        totals["records"] += len(result.trajectory)
        return result

    rebind(step, ticking_step)
    rebind(run, timed)
    return totals


def timed_run(job, expected: Expected, seconds: float) -> dict:
    passes = Passes(job, expected)
    runs = time_runs(passes.clock)
    deadline = time.perf_counter() + seconds
    while True:
        passes.unit()
        if time.perf_counter() >= deadline:
            break
    return {**passes.result(), "run_calls": runs["calls"],
            "run_seconds": runs["seconds"], "records": runs["records"]}


def traced_run(job, expected: Expected, seconds: float) -> dict:
    passes = Passes(job, expected)
    untraced = passes.unit()
    tracer = Tracer()
    instrument(tracer)
    passes.tracer = tracer
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        before = tracer.snapshot()
        elapsed = passes.unit()
        units.append({"seconds": elapsed, **tracer.since(before)})
        if time.perf_counter() >= deadline:
            break
    first = tracer.first_result
    tracer.first_result = None
    bytes_per_record = (deep_size(first.trajectory) / len(first.trajectory)
                        if first is not None else None)
    del first
    return {**passes.result(), "untraced_unit_s": untraced, "units": units,
            "absent": tracer.absent, "spans": tracer.spans,
            "bytes_per_record": bytes_per_record}


def layer_metrics(raw: dict, unit_passes: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced units, plus count drift found.

    Times are self times (wrapped spans nested inside are excluded) per
    pass, per call or per vehicle-step as the name says; the verify
    corpus and checks are wall times with the corpus build counted once.
    Counts are per unit and must be equal in every unit.  A layer the
    package no longer has is ``None``; one the workload does not reach
    reads 0.
    """
    units = raw["units"]
    absent = set(raw["absent"])
    passes = len(units) * unit_passes
    m: dict[str, tuple[float | None, str]] = {}

    def put(metric: str, value, unit: str, span: str | None = None):
        m[metric] = (None if span in absent else value, unit)

    def per(numer: float, denom: float, scale: float = 1.0) -> float:
        return numer / denom * scale if denom else 0.0

    def count(name: str) -> int:
        return units[0]["counts"].get(name, 0)

    def calls(span: str) -> int:
        return int(total(units[:1], span, "calls"))

    def us_per_call(metric: str, span: str):
        put(metric, per(total(units, span, "self"),
                        total(units, span, "calls"), 1e6), "us", span)

    def seconds(metric: str, span: str, field: str = "self"):
        put(metric, per(total(units, span, field), passes), "s", span)

    vsteps = sum(u["counts"].get("sim.vsteps", 0) for u in units)
    for label, _ in SIM_PHASES:
        span = f"sim.{label}"
        put(f"{span}.us_per_vstep", per(total(units, span, "self"), vsteps,
                                        1e6), "us/vstep", span)
    put("sim.vsteps", count("sim.vsteps"), "count", "sim.step")
    put("sim.bytes_per_record", raw["bytes_per_record"], "B/record")

    for role in ("follower", "leader"):
        put(f"controller.{role}.calls", calls(f"controller.{role}"), "count",
            f"controller.{role}")
        us_per_call(f"controller.{role}.us_per_call", f"controller.{role}")
    for key in ("split_verdicts", "relax_verdicts"):
        put(f"controller.{key}", count(f"controller.{key}"), "count",
            "controller.follower")
    us_per_call("kernels.follower.us_per_call", "kernels.follower")
    us_per_call("kernels.leader.us_per_call", "kernels.leader")

    seconds("cli.parse_config.s", "cli.parse_config")
    seconds("cli.trajectory_csv.s", "cli.trajectory_csv")
    put("cli.trajectory_csv.bytes", count("cli.trajectory_csv.bytes"),
        "bytes", "cli.trajectory_csv")
    seconds("cli.events_csv.s", "cli.events_csv")
    seconds("cli.metrics.s", "cli.metrics")
    seconds("svgplot.render.s", "svgplot.render")
    put("svgplot.bytes", count("svgplot.bytes"), "bytes", "svgplot.render")
    seconds("analysis.summarize.s", "analysis.summarize")
    seconds("analysis.records_by_time.s", "analysis.records_by_time")
    put("analysis.records_by_time.calls", calls("analysis.records_by_time"),
        "count", "analysis.records_by_time")
    seconds("analysis.records_by_vehicle.s", "analysis.records_by_vehicle")
    us_per_call("analysis.oracle.us_per_call", "analysis.oracle")

    seconds("verify.corpus_build.s", "verify.corpus_build", "incl")
    corpus_vsteps = sum(u["counts"].get("verify.corpus_vsteps", 0)
                        for u in units)
    put("verify.corpus.us_per_vstep",
        per(total(units, "verify.corpus_build", "incl"), corpus_vsteps, 1e6),
        "us/vstep", "verify.corpus_build")
    check_time = dict.fromkeys(VERIFY_CHECKS, 0.0)
    seen = set()
    for u in units:
        for attr, name, _passed, corpus in u["checks"]:
            seen.add(name)
            check_time[name] = (check_time.get(name, 0.0)
                                + u["stats"][f"verify.{attr}"][1] - corpus)
    for name in VERIFY_CHECKS:
        missing = seen and name not in seen
        put(f"verify.{name}.s",
            None if missing else per(check_time[name], passes), "s")
    put("verify.checks_passed",
        sum(1 for check in units[0]["checks"] if check[2]), "count")

    traced = statistics.median(u["seconds"] for u in units)
    put("trace.overhead_frac",
        per(traced - raw["untraced_unit_s"], raw["untraced_unit_s"]), "frac")

    drift = []
    for name in EXACT_COUNTS:
        if name == "analysis.records_by_time.calls":
            found = [total([u], "analysis.records_by_time", "calls")
                     for u in units]
        else:
            found = [u["counts"].get(name, 0) for u in units]
        if len(set(found)) > 1:
            drift.append(f"behaviour change: {name} differs between units "
                         f"of one run: {found}")
    return m, drift


def total(units: list[dict], name: str, field: str) -> float:
    """Sum of one statistic of span ``name`` over traced units."""
    return sum(u["stats"][name][FIELDS[field]]
               for u in units if name in u["stats"])


def baseline_rows(raw: dict, workload: str, unit_passes: int) -> list:
    """The ROADMAP baseline rows this workload's trace can reproduce."""
    units = raw["units"]
    passes = len(units) * unit_passes

    vsteps = sum(u["counts"].get("sim.vsteps", 0) for u in units)
    rows = []
    if workload == "cli_default" and vsteps:
        for label, roadmap in (("decide", 10.3), ("record", 8.1),
                               ("resequence", 2.7)):
            rows.append((f"{label} us/vstep (inclusive)", roadmap,
                         total(units, f"sim.{label}", "incl") / vsteps * 1e6))
        rows.append(("trajectory CSV s/pass", 0.32,
                     total(units, "cli.trajectory_csv", "incl") / passes))
    if workload == "verify_suite":
        rows.append(("corpus build s", 46.0,
                     total(units, "verify.corpus_build", "incl") / passes))
    if raw["bytes_per_record"] is not None:
        rows.append(("B/record", 296.0, raw["bytes_per_record"]))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=KINDS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job, setup_raw, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        if hasattr(job, "prepare_checks"):
            job.prepare_checks()
        expected = Expected(args.workload, args.seed)
        if args.trace:
            raw = traced_run(job, expected, args.seconds)
        else:
            raw = timed_run(job, expected, args.seconds)
        expected.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import platoonflow
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "pass_times": raw["pass_times"],
        "raw_pass_times": raw["raw_pass_times"],
        "attempted": len(raw["pass_times"]),
        "failed": raw["failed"],
        "problems": raw["problems"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy.__version__,
        "backend": platoonflow.backend_name(),
    }
    if args.trace:
        metrics, drift = layer_metrics(raw, job.unit_passes)
        result.update(
            layers=metrics, drift=drift, absent=raw["absent"],
            spans=raw["spans"],
            baseline=baseline_rows(raw, args.workload, job.unit_passes),
            raw_layers={name: dict(zip(FIELDS, st)) for name, st in
                        raw["units"][0]["stats"].items()},
            overhead_untraced_s=raw["untraced_unit_s"],
        )
    else:
        result.update(records=raw["records"], run_calls=raw["run_calls"],
                      run_seconds=raw["run_seconds"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
