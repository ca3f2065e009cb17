"""platoonflow benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, timed
    python3 perfbench/run.py --workload dense_corridor --seed 3
    python3 perfbench/run.py --workload cli_default --trace 1

Each workload runs in its own fresh process with one thread, after a
few more fresh processes that only time set-up.  The human-readable
report goes to standard output, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Every run also stores its
full record (machine, samples, counts, spans) under perfbench/out/;
compare.py compares two sets of such records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import KINDS, OUT, ROOT

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = tuple(KINDS)
SETUP_PROBES = 4       # set-up-only processes, besides the worker's own
RUN_LIMIT_S = 175.0    # a whole run, probes included, must end by then
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine_record() -> dict:
    """What must match between two results before they are compared."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "libc": "-".join(platform.libc_ver()),
        "system": f"{platform.system()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py once and return the JSON it prints last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next process")
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    machine = machine_record()
    load_start = os.getloadavg()
    base = ["--workload", workload, "--seed", str(seed)]
    probes = 0 if trace else SETUP_PROBES
    setups = [worker([*base, "--setup-only"], deadline)
              for _ in range(probes)]
    res = worker([*base, "--seconds", str(seconds), "--trace", str(trace)],
                 deadline)
    setups.append(res)
    machine.update(numpy=res["numpy"], backend=res["backend"])

    times = res["pass_times"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine,
        "load": {"start": load_start, "end": os.getloadavg()},
        "attempted": res["attempted"], "failed": res["failed"],
        "problems": res["problems"],
        "samples": {"setup_s": [s["setup_s"] for s in setups],
                    "setup_raw_s": [s["setup_raw_s"] for s in setups],
                    "pass_s": times, "pass_raw_s": res["raw_pass_times"]},
    }
    if trace:
        record["metrics"] = {name: {"value": v, "unit": u}
                             for name, (v, u) in res["layers"].items()}
        record["problems"] = record["problems"] + res["drift"]
        record.update(absent=res["absent"], baseline=res["baseline"],
                      layers_first_unit=res["raw_layers"],
                      untraced_unit_s=res["overhead_untraced_s"])
        spans = res["spans"]
    else:
        record["metrics"] = {
            "setup_s": {"value": statistics.median(
                record["samples"]["setup_s"]), "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "vsteps_per_s": {"value": res["records"] / res["run_seconds"]
                             if res["run_seconds"] else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        record.update(run_calls=res["run_calls"], records=res["records"])
        spans = None
    record["correct"] = res["failed"] == 0 and not record["problems"]
    save(record, spans)
    return record


def save(record: dict, spans: list | None) -> None:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}-{stamp}-{os.getpid()}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{stem}.json"
        path.write_text(json.dumps(spans))
        record["spans_file"] = str(path.relative_to(ROOT))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))


def report(record: dict) -> None:
    """Human-readable lines for one workload."""
    m = record["metrics"]
    n = record["attempted"]
    kind = "traced" if record["trace"] else "timed"
    print(f"== {record['workload']}  seed {record['seed']}  {kind}, "
          f"{n} passes in {record['seconds']:g} s")
    if record["trace"]:
        for name, metric in m.items():
            value = metric["value"]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {metric['unit']}")
        for what, roadmap, measured in record["baseline"]:
            print(f"  baseline {what:<34} ROADMAP {roadmap:<8g} "
                  f"measured {measured:.4g} ({measured / roadmap:.2f}x)")
    else:
        samples = record["samples"]
        raw_setup = statistics.median(samples["setup_raw_s"])
        raw_pass = statistics.median(samples["pass_raw_s"])
        notes = {
            "setup_s": f"median of {len(samples['setup_s'])} fresh "
                       f"processes; raw {raw_setup:.4g} s",
            "pass_s": f"median of {n} passes; raw {raw_pass:.4g} s",
            "vsteps_per_s": f"{record['records']} records from "
                            f"{record['run_calls']} run() calls",
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        for name, metric in m.items():
            print(f"  {name:<14} {metric['value']:>14.6g} "
                  f"{metric['unit']:<5} ({notes[name]})")
    print(f"  failed_frac    {record['failed'] / n:>14.6g}       "
          f"({record['failed']} of {n} passes failed their check)")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip()}")
    machine = record["machine"]
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items())
          + f"; load {record['load']['start'][0]:.2f} -> "
          f"{record['load']['end'][0]:.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "platoonflow" / "__init__.py").is_file():
        print(f"error: no platoonflow source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [bench(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
