"""Compare two sets of benchmark records, or check the spread of one.

    python3 perfbench/compare.py --base perfbench/out/results/A*.json \
        --change perfbench/out/results/B*.json
    python3 perfbench/compare.py --base perfbench/out/results/*.json

Records are grouped by workload and by timed/traced.  Timings are only
compared between records taken on the same machine record (Python,
numpy, backend, libc, CPU model, core count); records that differ are
flagged instead.  For timed records each end-to-end metric is judged
against its bound in BENCHMARK.json: the change's median may be worse
than the base's by at most the bound, and a base whose quartile spread
exceeds the bound leaves the metric unresolved.  For traced records the
exact counts must be identical between all records of one seed; any
difference is reported as a change of behaviour.

Exit status: 0 when nothing regressed, 1 on a regression or a change
of behaviour, 2 when records could not be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from tracing import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records
            if r["metrics"].get(name, {}).get("value") is not None]


def machines_differ(records: list[dict]) -> list[str]:
    first = records[0]["machine"]
    out = []
    for r in records[1:]:
        for key in sorted(set(first) | set(r["machine"])):
            if first.get(key) != r["machine"].get(key):
                out.append(f"{key}: {first.get(key)!r} vs "
                           f"{r['machine'].get(key)!r}")
    return sorted(set(out))


def judge_timed(base: list[dict], change: list[dict], specs: list[dict]
                ) -> bool:
    regressed = False
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        lower = spec["better"] == "lower"
        b = values(base, name)
        if not b:
            print(f"  {name}: no values")
            continue
        b_med = statistics.median(b)
        line = (f"  {name:<14} base median {b_med:.6g} {spec['unit']} "
                f"(n={len(b)}, spread {spread(b):.3f}, bound {bound})")
        c = values(change, name) if change else []
        if not c:
            flag = " SPREAD>BOUND" if spread(b) > bound else ""
            print(line + flag)
            continue
        c_med = statistics.median(c)
        worse = (c_med - b_med) / b_med * (1 if lower else -1)
        if worse > bound:
            verdict = "REGRESSION"
            regressed = True
        elif spread(b) > bound and not (
                max(c) < min(b) if lower else min(c) > max(b)):
            verdict = "unresolved (base spread exceeds bound)"
        else:
            verdict = "ok"
        print(f"{line}\n  {'':<14} change median {c_med:.6g} "
              f"(n={len(c)}), {worse:+.3f} worse: {verdict}")
    return regressed


def judge_counts(records: list[dict]) -> bool:
    changed = False
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for r in records:
        by_seed[r["seed"]].append(r)
    for seed, group in sorted(by_seed.items()):
        for name in EXACT_COUNTS:
            seen = sorted({json.dumps(values([r], name)) for r in group})
            if len(seen) > 1:
                changed = True
                print(f"  BEHAVIOUR CHANGE seed {seed}: {name} = "
                      + " / ".join(seen))
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="*", default=[])
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    status = 0
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        b, c = base.get(key, []), change.get(key, [])
        print(f"== {workload} ({'traced' if trace else 'timed'}): "
              f"{len(b)} base, {len(c)} change records")
        if not b:
            print("  no base records")
            status = max(status, 2)
            continue
        incorrect = [r for r in b + c if not r["correct"]]
        for r in incorrect:
            print(f"  INCORRECT seed {r['seed']}: {r['failed']} of "
                  f"{r['attempted']} passes failed, {r['problems'][:3]}")
        if incorrect:
            status = max(status, 1)
        if trace:
            if judge_counts(b + c):
                status = max(status, 1)
            continue
        differ = machines_differ(b + c)
        if differ:
            print("  machine records differ, timings not compared: "
                  + "; ".join(differ))
            status = max(status, 2)
            continue
        if judge_timed(b, c, spec["end_to_end"]):
            status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
