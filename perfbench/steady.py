#!/usr/bin/env python3
"""Steadiness check of the benchmark on one commit.

    python3 perfbench/steady.py [WORKLOAD ...]

For each workload (all of BENCHMARK.json by default; name one to check it
alone after changing it) it makes two sets of ten untraced runs of
`run_seconds`, seeds 1-10 and 11-20, one after another.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median against the metric's bound, and how far the second
set's median moved, in the worse direction, from the first set's.  A
spread above a third of the bound is flagged `wide`; one above the bound,
or a move above it, fails.  The share of failed operations must be the
same in every run.  Then it makes two traced runs of seed 1 and requires
every count, byte total and ratio among the per-layer metrics to repeat
exactly.  Exits 1 when a check fails.  Results also go to
.perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = {"count", "bytes", "ratio"}
RUNS = 10  # runs per set
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect:\n{proc.stderr}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    report = {}
    for workload in names:
        sets = []
        shares = set()
        seed = 1
        for s in range(SETS):
            values: dict[str, list[float]] = {}
            for _ in range(RUNS):
                result = one_run(workload, seed, seconds, 0)
                seed += 1
                shares.add(Fraction(result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} set {s + 1} seed {seed - 1}: attempted {result['attempted']} "
                      f"failed {result['failed']}", flush=True)
            sets.append(values)
        if len(shares) != 1:
            ok = False
            print(f"FAIL {workload}: failed shares differ between runs: {sorted(shares)}")
        else:
            print(f"{workload}: failed share {shares.pop()} in every run")
        rows = {}
        for name in sets[0]:
            spec = metrics[name]
            row = {"bound": spec["bound"], "sets": []}
            for values in sets:
                q1, q2, q3 = statistics.quantiles(values[name], n=4)
                row["sets"].append({"median": statistics.median(values[name]), "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / statistics.median(values[name])})
            first = row["sets"][0]["median"]
            worse = [(v["median"] - first) / first * (1 if spec["better"] == "lower" else -1)
                     for v in row["sets"][1:]]
            row["drift"] = max(worse, default=0.0)
            spreads = [v["spread"] for v in row["sets"]]
            if max(spreads) > spec["bound"] or row["drift"] > spec["bound"]:
                ok = False
                flag = "FAIL"
            else:
                flag = "wide" if max(spreads) > spec["bound"] / 3 else "ok"
            print(f"  {flag:4} {name:24} bound {spec['bound']:.2f}  " + "  ".join(
                f"med {v['median']:.6g} q1 {v['q1']:.6g} q3 {v['q3']:.6g} spread {v['spread']:.4f}"
                for v in row["sets"]) + f"  drift {row['drift']:+.4f}", flush=True)
            rows[name] = row
        report[workload] = rows
        runs = [one_run(workload, 1, seconds, 1) for _ in range(2)]
        exact = [name for name, m in runs[0]["metrics"].items() if m["unit"] in EXACT_UNITS]
        differ = [name for name in exact
                  if runs[0]["metrics"][name]["value"] != runs[1]["metrics"][name]["value"]]
        if differ:
            ok = False
            print(f"FAIL {workload}: traced counts differ between two runs: {differ}")
        else:
            print(f"{workload}: {len(exact)} traced counts and ratios repeat exactly")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
