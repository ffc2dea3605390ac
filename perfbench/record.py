"""Run the benchmark over several seeds and write a ``BENCH_*.json`` record.

    python3 perfbench/record.py [--out perfbench/records/BENCH_n.json]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed 1-10, each
for its ``run_seconds`` (one at a time, so runs do not compete for cores),
then prints each end-to-end metric's median, quartiles and spread
(interquartile range / median) next to its bound in ``BENCHMARK.json``.
One traced run per workload, seed 1, gives the per-layer numbers.  Run
from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as _f:
    QUALITY = tuple(json.load(_f)["quality"])
SEEDS = list(range(1, 11))  # ten values per metric give usable quartiles
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout[-3000:]}")
    result["env"] = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    fields = [ln.split() for ln in lines]
    result["quality"] = {f[0]: float(f[1]) for f in fields if f and f[0] in QUALITY}
    return result


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"seeds": SEEDS, "seconds": seconds, "env": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, seconds, 0))
            record["env"] = record["env"] or runs[-1]["env"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"end_to_end": {}}
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:24s} median {s['median']:12.5g} {s['unit']:7s} "
                  f"spread {s['spread']:.4f} bound {bounds[name]} {flag}", flush=True)
        entry["quality"] = {
            name: {"values": [r["quality"][name] for r in runs]} for name in QUALITY
        }
        traced = run(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "metrics": traced["metrics"]}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
