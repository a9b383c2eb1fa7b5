"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workloads NAME ...] [--trace-seeds 0] [--write]

Runs `run.py` once per seed and workload for BENCHMARK.json's
`run_seconds`, then prints, for each end-to-end metric, the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median, beside the
metric's bound. `--trace-seeds K` adds K traced runs per workload and
reports the median of each per-layer metric. `--write` stores the result in
`perfbench/baseline.json`, replacing only the workloads just run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {}
    for workload in args.workloads:
        runs = [run_once(spec, workload, seed, 0)["metrics"] for seed in seeds]
        entry = {"seeds": list(seeds), "end_to_end": {}}
        for name, metric in bounds.items():
            row = summarise([r[name]["value"] for r in runs])
            row["unit"] = metric["unit"]
            entry["end_to_end"][name] = row
            flag = "" if name == "setup_s" or row["spread"] < metric["bound"] / 3 else "  WIDE"
            print(f"{workload:18s} {name:14s} median {row['median']:.6g} {metric['unit']:4s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f} "
                  f"bound {metric['bound']}{flag}", flush=True)
        if args.trace_seeds:
            traced = [run_once(spec, workload, seed, 1)["metrics"]
                      for seed in seeds[:args.trace_seeds]]
            entry["per_layer_median"] = {
                name: {"value": statistics.median(r[name]["value"] for r in traced),
                       "unit": traced[0][name]["unit"]}
                for name in traced[0]
            }
        record[workload] = entry

    if args.write:
        old = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
        workloads = {**old.get("workloads", {}), **record}
        BASELINE.write_text(json.dumps({
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "date": datetime.date.today().isoformat(),
            "run_seconds": spec["run_seconds"],
            "workloads": workloads,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
