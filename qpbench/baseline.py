"""Record a baseline: every workload on ten seeds, plus one traced run each.

    python3 qpbench/baseline.py [--out qpbench/BASELINE.json]

Run from the root of a checkout.  For each end-to-end metric it records the
median, the quartiles (statistics.quantiles, n=4) and the spread
(quartile distance / median) over the seeds, and for the traced run the
per-layer figures of the first seed.  Takes about 20 minutes.
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

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["exit"] = out.returncode
    result["wall_s"] = time.perf_counter() - start
    return result


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    record = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workers": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": [SEEDS[0], SEEDS[-1]],
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in SEEDS:
            result = _run(name, seed, seconds, 0)
            runs.append({key: result[key] for key in
                         ("exit", "correct", "attempted", "failed", "wall_s")} | {"seed": seed})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, result["correct"], flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median if median else 0.0,
                               "values": vals}
        traced = _run(name, SEEDS[0], seconds, 1)
        record["workloads"][name] = {
            "runs": runs,
            "traced_run_wall_s": traced["wall_s"],
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, data in record["workloads"].items():
        for metric, s in data["end_to_end"].items():
            print(f"{name:15s} {metric:22s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
