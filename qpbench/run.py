"""The quadpencil benchmark: one command, three seeded workloads.

    python3 qpbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's
inputs from the seed, starts SETUPS worker processes one after another
(each sets up, then runs ops in a closed loop for its share of the
seconds), runs a fixed subset of ops again as fresh `python -m
quadpencil.cli` processes, checks every output, and prints a table and,
as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from exact import parse_forms_file, render_form  # noqa: E402
from gen import random_pencils, verify_lift_claims  # noqa: E402
from speed import probe, scale  # noqa: E402

WORKLOADS = ("bundled", "random-pencils", "verify-lift")
BUNDLED = ("tests/data/example_pencil.txt", "tests/data/no_witness_pencil.txt")
DEFAULT_GOOD_PRIMES = (3, 5, 7, 11, 13)
RANDOM_GOOD_PRIMES = (3, 5, 7)
VERIFY_LIFT_PENCILS = 24

# Worker processes per run; setup_s is the median of their set-up times.
SETUPS = 3
# Fresh CLI processes per run, on the first inputs of the pool.
COLD_CLI_RUNS = {"bundled": 11, "random-pencils": 21, "verify-lift": 15}
# Places decided on each bundled file at the baseline commit; fewer is a
# failure, since decided_frac must not fall.
BUNDLED_DECIDED = {BUNDLED[0]: 7, BUNDLED[1]: 6}
# The traced run also times `import quadpencil.cli` in this many processes.
IMPORT_RUNS = 3
# latency_p90_s needs at least ten samples beyond it.
P90_MIN_OPS = 100

END_TO_END = {
    "latency_p50_s": "s",
    "throughput_ops_per_s": "1/s",
    "cold_cli_p50_s": "s",
    "setup_s": "s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _form_rows(forms) -> list:
    return [[[i, j, c] for (i, j), c in sorted(q.items())] for q in forms]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def build_manifest(workload: str, seed: int, root: str, work: str) -> dict:
    """Inputs for the workers and the CLI runs; the program sees only files."""
    nproc = os.cpu_count() or 1
    if workload == "bundled":
        items = []
        for path in BUNDLED:
            with open(os.path.join(root, path), encoding="utf-8") as handle:
                forms = parse_forms_file(handle.read())
            items.append({"path": os.path.join(root, path), "forms": _form_rows(forms),
                          "good_primes": DEFAULT_GOOD_PRIMES, "never_positive": True,
                          "min_decided": BUNDLED_DECIDED[path]})
        warmup = items[0]
    elif workload == "random-pencils":
        items = []
        for k, forms in enumerate(random_pencils(seed)):
            text = f"Q1: {render_form(forms[0])}\nQ2: {render_form(forms[1])}\n"
            items.append({"path": _write(os.path.join(work, f"pencil_{k}.txt"), text),
                          "forms": _form_rows(forms), "good_primes": RANDOM_GOOD_PRIMES})
        warmup = {"path": os.path.join(root, BUNDLED[1]), "good_primes": RANDOM_GOOD_PRIMES}
    else:
        items = []
        paths: dict = {}
        for claim in verify_lift_claims(seed, VERIFY_LIFT_PENCILS, root):
            text = f"Q1: {render_form(claim['forms'][0])}\nQ2: {render_form(claim['forms'][1])}\n"
            if text not in paths:
                paths[text] = _write(os.path.join(work, f"lift_{len(paths)}.txt"), text)
            items.append({**claim, "path": paths[text], "forms": _form_rows(claim["forms"])})
        warmup = items[-1]
    return {"workload": workload, "workers": nproc, "inputs": items, "warmup": warmup}


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(manifest_path: str, seconds: float, start: int, cover: int,
               trace: int, root: str) -> tuple[float, float, dict]:
    """Start one worker; return its start time, the time it said READY, and
    its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", manifest_path,
           "--seconds", str(seconds), "--start", str(start), "--cover", str(cover),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}): {(ready + rest)[-2000:]}")
    return t0, t_ready, json.loads(rest.strip().splitlines()[-1])


def cli_command(workload: str, item: dict, workers: int) -> list[str]:
    base = [sys.executable, "-m", "quadpencil.cli"]
    if workload == "verify-lift":
        return base + ["verify-point", item["path"], "--prime", str(item["prime"]),
                       "--chart", ",".join(map(str, item["chart"])),
                       "--coords", ",".join(map(str, item["coords"]))]
    return base + ["analyze", item["path"], "--workers", str(workers),
                   "--good-primes", ",".join(map(str, item["good_primes"]))]


@contextlib.contextmanager
def one_core():
    """Run this process, and the processes it starts, on one core.

    For the fresh processes only: their samples are bracketed by probes
    taken here, so both must run on the same core; each core of a shared
    machine drifts on its own (unpinned, the cold-CLI figure of the fixed
    bundled inputs spread twice as much over seeds).  Workers are not
    pinned, so parallel paths show in the in-process figures.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):
        yield  # no affinity control here: the probes still bracket each sample
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_cli(workload, manifest, subset, hashes, root):
    """Run fresh CLI processes; check exit codes and bytes against in-process.

    Returns the scaled CPU times, the raw wall times and the errors.  A
    process runs on one core (see one_core), so its CPU time is its wall
    time less the time that core spent on other tenants; bracketing probes
    are timed by this thread's CPU clock to match.  Scaled wall times of
    the same fixed input spread 19-21% from process to process on a shared
    2-core virtual machine, scaled CPU times 10-12%.
    """
    samples, walls, errors, probes = [], [], [], [probe(time.thread_time)]
    for idx in subset:
        cmd = cli_command(workload, manifest["inputs"][idx], manifest["workers"])
        cpu0, t0 = _children_cpu_s(), time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                              text=True, timeout=170)
        t1 = time.perf_counter()
        samples.append((_children_cpu_s() - cpu0, t0, t1))
        walls.append(t1 - t0)
        probes.append(probe(time.thread_time))
        if proc.returncode not in (0, 1, 2, 3):
            errors.append(f"CLI exit {proc.returncode} on input {idx}")
        digest = hashlib.sha256(proc.stdout.rstrip("\n").encode()).hexdigest()
        if digest != hashes.get(str(idx)):
            errors.append(f"input {idx}: CLI bytes differ from the in-process output")
    return [x * scale(t0, t1, probes) for x, t0, t1 in samples], walls, errors


def import_times(root: str) -> list[float]:
    code = ("import time; t = time.perf_counter(); import quadpencil.cli; "
            "print(time.perf_counter() - t)")
    samples, probes = [], [probe()]
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        seconds = float(subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=_env(root), capture_output=True,
            text=True, check=True, timeout=170).stdout)
        samples.append((seconds, t0, time.perf_counter()))
        probes.append(probe())
    return [x * scale(t0, t1, probes) for x, t0, t1 in samples]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in ("src/quadpencil/cli.py", *BUNDLED)
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        sys.stderr.write(f"qpbench: run from a quadpencil checkout; missing {missing}\n")
        return 2

    work = os.path.join(root, ".qpbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def measure(args, root: str, work: str) -> int:
    manifest = build_manifest(args.workload, args.seed, root, work)
    manifest_path = _write(os.path.join(work, "manifest.json"), json.dumps(manifest))
    n_inputs = len(manifest["inputs"])

    results, setups = [], []
    pos = 0
    rounds = 1 if args.trace else SETUPS
    for k in range(rounds):
        # The last worker also runs, untimed, any input the timed phases
        # missed, so that every input is checked and counted in decided_frac.
        cover = n_inputs if k == rounds - 1 and not args.trace else 0
        before = probe()
        t0, ready, result = run_worker(manifest_path, args.seconds / rounds, pos, cover,
                                       args.trace, root)
        setups.append((ready - t0) * scale(t0, ready, [before, result["first_probe"]]))
        results.append(result)
        pos = result["end"]

    ops = [op for r in results for op in r["ops"]]
    # Failures outside the timed ops: untimed cover ops, cross-process bytes.
    other = [e for r in results for e in r["extra_errors"]]
    hashes: dict[str, str] = {}
    for r in results:
        for idx, digest in r["hashes"].items():
            if hashes.setdefault(idx, digest) != digest:
                other.append(f"input {idx}: output differs between worker processes")
    decided: dict[str, list[int]] = {}
    for r in results:
        decided.update(r.get("decided", {}))
    attempted = len(ops) + len(other)

    if args.trace:
        from worker import PER_LAYER

        units = PER_LAYER
        metrics = dict(results[0]["layers"])
        for name in metrics:
            if units[name] == "s/op":
                metrics[name] *= results[0]["factor"]
        with one_core():
            metrics["cli.import_s"] = statistics.median(import_times(root))
    else:
        subset = [k % n_inputs for k in range(COLD_CLI_RUNS[args.workload])]
        with one_core():
            cli_times, cli_walls, cli_errors = cold_cli(args.workload, manifest, subset,
                                                        hashes, root)
        other += cli_errors
        attempted += len(subset)
        units = END_TO_END
        lat = [op["latency"] for op in ops]
        metrics = {
            "latency_p50_s": statistics.median(lat),
            "throughput_ops_per_s": sum(1 for op in ops if not op["errors"]) / sum(lat),
            "cold_cli_p50_s": statistics.median(cli_times),
            "setup_s": statistics.median(setups),
            "decided_frac": (sum(d for d, _ in decided.values())
                             / sum(t for _, t in decided.values())),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        }

    errors = [e for op in ops for e in op["errors"]] + other
    failed = sum(1 for op in ops if op["errors"]) + len(other)
    if not args.trace:
        extra = {"failed_frac": failed / attempted, "ops": len(lat),
                 "raw_latency_p50_s": statistics.median(op["raw"] for op in ops),
                 "raw_cold_cli_wall_p50_s": statistics.median(cli_walls)}
        if len(lat) >= P90_MIN_OPS:
            extra["latency_p90_s"] = statistics.quantiles(lat, n=10)[-1]
        print(f"# {args.workload} seed={args.seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in extra.items()))
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for message in errors[:20]:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
