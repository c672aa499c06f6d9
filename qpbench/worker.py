"""One benchmark worker process: set up, run ops in a closed loop, check.

Started by run.py with a manifest of generated inputs.  It imports the
program, loads the inputs, runs one untimed warm-up op and prints READY;
run.py measures set-up time up to that line.  It then runs ops back to
back (one caller, the next op starts when the previous one returns) for
the given seconds, checks every output after the clock stops, and prints
one JSON result line.  With --trace 1 it runs the ops untraced, then the
same ops again under the span wrappers, and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import check_certificate, check_claim, decided_places  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from speed import PROBE_EVERY_S, probe, scale  # noqa: E402


def _describe_locus(report):
    method = report.method.replace("-", "_")
    return f"reduction.singular_locus.{method}", {"points": len(report.points)}


def _describe_census(entries):
    return None, {
        "on_system_points": sum(e.on_fano_count for e in entries),
        "smooth_points": sum(len(e.smooth_points) for e in entries),
    }


def _describe_hensel(cert):
    levels = 0
    if cert.lift_modulus is not None:
        modulus = cert.lift_modulus
        while modulus > cert.place:
            modulus //= cert.place
            levels += 1
    return None, {"levels": levels}


def _span_plan():
    """(caller module, imported name, span name, describe, counted failure).

    Each entry wraps the name a caller module holds, so only calls made
    through that caller are timed.  The span name's first part is the
    layer: the module that defines the function.
    """
    from quadpencil.exactmath import FactorizationError

    plan = [
        ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
        ("pipeline", "canonical_json", "pipeline.canonical_json",
         lambda text: (None, {"bytes": len(text)})),
        ("pipeline", "_parse_sections", "parsing.parse"),
        ("pipeline", "pretty_print", "parsing.pretty_print"),
        ("pipeline", "PencilOfQuadrics", "pencil.char_form"),
        ("pipeline", "smoothness_check", "pencil.smoothness"),
        ("pipeline", "curve_data", "pencil.curve_data"),
        ("pencil", "det_poly_matrix", "exactmath.det_poly_matrix"),
        ("pencil", "poly_discriminant", "exactmath.discriminant"),
        ("pencil", "sturm_count", "exactmath.sturm_count"),
        ("pencil", "squarefree_degree6", "exactmath.squarefree"),
        ("pencil", "factor_with_hints", "exactmath.factor", None, FactorizationError),
        ("pipeline", "real_place_report", "localcert.real_place"),
        ("localcert", "isolate_real_roots", "exactmath.isolate_real_roots"),
        ("pipeline", "chart_census", "localcert.census", _describe_census),
        ("pipeline", "search_smooth_points", "localcert.search",
         lambda found: (None, {"smooth_points": len(found)})),
        ("pipeline", "hensel_certify", "localcert.hensel", _describe_hensel),
        ("localcert", "hensel_certify", "localcert.hensel", _describe_hensel),
        ("pipeline", "fano_system", "fano.fano_system"),
        ("localcert", "fano_system", "fano.fano_system"),
        ("fano", "fano_system", "fano.fano_system"),
        ("pipeline", "verify_fano_point", "fano.verify_point"),
        ("localcert", "verify_fano_point", "fano.verify_point"),
        ("fano", "verify_fano_point", "fano.verify_point"),
        ("fano", "rank_mod_p", "exactmath.rank_mod_p"),
        ("localcert", "rank_mod_p", "exactmath.rank_mod_p"),
        ("reduction", "rank_mod_p", "exactmath.rank_mod_p"),
        ("localcert", "solve_mod_p", "exactmath.solve_mod_p"),
        ("reduction", "kernel_mod_p", "exactmath.kernel_mod_p"),
        ("reduction", "repeated_roots_mod_p", "exactmath.repeated_roots_mod_p"),
        ("pipeline", "singular_locus", "reduction.singular_locus", _describe_locus),
        ("pipeline", "mod2_degeneracy", "reduction.mod2"),
    ]
    return [(f"quadpencil.{entry[0]}", *entry[1:]) for entry in plan]


LAYERS = ("parsing", "pencil", "exactmath", "fano", "localcert", "reduction",
          "pipeline")

# Per-layer metrics and their units; "s/op" figures are self times.
PER_LAYER = {
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    "bench.self_s": "s/op",
    "reduction.singular_locus.exhaustive_s": "s/op",
    "reduction.singular_locus.kernel_guided_s": "s/op",
    "reduction.singular_locus.calls": "count/op",
    "reduction.singular_locus.points": "count/op",
    "reduction.mod2_s": "s/op",
    "localcert.census_s": "s/op",
    "localcert.census.on_system_points": "count/op",
    "localcert.census.smooth_points": "count/op",
    "localcert.smooth_yield": "ratio",
    "localcert.search_s": "s/op",
    "localcert.search.smooth_points": "count/op",
    "fano.fano_system_s": "s/op",
    "fano.fano_system.calls": "count/op",
    "exactmath.rank_mod_p_s": "s/op",
    "exactmath.rank_mod_p.calls": "count/op",
    "localcert.hensel_s": "s/op",
    "localcert.hensel.levels": "count/op",
    "fano.verify_point_s": "s/op",
    "exactmath.solve_mod_p.calls": "count/op",
    "exactmath.factor_s": "s/op",
    "exactmath.factor_failed": "count/op",
    "exactmath.isolate_real_roots_s": "s/op",
    "pencil.char_form_s": "s/op",
    "pencil.curve_data_s": "s/op",
    "localcert.real_place_s": "s/op",
    "parsing.parse_s": "s/op",
    "pipeline.canonical_json_s": "s/op",
    "pipeline.certificate_bytes": "B/op",
    "cli.import_s": "s",
    "trace.op_wall_s": "s/op",
    "trace.untraced_op_s": "s/op",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count/op",
}


def layer_metrics(tracer: Tracer, roots: list[int], untraced_s: float) -> dict:
    """Per-op means of self times and counters over the traced ops."""
    by_op: dict[int, list[int]] = {}
    for idx, span in enumerate(tracer.spans):
        by_op.setdefault(span[4], []).append(idx)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    wall = 0.0
    for root in roots:
        members = by_op[tracer.spans[root][4]]
        wall += (tracer.spans[root][2] - tracer.spans[root][1]) / 1e9
        for idx, ns in self_times(tracer.spans, members).items():
            name = tracer.spans[idx][0]
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9
            calls[name] = calls.get(name, 0) + 1
            for key, value in (tracer.spans[idx][5] or {}).items():
                counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
    n = len(roots)

    def s(name):
        return self_s.get(name, 0.0) / n

    def c(key):
        return counters.get(key, calls.get(key, 0)) / n

    out = {f"{layer}.self_s": sum(v for k, v in self_s.items()
                                  if k.split(".")[0] == layer) / n
           for layer in LAYERS}
    layers_s = sum(out.values())
    locus = "reduction.singular_locus"
    on_system = counters.get("localcert.census.on_system_points", 0)
    out.update({
        "bench.self_s": s("bench.op"),
        f"{locus}.exhaustive_s": s(f"{locus}.exhaustive"),
        f"{locus}.kernel_guided_s": s(f"{locus}.kernel_guided"),
        f"{locus}.calls": c(f"{locus}.exhaustive") + c(f"{locus}.kernel_guided"),
        f"{locus}.points": c(f"{locus}.exhaustive.points")
        + c(f"{locus}.kernel_guided.points"),
        "reduction.mod2_s": s("reduction.mod2"),
        "localcert.census_s": s("localcert.census"),
        "localcert.census.on_system_points": c("localcert.census.on_system_points"),
        "localcert.census.smooth_points": c("localcert.census.smooth_points"),
        "localcert.smooth_yield": (
            counters.get("localcert.census.smooth_points", 0) / on_system
            if on_system else 0.0),
        "localcert.search_s": s("localcert.search"),
        "localcert.search.smooth_points": c("localcert.search.smooth_points"),
        "fano.fano_system_s": s("fano.fano_system"),
        "fano.fano_system.calls": c("fano.fano_system"),
        "exactmath.rank_mod_p_s": s("exactmath.rank_mod_p"),
        "exactmath.rank_mod_p.calls": c("exactmath.rank_mod_p"),
        "localcert.hensel_s": s("localcert.hensel"),
        "localcert.hensel.levels": c("localcert.hensel.levels"),
        "fano.verify_point_s": s("fano.verify_point"),
        "exactmath.solve_mod_p.calls": c("exactmath.solve_mod_p"),
        "exactmath.factor_s": s("exactmath.factor"),
        "exactmath.factor_failed": c("exactmath.factor.failed"),
        "exactmath.isolate_real_roots_s": s("exactmath.isolate_real_roots"),
        "pencil.char_form_s": s("pencil.char_form"),
        "pencil.curve_data_s": s("pencil.curve_data"),
        "localcert.real_place_s": s("localcert.real_place"),
        "parsing.parse_s": s("parsing.parse"),
        "pipeline.canonical_json_s": s("pipeline.canonical_json"),
        "pipeline.certificate_bytes": c("pipeline.canonical_json.bytes"),
        "trace.op_wall_s": wall / n,
        "trace.untraced_op_s": untraced_s / n,
        "trace.overhead_frac": (wall - untraced_s) / untraced_s,
        "trace.accounted_frac": layers_s / (wall / n),
        "trace.spans": len(tracer.spans) / n,
    })
    return out


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def analyze_op(item: dict, workers: int):
    from quadpencil import pipeline

    cfg = pipeline.PipelineConfig(
        input_path=item["path"],
        good_prime_samples=tuple(item["good_primes"]),
        workers=workers,
    )
    return pipeline.canonical_json(pipeline.run_pipeline(cfg))


def verify_op(item: dict, pencil):
    """fano_system + verify_fano_point + hensel_certify, as a re-check does."""
    from quadpencil import fano, localcert, pipeline

    chart = fano.GrassmannChart((item["chart"][0] - 1, item["chart"][1] - 1))
    p = item["prime"]
    point = tuple(c % p for c in item["coords"])
    system = fano.fano_system(pencil, chart)
    report = fano.verify_fano_point(system, point, p)
    cert = localcert.hensel_certify(system, point, p, lift_precision=item["precision"])
    document = {
        "prime": p,
        "chart": list(item["chart"]),
        "coordinates": list(item["coords"]),
        "on_system": report.on_fano,
        "jacobian_rank": report.jacobian_rank,
        "smooth": report.smooth,
    }
    return pipeline.canonical_json(document), cert.lift, cert.lift_modulus


def _forms(item: dict) -> tuple[dict, dict]:
    return tuple({(i, j): c for i, j, c in form} for form in item["forms"])


def check_output(workload: str, item: dict, out) -> tuple[list[str], tuple[int, int]]:
    """Errors and (decided, total) places for one op's output."""
    q1, q2 = _forms(item)
    if workload == "verify-lift":
        text, lift, modulus = out
        report = json.loads(text)
        report["jacobian_rank"] = int(report["jacobian_rank"])
        claim = {"forms": (q1, q2), "chart": item["chart"], "coords": item["coords"],
                 "prime": item["prime"], "precision": item["precision"]}
        report.update(lift=None if lift is None else list(lift), lift_modulus=modulus)
        errors = check_claim(claim, report)
        return errors, (int(report["smooth"] and not errors), 1)
    errors = check_certificate(out, q1, q2, never_positive=item.get("never_positive", False))
    decided = decided_places(out)
    if decided[0] < item.get("min_decided", 0):
        errors.append(f"{decided[0]} of {decided[1]} places decided, "
                      f"{item['min_decided']} are known to be decidable")
    return errors, decided


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--cover", type=int, default=0,
                    help="after the timed phase, run untimed up to this position")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    import quadpencil.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from quadpencil.parsing import parse_input

    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    workload = manifest["workload"]
    items = manifest["inputs"]
    if workload == "verify-lift":
        pencils = {path: parse_input(path).pencil
                   for path in {item["path"] for item in items + [manifest["warmup"]]}}

        def run(item):
            return verify_op(item, pencils[item["path"]])
    else:
        def run(item):
            return analyze_op(item, manifest["workers"])

    run(manifest["warmup"])
    print("READY", flush=True)

    def call(item):
        try:
            return run(item), None
        except Exception as exc:  # an op that raises is a failed op
            return None, f"{type(exc).__name__}: {exc}"

    tracer = Tracer() if args.trace else None
    plan = _span_plan() if args.trace else []
    roots: list[int] = []

    probes: list[tuple[float, float]] = []

    def timed_phase(seconds, start, count=None):
        """Ops back to back, bracketed by speed probes.

        Returns records (input index, seconds, start, end, output, error).
        """
        records = []
        pos = start
        begin = time.perf_counter()
        probes.append(probe())
        while (count is None and time.perf_counter() - begin < seconds) or (
            count is not None and pos - start < count
        ):
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append(probe())
            idx = pos % len(items)
            t = time.perf_counter()
            out, error = call(items[idx])
            t_end = time.perf_counter()
            if tracer is not None and count is None:
                # The same op again under the wrappers, straight after the
                # untraced one, so that drift cancels out of the overhead.
                tracer.install(plan)
                tracer.op = len(roots)
                roots.append(tracer.begin("bench.op"))
                traced, _ = call(items[idx])
                tracer.end(roots[-1])
                tracer.uninstall()
                if error is None and traced != out:
                    error = f"input {idx}: output differs when traced"
            records.append((idx, t_end - t, t, t_end, out, error))
            pos += 1
        probes.append(probe())
        return records

    result: dict = {}
    records = timed_phase(args.seconds, args.start)
    factors = [scale(t, t_end, probes) for _, _, t, t_end, _, _ in records]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, roots, sum(r[1] for r in records))
        result["factor"] = statistics.median(factors)
    result["end"] = args.start + len(records)
    extra = []
    if args.cover > result["end"]:
        extra = timed_phase(0, result["end"], args.cover - result["end"])

    first: dict[int, object] = {}
    ops = []
    for idx, latency, _, _, out, error in records + extra:
        errors = [error] if error else []
        if not errors and idx not in first:
            first[idx] = out
            found, decided = check_output(workload, items[idx], out)
            errors += found
            result.setdefault("decided", {})[idx] = decided
        elif not errors and out != first[idx]:
            errors.append(f"input {idx}: output differs between repeats")
        ops.append({"raw": latency, "errors": errors})
    for op, factor in zip(ops, factors):
        op["latency"] = op["raw"] * factor
    result["ops"] = ops[:len(records)]
    result["extra_errors"] = [e for op in ops[len(records):] for e in op["errors"]]
    result["hashes"] = {
        idx: hashlib.sha256((out if isinstance(out, str) else out[0]).encode()).hexdigest()
        for idx, out in first.items()
    }
    result["first_probe"] = probes[0]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
