"""Benchmark of treetrace: three seeded closed-loop workloads, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-report --seed 1 --seconds 15 --trace 0

Every run does a fixed amount of seeded work (sized from ``--seconds``, never
cut off by the clock), checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
The line before it holds the per-workload figures under their own names,
and the whole result goes to ``perfbench/out/``.  Work runs in fresh child
interpreters (``worker.py``), one at a time; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import bench_checks as checks
from bench_kernel import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cold-report", "twist-gram", "coinvariant-orbits")
CHILD_TIMEOUT_S = 150
# Cold rounds (one genus-5 and one genus-8 report) per second of --seconds.
COLD_ROUNDS_PER_S = 1.5
COLD_REF_WINDOW = 2
# Warm workloads: rounds per fresh worker, and that worker's nominal wall
# seconds, which sets how many workers make up --seconds.  coinvariant-orbits
# caps the rounds per worker because the program's reduction cache grows
# with every distinct tensor.
WORKER_ROUNDS = {"twist-gram": 100, "coinvariant-orbits": 60}
WORKER_SECONDS = {"twist-gram": 4.0, "coinvariant-orbits": 4.0}
MIN_WORKERS = 3
SETUP_PROBES = 5            # extra fresh interpreters timing set-up only
TRACE_SHARE = 4             # a traced warm run covers 1/4 of the work
COLD_TRACE_ROUNDS = 2       # a traced genus-8 report records ~27k spans
# Per workload: the operation kinds behind main_ms and second_ms.
OPS = {"twist-gram": ("pair", "twist"),
       "coinvariant-orbits": ("tensor", "orbit")}


class BenchError(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker %s failed (exit %d): %s" % (
            job, proc.returncode, proc.stderr.strip()[-800:]))
    return json.loads(proc.stdout.splitlines()[-1])


def median(values):
    return statistics.median(values)


def mean_ms(values):
    return sum(values) / len(values) * 1e3


def per_s(values):
    return len(values) / sum(values)


def tail(values, q):
    """The q-quantile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# cold-report
# ---------------------------------------------------------------------------


def cold_pass(seed, rounds: int, trace: bool) -> dict:
    rng = random.Random("%s/cold/%s" % (seed, trace))
    runs = {5: [], 8: []}
    failed = 0
    problems = []
    for _ in range(rounds):
        order = [5, 8]
        rng.shuffle(order)
        done = {}
        for genus in order:
            res = spawn({"job": "report", "genus": genus, "trace": trace})
            res["index"] = len(runs[5]) + len(runs[8])
            res["problems"] = checks.check_report(res["rc"], res["report"])
            done[genus] = res
            runs[genus].append(res)
        if not (done[5]["problems"] or done[8]["problems"]):
            done[8]["problems"] = checks.check_genus_stable(
                done[5]["report"], done[8]["report"])
        for res in done.values():
            failed += bool(res["problems"])
            problems += res["problems"][:3]
    return {"runs": runs, "attempted": 2 * rounds, "failed": failed,
            "problems": problems}


def cold_normalise(p: dict):
    """Set each child's ``norm_s`` and ``setup_s``: its raw times over the
    median kernel time of the children within ``COLD_REF_WINDOW`` places of
    it in run order.  One child's own kernel passes (a few milliseconds)
    jitter more than its report (most of a second) does; the window spans
    a few seconds of the host's speed around the sample."""
    order = sorted((r for g in (5, 8) for r in p["runs"][g]),
                   key=lambda r: r["index"])
    for i, r in enumerate(order):
        near = order[max(0, i - COLD_REF_WINDOW):i + COLD_REF_WINDOW + 1]
        f = REF_NOMINAL_S / median([x for n in near for x in n["refs"]])
        r["norm_s"] = r["raw_s"] * f
        r["setup_s"] = r["setup_raw_s"] * f


def cold_metrics(p: dict) -> tuple:
    cold_normalise(p)
    g5, g8 = p["runs"][5], p["runs"][8]
    both = g5 + g8
    rounds = [(a["setup_s"] + a["norm_s"] + b["setup_s"] + b["norm_s"]) * 1e3
              for a, b in zip(g5, g8)]
    metrics = {
        "setup_s": (median([r["setup_s"] for r in both]), "s"),
        "main_ms": (median([r["norm_s"] for r in g8]) * 1e3, "ms"),
        "second_ms": (median([r["norm_s"] for r in g5]) * 1e3, "ms"),
        "round_ms": (median(rounds), "ms"),
        "peak_rss_mb": (median([r["rss_mb"] for r in g8]), "MB"),
    }
    detail = {
        "report_g5_ms": median([r["norm_s"] for r in g5]) * 1e3,
        "report_g8_ms": median([r["norm_s"] for r in g8]) * 1e3,
        "raw_report_g5_ms": median([r["raw_s"] for r in g5]) * 1e3,
        "raw_report_g8_ms": median([r["raw_s"] for r in g8]) * 1e3,
        "raw_setup_s": median([r["setup_raw_s"] for r in both]),
        "raw_ref_kernel_ms": median(
            [x for r in both for x in r["refs"]]) * 1e3,
        "samples_per_genus": len(g8),
    }
    return metrics, detail


def cold_trace(p: dict) -> tuple:
    """Sum the traced children's summaries; cold_ms is the first
    a2_normalize call of each genus-8 child, median."""
    summaries = [r["trace"] for g in (5, 8) for r in p["runs"][g]]
    first = [r["trace"]["first_ms"].get("trees.a2_normalize", 0.0)
             for r in p["runs"][8]]
    return merge(summaries), median(first), [
        {"job": "report genus %d" % g, "spans": r["trace"]["spans"]}
        for g in (5, 8) for r in p["runs"][g]]


# ---------------------------------------------------------------------------
# warm workloads
# ---------------------------------------------------------------------------


def warm_pass(workload, seeds, rounds: int, trace: bool) -> dict:
    runs = [spawn({"job": "warm", "workload": workload, "seed": s,
                   "rounds": rounds, "trace": trace}) for s in seeds]
    norm, raw = {}, {}
    for r in runs:
        for kind, values in r["norm"].items():
            norm.setdefault(kind, []).extend(values)
        for kind, values in r["raw"].items():
            raw.setdefault(kind, []).extend(values)
    return {"runs": runs, "norm": norm, "raw": raw,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": [x for r in runs for x in r["problems"]]}


def warm_metrics(workload, p: dict, probes: list) -> tuple:
    main, second = OPS[workload]
    runs = p["runs"]
    setups = runs + probes

    def per_op_ms(kind):
        # Mean time of one operation in the median round: a garbage
        # collection pass lands on some operation of some round, which
        # moves a plain mean by more than the work does.
        return median([x for r in runs for x in r["per_round"][kind]]) * 1e3

    metrics = {
        "setup_s": (median([r["setup_s"] for r in setups]), "s"),
        "main_ms": (per_op_ms(main), "ms"),
        "second_ms": (per_op_ms(second), "ms"),
        "round_ms": (median([x for r in runs for x in r["rounds"]]) * 1e3,
                     "ms"),
        "peak_rss_mb": (median([r["rss_mb"] for r in runs]), "MB"),
    }
    detail = {
        "raw_setup_s": median([r["setup_raw_s"] for r in setups]),
        "setup_samples": len(setups),
        "raw_ref_kernel_ms": median([x for r in runs for x in r["refs"]])
        * 1e3,
        "workers": len(runs),
    }
    names = {"pair": "gram_pairs_per_s", "twist": "twists_per_s",
             "tensor": "tensors_per_s", "orbit": "orbit_checks_per_s"}
    for kind, name in names.items():
        if kind in p["norm"]:
            detail[name] = per_s(p["norm"][kind])
            detail["raw_" + name] = per_s(p["raw"][kind])
            detail[name.replace("per_s", "count")] = len(p["norm"][kind])
    if "cli" in p["norm"]:
        cli = p["norm"]["cli"]
        detail["cocycle_cli_p50_ms"] = median(cli) * 1e3
        detail["cocycle_cli_p99_ms"] = tail(cli, 99) * 1e3
        detail["raw_cocycle_cli_p50_ms"] = median(p["raw"]["cli"]) * 1e3
        detail["cocycle_cli_count"] = len(cli)
    return metrics, detail


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

# Per-layer metric -> (source, key, unit); source "calls" / "self_ms" read
# the merged span summary, "counts" the boundary counters.
LAYER_METRICS = {}
for _name in ("trees.a2_normalize", "trees.tree_expand", "forms.q_form",
              "forms.j_form", "symplectic.coinvariant_reduce"):
    LAYER_METRICS[_name + ".calls"] = ("calls", _name, "count")
for _name in ("trees.a2_normalize", "trees.lambda4_span", "trees.tree_expand",
              "forms.project_bidegree", "forms.contract_cs", "forms.eta_s",
              "forms.nabla", "symplectic.coinvariant_reduce",
              "symplectic.gl_generator_action", "exact.solve_linear",
              "surgery.lambda2_surgery", "surgery.cocycle_coefficients",
              "cli.build_report", "grammar.parse_twist", "cli.main"):
    LAYER_METRICS[_name + ".self_ms"] = ("self_ms", _name, "ms")
for _name in ("trees.tau2_bscc_twist.terms_out", "forms.nabla.term_pairs",
              "symplectic.coinvariant_reduce.terms_in",
              "symplectic.coinvariant_reduce.terms_out",
              "symplectic.gl_generator_action.terms_out",
              "exact.FreeVec.inits"):
    LAYER_METRICS[_name] = ("counts", _name, "count")


def merge(summaries: list) -> dict:
    out = {"calls": {}, "self_ms": {}, "counts": {}, "op_ms": 0.0,
           "identity_error_ms": 0.0}
    for s in summaries:
        for key in ("calls", "self_ms", "counts"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["op_ms"] += s["op_ms"]
        out["identity_error_ms"] = max(out["identity_error_ms"],
                                       s["identity_error_ms"])
    return out


def layer_metrics(summary, cold_ms, refs, overhead_ms) -> dict:
    metrics = {name: (summary[src].get(key, 0), unit)
               for name, (src, key, unit) in LAYER_METRICS.items()}
    metrics["trees.a2_normalize.cold_ms"] = (cold_ms, "ms")
    metrics["bench.unwrapped_ms"] = (sum(
        v for k, v in summary["self_ms"].items() if k.startswith("bench.")),
        "ms")
    metrics["bench.ref_kernel_ms"] = (median(refs) * 1e3, "ms")
    metrics["bench.trace_overhead_ms"] = (overhead_ms, "ms")
    return metrics


def traced(workload, seed) -> tuple:
    """An untraced and a traced pass over the same inputs; per-layer
    metrics come from the traced one, the overhead from the difference."""
    if workload == "cold-report":
        plain = cold_pass(seed, COLD_TRACE_ROUNDS, False)
        spans = cold_pass(seed, COLD_TRACE_ROUNDS, True)
        cold_normalise(plain)
        cold_normalise(spans)
        summary, cold_ms, processes = cold_trace(spans)

        def times(p):
            return [r["norm_s"] for g in (5, 8) for r in p["runs"][g]]
        refs = [x for p in (plain, spans) for g in (5, 8)
                for r in p["runs"][g] for x in r["refs"]]
    else:
        rounds = max(1, WORKER_ROUNDS[workload] // TRACE_SHARE)
        seeds = ["%s/trace" % seed]
        plain = warm_pass(workload, seeds, rounds, False)
        spans = warm_pass(workload, seeds, rounds, True)
        worker = spans["runs"][0]
        summary = merge([worker["trace"]])
        cold_ms = worker["trace"]["first_ms"].get("trees.a2_normalize", 0.0)
        processes = [{"job": "warm", "spans": worker["trace"]["spans"]}]

        def times(p):
            return [x for v in p["norm"].values() for x in v]
        refs = [x for p in (plain, spans) for r in p["runs"]
                for x in r["refs"]]
    overhead = (mean_ms(times(spans)) - mean_ms(times(plain)))
    metrics = layer_metrics(summary, cold_ms, refs, overhead)
    problems = plain["problems"] + spans["problems"]
    detail = {"traced_op_ms": summary["op_ms"],
              "identity_error_ms": summary["identity_error_ms"],
              "spans": sum(len(p["spans"]) for p in processes),
              "calls": summary["calls"]}
    return (metrics, detail, plain["attempted"] + spans["attempted"],
            plain["failed"] + spans["failed"], problems, processes)


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run(args) -> dict:
    if not (ROOT / "src" / "treetrace" / "__init__.py").is_file():
        raise BenchError("no treetrace sources under %s" % (ROOT / "src"))
    w, seed, seconds = args.workload, args.seed, args.seconds
    processes = None
    correct = True
    if args.trace:
        metrics, detail, attempted, failed, problems, processes = traced(
            w, seed)
        # Self times of all spans of an operation, the root's own time (the
        # unwrapped remainder) included, must add up to the root span.
        correct = detail["identity_error_ms"] <= 1e-6
    elif w == "cold-report":
        p = cold_pass(seed, max(1, round(seconds * COLD_ROUNDS_PER_S)), False)
        metrics, detail = cold_metrics(p)
        attempted, failed, problems = p["attempted"], p["failed"], p[
            "problems"]
    else:
        workers = max(MIN_WORKERS, round(seconds / WORKER_SECONDS[w]))
        seeds = ["%s/%d" % (seed, k) for k in range(workers)]
        p = warm_pass(w, seeds, WORKER_ROUNDS[w], False)
        probes = [spawn({"job": "setup", "workload": w})
                  for _ in range(SETUP_PROBES)]
        metrics, detail = warm_metrics(w, p, probes)
        attempted, failed, problems = p["attempted"], p["failed"], p[
            "problems"]
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (w, seed, args.trace)
    if processes is not None:
        with open(OUT / ("trace-%s.json" % stem), "w") as fh:
            json.dump({"workload": w, "seed": seed, "span_fields":
                       ["name", "start_s", "end_s", "parent", "op"],
                       "processes": processes}, fh)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / ("result-%s.json" % stem), "w") as fh:
        json.dump(dict(result, detail=detail, problems=problems[:50],
                       python=sys.version.split()[0]), fh, indent=1)
    if problems:
        print("check failures: %s" % problems[:10], file=sys.stderr)
    print(json.dumps({"workload": w, "detail": detail}))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
