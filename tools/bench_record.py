"""Record a benchmark comparison of two checkouts as ``BENCH_<pr>.json``.

Usage:

    python3 tools/bench_record.py PARENT CHANGE --pr 21 --first-seed 101 \\
        --unseen-seed 9001

PARENT and CHANGE are checkouts (directories holding ``src/`` and
``perfbench/``).  For every workload of CHANGE's ``BENCHMARK.json`` it runs
each checkout's own ``perfbench/run.py --trace 0`` for ``SECONDS`` seconds
in ``PAIRS`` alternating pairs: pair k uses seed ``first_seed + k`` on both
sides, and every second pair runs the change first.  Before every run it
deletes each ``__pycache__`` under that checkout's ``src/`` and sets
``PYTHONDONTWRITEBYTECODE=1``, so the package is compiled from source as
the benchmark measures it.  With ``--unseen-seed`` it adds one more pair of
every workload at that seed, parent first, stored with that workload.

The result, written after every workload to ``BENCH_<pr>.json`` in the
current directory, has per workload and end-to-end metric each side's
median and inclusive quartiles, the change's ratio to the parent, the
pairs the change won (read better by the metric's own direction; a tie
wins for neither) and every pair's values, plus the failed operations.
``by_order`` repeats the medians and wins over the pairs that ran the
parent first and over those that ran the change first, since a cold run
can read differently by its place in the pair.
Each side is named by its HEAD commit and the git tree of its ``src/``
(``git rev-parse <commit>:src`` gives it back), plus a hash of
``git diff HEAD -- src`` when ``src/`` has uncommitted changes.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10          # alternating pairs per workload
SECONDS = 20        # BENCHMARK.json's run_seconds


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its last output line."""
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s %s seed %d failed:\n%s"
                         % (root, workload, seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def summarise(runs: dict, metrics: list) -> dict:
    """The BENCH layout for one workload from its runs per side."""
    out = {"correct": all(r["correct"] for side in SIDES
                          for r in runs[side]),
           "failed": {side: sum(r["failed"] for r in runs[side])
                      for side in SIDES},
           "attempted_per_run": runs["change"][0]["attempted"],
           "metrics": {}}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower"
                                      else -1)
        pairs = [[p["metrics"][name], c["metrics"][name]]
                 for p, c in zip(runs["parent"], runs["change"])]

        def wins(pairs):
            return sum(sign * (c - p) < 0 for p, c in pairs)

        parent = spread([p for p, _ in pairs])
        change = spread([c for _, c in pairs])
        out["metrics"][name] = {
            "unit": metric["unit"], "bound": metric["bound"],
            "parent": parent, "change": change,
            "change_vs_parent": round(
                change["median"] / parent["median"] - 1, 4),
            "change_wins": wins(pairs),
            "pairs": [[round(p, 6), round(c, 6)] for p, c in pairs],
            # Pair k ran the parent first when k is even (``main``).
            "by_order": {order: {
                "pairs": len(part),
                "parent_median": round(statistics.median(
                    p for p, _ in part), 6),
                "change_median": round(statistics.median(
                    c for _, c in part), 6),
                "change_wins": wins(part)}
                for order, part in (("parent_first", pairs[0::2]),
                                    ("change_first", pairs[1::2]))},
        }
    return out


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout


def commit(root: Path):
    """``root``'s HEAD commit and the tree of its ``src/``, with a hash of
    the uncommitted ``src/`` changes if there are any."""
    try:
        head = git(root, "rev-parse", "HEAD").strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    out = {"commit": head, "src_tree": git(root, "rev-parse",
                                            "HEAD:src").strip()}
    diff = git(root, "diff", "HEAD", "--", "src")
    if diff or git(root, "status", "--porcelain", "--", "src"):
        out["uncommitted_src_sha256"] = hashlib.sha256(
            diff.encode()).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--unseen-seed", type=int)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + k for k in range(PAIRS)]
    record = {
        "commit": commit(roots["change"]),
        "parent_commit": commit(roots["parent"]),
        "python": sys.version.split()[0],
        "method": "%d alternating parent/change pairs per workload (seeds "
                  "%d-%d, every second pair runs the change first), each "
                  "run with __pycache__ under src/ removed and "
                  "PYTHONDONTWRITEBYTECODE=1; median and inclusive quartiles "
                  "over each side's runs; change_wins counts pairs where the "
                  "change read better" % (PAIRS, seeds[0], seeds[-1]),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %d --trace 0" % SECONDS,
        "workloads": {},
    }
    path = Path("BENCH_%s.json" % args.pr)
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            for side in (SIDES[::-1] if k % 2 else SIDES):
                runs[side].append(run_once(roots[side], workload, seed))
                print("%s seed %d %s: %s" % (workload, seed, side,
                                             runs[side][-1]["metrics"]),
                      file=sys.stderr, flush=True)
        entry = record["workloads"][workload] = dict(
            seeds=seeds, pairs=PAIRS,
            **summarise(runs, bench["end_to_end"]))
        if args.unseen_seed is not None:
            entry["unseen_seed"] = {"seed": args.unseen_seed}
            for side in SIDES:
                result = run_once(roots[side], workload, args.unseen_seed)
                entry["unseen_seed"][side] = dict(
                    {name: round(value, 6)
                     for name, value in result["metrics"].items()},
                    correct=result["correct"], failed=result["failed"])
        path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
