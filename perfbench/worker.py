"""One fresh interpreter's share of a benchmark run; started by ``run.py``.

Usage: ``python3 perfbench/worker.py '<job json>'`` from the checkout root.
Prints one JSON object as its last line of output.  Jobs:

* ``{"job": "setup", "workload": w}``: import ``treetrace`` and make the
  workload's first warm-up call.
* ``{"job": "report", "genus": g, "trace": t}``: one cold
  ``report --genus g --format json`` call.
* ``{"job": "warm", "workload": w, "seed": n, "rounds": r, "trace": t}``:
  set up, then run ``r`` rounds of a warm workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import bench_checks as checks
import bench_inputs as inputs
from bench_kernel import factor, time_ref

ROOT = Path(__file__).resolve().parent.parent
GENUS = inputs.GENUS
TWISTS_PER_ROUND = 8        # plus the two built-in knots: a 10x10 Gram block
CLI_PER_ROUND = 3
REPORT_REF_REPEAT = 7       # kernel passes (median) on each side of a report


def import_program():
    """Import ``treetrace`` from this checkout's ``src``, never from an
    installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import treetrace
    from treetrace import cli  # noqa: F401  (imports every module)
    if not Path(treetrace.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("treetrace was not imported from %s" % (ROOT / "src"))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program():
    """The ``treetrace`` package; its attributes are looked up at each call,
    so a traced run reaches the wrappers."""
    return sys.modules["treetrace"]


def warm_up(workload: str):
    tt = program()
    if workload == "twist-gram":
        tt.tau2_bscc_twist(*tt.TREFOIL.bscc_basis, GENUS)
    else:
        tt.coinvariant_reduce((tt.a(1), tt.b(1)), GENUS)


def timed_setup(workload: str):
    """Raw seconds for the import plus the first warm-up call, and the
    normalisation factor from kernel runs just before and after."""
    time_ref()                      # first run pays for importing fractions
    before = time_ref()
    start = perf_counter()
    import_program()
    if workload != "cold-report":
        warm_up(workload)
    raw = perf_counter() - start
    return raw, factor(before, time_ref())


class Recorder:
    """Times operations in chunks, each between two reference-kernel runs,
    and keeps raw and normalised samples per operation kind."""

    def __init__(self, tracer=None, ref_repeat=1):
        self.tracer = tracer
        self.ref_repeat = ref_repeat
        self.raw = {}
        self.norm = {}
        self.rounds = []
        self.per_round = {}
        self.refs = []
        self.scale = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._next_op = 1

    def begin(self):
        self._chunk = []
        self._before = time_ref(self.ref_repeat)
        self._start = perf_counter()

    def op(self, kind: str, fn, *args):
        op_id = self._next_op
        self._next_op += 1
        self.attempted += 1
        if self.tracer is None:
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
        else:
            with self.tracer.operation(op_id, kind):
                start = perf_counter()
                out = fn(*args)
                elapsed = perf_counter() - start
        self._chunk.append((kind, elapsed, op_id))
        return out

    def end(self):
        wall = perf_counter() - self._start
        after = time_ref(self.ref_repeat)
        self.refs += [self._before, after]
        f = factor(self._before, after)
        totals = {}
        for kind, elapsed, op_id in self._chunk:
            self.raw.setdefault(kind, []).append(elapsed)
            self.norm.setdefault(kind, []).append(elapsed * f)
            self.scale[op_id] = f
            n, t = totals.get(kind, (0, 0.0))
            totals[kind] = (n + 1, t + elapsed * f)
        for kind, (n, t) in totals.items():
            self.per_round.setdefault(kind, []).append(t / n)
        self.rounds.append(wall * f)

    def fail(self, problems: list):
        """Count one failed operation if ``problems`` is not empty."""
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def _vec(d: dict):
    tt = program()
    return tt.FreeVec({tt.BasisLabel(i, f): c for (i, f), c in d.items()})


def _program_gen(gen: tuple):
    tt = program()
    kind = {"T": tt.Transposition, "S": tt.SignFlip, "E": tt.Elementary}
    return kind[gen[0]](*gen[1:])


def _gram(tau_x, lam_x, tau_y, lam_y):
    tt = program()
    return (tt.q_form(tau_x, tau_y), tt.j_form(tau_x, tau_y),
            tt.cocycle(lam_x, tau_x, lam_y, tau_y))


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = program().cli.main(argv)
    return rc, buf.getvalue()


def twist_gram_round(rec: Recorder, rng: random.Random):
    tau2_bscc_twist = program().tau2_bscc_twist
    twists = [inputs.TREFOIL, inputs.FIGURE_EIGHT] + [
        inputs.random_twist(rng) for _ in range(TWISTS_PER_ROUND)]
    n = len(twists)
    cli_pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(CLI_PER_ROUND)]
    gl_pair = (rng.randrange(n), rng.randrange(n))
    gen = inputs.random_generator(rng)
    vecs = [(_vec(t.x), _vec(t.y)) for t in twists]

    rec.begin()
    taus = [rec.op("twist", tau2_bscc_twist, x, y, GENUS) for x, y in vecs]
    gram = {}
    for i in range(n):
        for j in range(n):
            gram[i, j] = rec.op("pair", _gram, taus[i], twists[i].lam,
                                taus[j], twists[j].lam)
    cli_out = []
    for i, j in cli_pairs:
        x, y = twists[i], twists[j]
        argv = ["cocycle", inputs.twist_text(x), inputs.twist_text(y),
                "--genus", str(GENUS), "--lambda-x", str(x.lam),
                "--lambda-y", str(y.lam), "--format", "json"]
        cli_out.append(rec.op("cli", _cli, argv))
    rec.end()

    for k, slug in enumerate(("trefoil", "figure_eight")):
        rec.fail(checks.check_knot_diagonal(slug, *gram[k, k]))
    for i in range(n):
        for j in range(n):
            if not inputs.indices(twists[i].x, twists[i].y) & inputs.indices(
                    twists[j].x, twists[j].y):
                rec.fail(checks.check_disjoint_pair(
                    twists[i].lam, twists[j].lam, *gram[i, j]))
    for (i, j), (rc, text) in zip(cli_pairs, cli_out):
        want = {k: str(v) for k, v in zip("QJC", gram[i, j])}
        got = json.loads(text) if rc == 0 else {"exit": rc}
        rec.fail(checks.check_same("cocycle CLI %s %s" % (i, j), got, want))
    i, j = gl_pair
    moved = [tau2_bscc_twist(_vec(inputs.act(gen, t.x)),
                             _vec(inputs.act(gen, t.y)), GENUS)
             for t in (twists[i], twists[j])]
    q, jv, _ = _gram(moved[0], 0, moved[1], 0)
    rec.fail(checks.check_same("Q, J after %s" % (gen,), (q, jv),
                               gram[i, j][:2]))


def _term_list(vec) -> list:
    return [(tuple((lbl.index, lbl.family) for lbl in key), c)
            for key, c in vec.items()]


def _orbit(gen, tensor, reduced):
    tt = program()
    return tt.coinvariant_reduce(tt.gl_generator_action(gen, tensor),
                                 GENUS) == reduced


def coinvariant_round(rec: Recorder, rng: random.Random):
    tt = program()
    coinvariant_reduce, BasisLabel = tt.coinvariant_reduce, tt.BasisLabel
    pairs = inputs.tensor_round(rng)
    tensors = [t for t, _ in pairs]
    gens = [_program_gen(g) for _, g in pairs]
    keys = [tuple(BasisLabel(i, f) for i, f in t.slots) for t in tensors]

    rec.begin()
    results = []
    for key, gen in zip(keys, gens):
        reduced = rec.op("tensor", coinvariant_reduce, key, GENUS)
        results.append((reduced, rec.op("orbit", _orbit, gen, key, reduced)))
    rec.end()

    for tensor, (reduced, same) in zip(tensors, results):
        problems = checks.check_reduction(tensor, _term_list(reduced))
        if reduced and coinvariant_reduce(reduced, GENUS) != reduced:
            problems.append("reducing the output again changed it")
        rec.fail(problems)
        rec.fail([] if same else ["g.t and t reduce differently"])


ROUNDS = {"twist-gram": twist_gram_round,
          "coinvariant-orbits": coinvariant_round}


def new_tracer(enabled: bool):
    if not enabled:
        return None
    from bench_trace import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def trace_result(tracer, rec: Recorder) -> dict:
    from bench_trace import summarise
    out = summarise(tracer.spans, rec.scale)
    out["counts"] = tracer.counts
    out["spans"] = [[name, round(start, 7), round(end, 7), parent, op]
                    for name, start, end, parent, op in tracer.spans]
    return out


def job_setup(job: dict) -> dict:
    raw, f = timed_setup(job["workload"])
    return {"setup_raw_s": raw, "setup_s": raw * f}


def job_report(job: dict) -> dict:
    """Raw times only: ``run.py`` normalises them over a window of
    neighbouring children.  The trace's self times use this child's own
    kernel passes."""
    raw_setup, _ = timed_setup("cold-report")
    rec = Recorder(new_tracer(job["trace"]), ref_repeat=REPORT_REF_REPEAT)
    argv = ["report", "--genus", str(job["genus"]), "--format", "json"]
    rec.begin()
    rc, text = rec.op("report", _cli, argv)
    rec.end()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    out = {"setup_raw_s": raw_setup, "raw_s": rec.raw["report"][0],
           "refs": rec.refs, "rc": rc, "report": report, "rss_mb": rss_mb()}
    if rec.tracer is not None:
        out["trace"] = trace_result(rec.tracer, rec)
    return out


def job_warm(job: dict) -> dict:
    workload = job["workload"]
    time_ref()
    before = time_ref()
    start = perf_counter()
    import_program()
    rec = Recorder(new_tracer(job["trace"]))
    if rec.tracer is None:
        warm_up(workload)
    else:
        with rec.tracer.operation(0, "setup"):
            warm_up(workload)
    raw_setup = perf_counter() - start
    f_setup = factor(before, time_ref())
    rec.scale[0] = f_setup
    rng = random.Random(job["seed"])
    round_fn = ROUNDS[workload]
    for _ in range(job["rounds"]):
        round_fn(rec, rng)
    out = {"setup_raw_s": raw_setup, "setup_s": raw_setup * f_setup,
           "raw": rec.raw, "norm": rec.norm, "rounds": rec.rounds,
           "per_round": rec.per_round,
           "refs": rec.refs, "attempted": rec.attempted,
           "failed": rec.failed, "problems": rec.problems[:20],
           "rss_mb": rss_mb()}
    if rec.tracer is not None:
        out["trace"] = trace_result(rec.tracer, rec)
    return out


def main():
    job = json.loads(sys.argv[1])
    handler = {"setup": job_setup, "report": job_report,
               "warm": job_warm}[job["job"]]
    print(json.dumps(handler(job)))


if __name__ == "__main__":
    main()
