"""Tests for the benchmark's own parts: input generators, output checks,
the reference kernel and the span arithmetic.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.  Nothing here
installs the tracer, which would patch ``treetrace`` for the whole session.
"""

import random

import bench_checks as checks
import bench_inputs as inputs
from bench_kernel import ref_kernel
from bench_trace import self_times, summarise
from treetrace import BasisLabel, FreeVec, coinvariant_reduce, omega
from treetrace.cli import build_report


def _vec(d):
    return FreeVec({BasisLabel(i, f): c for (i, f), c in d.items()})


def test_twist_generator_gives_symplectic_pairs_inside_the_genus():
    for seed in range(300):
        t = inputs.random_twist(random.Random(seed))
        assert inputs.omega(t.x, t.y) == 1
        assert omega(_vec(t.x), _vec(t.y)) == 1
        assert inputs.indices(t.x, t.y) <= set(inputs.TWIST_INDICES)
        assert max(inputs.TWIST_INDICES) <= inputs.GENUS


def test_generator_action_preserves_omega():
    rng = random.Random(7)
    for _ in range(200):
        t = inputs.random_twist(rng)
        gen = inputs.random_generator(rng)
        assert inputs.omega(inputs.act(gen, t.x), inputs.act(gen, t.y)) == 1


def test_builtin_knot_bases_match_the_program():
    from treetrace import FIGURE_EIGHT, TREFOIL
    for ours, theirs in ((inputs.TREFOIL, TREFOIL),
                         (inputs.FIGURE_EIGHT, FIGURE_EIGHT)):
        assert (_vec(ours.x), _vec(ours.y)) == theirs.bscc_basis


def test_reference_kernel_is_deterministic():
    first = ref_kernel()
    assert all(ref_kernel() == first for _ in range(5))


def _reduction(tensor):
    key = tuple(BasisLabel(i, f) for i, f in tensor.slots)
    return [(tuple((lbl.index, lbl.family) for lbl in k), c)
            for k, c in coinvariant_reduce(key, inputs.GENUS).items()]


def test_reduction_check_accepts_the_program_and_rejects_corruption():
    rng = random.Random(3)
    tensors = [t for _ in range(2) for t, _ in inputs.tensor_round(rng)]
    balanced = [t for t in tensors if t.balanced]
    assert balanced and len(balanced) < len(tensors)
    for t in tensors:
        assert checks.check_reduction(t, _reduction(t)) == []
    t = max(balanced, key=lambda t: checks.chord_sum(t.multiplicities))
    terms = _reduction(t)
    off_by_one = [(terms[0][0], terms[0][1] + 1)] + terms[1:]
    assert checks.check_reduction(t, off_by_one)
    not_chord = [((terms[0][0][1],) + terms[0][0][1:], terms[0][1])] + terms[1:]
    assert checks.check_reduction(t, not_chord)
    dead = next(t for t in tensors if not t.balanced)
    assert checks.check_reduction(dead, terms)


def test_chord_shape():
    assert checks.is_chord(((1, "a"), (2, "b"), (1, "b"), (2, "a")))
    assert not checks.is_chord(((2, "a"), (2, "b"), (1, "a"), (1, "b")))
    assert not checks.is_chord(((1, "a"), (1, "a"), (1, "b"), (1, "b")))


def test_report_checks_reject_a_wrong_paper_value():
    report = build_report(5).to_dict()
    assert checks.check_report(0, report) == []
    assert checks.check_report(1, report)
    wrong = dict(report, checks=[dict(c) for c in report["checks"]])
    for c in wrong["checks"]:
        if c["name"] == "q_trefoil":
            c["computed"] = "49"
    assert checks.check_report(0, wrong)
    assert checks.check_genus_stable(report, wrong)
    assert checks.check_report(0, dict(report, overall_pass=False))


def test_form_checks_reject_wrong_values():
    assert checks.check_knot_diagonal("trefoil", 48, 12, 108) == []
    assert checks.check_knot_diagonal("trefoil", 48, 12, 107)
    assert checks.check_knot_diagonal("figure_eight", 80, 12, 132) == []
    assert checks.check_disjoint_pair(2, -3, 0, 0, -216) == []
    assert checks.check_disjoint_pair(2, -3, 1, 0, -216)


def test_twist_text_round_trips_through_the_grammar():
    from treetrace import parse_twist
    rng = random.Random(11)
    for _ in range(50):
        t = inputs.random_twist(rng)
        assert parse_twist(inputs.twist_text(t)) == (_vec(t.x), _vec(t.y))


def test_self_times_add_up_to_the_operation():
    spans = [("bench.op", 0.0, 10.0, None, 1),
             ("f", 1.0, 6.0, 0, 1),
             ("g", 2.0, 3.0, 1, 1),
             ("g", 7.0, 9.0, 0, 1)]
    assert self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    summary = summarise(spans, {1: 2.0})
    assert summary["calls"] == {"bench.op": 1, "f": 1, "g": 2}
    assert summary["self_ms"]["g"] == 6000.0
    assert summary["op_ms"] == 20000.0
    assert summary["identity_error_ms"] == 0.0
