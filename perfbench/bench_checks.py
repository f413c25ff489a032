"""Output checks for the benchmark workloads.

Every check compares against a value from the paper or against a property
the method must have; none compares against a saved copy of the program's
output.  Each returns a list of problems (empty when the output is right),
so a caller counts a failed operation per non-empty list.
"""

from __future__ import annotations

from bench_inputs import chord_sum

# The paper's values for the twist on each built-in knot's bounding curve:
# Q, J, B = 3J + 3/4 Q, the cocycle 36*lam^2 + B, and the surgery-side
# difference lambda2(1/2) - 2*lambda2(1/1); lam is the Casson value.
PAPER_KNOTS = {
    "trefoil": {"q": 48, "j": 12, "b": 72, "cocycle": 108, "surgery": 108,
                "lam": 1},
    "figure_eight": {"q": 80, "j": 12, "b": 96, "cocycle": 132,
                     "surgery": 132, "lam": -1},
}
PAPER_SCALARS = {
    "cocycle_coefficients": "(3, 3/4)",
    "alpha_r": "(18, -3)",
    "poincare_obstruction": "24",
}


def check_report(rc: int, report) -> list:
    """A ``report --format json`` run: exit 0, every check passed, and the
    knot values and scalars equal to the paper's."""
    if rc != 0:
        return ["report exited %r" % (rc,)]
    if not isinstance(report, dict) or not report.get("overall_pass"):
        return ["report did not pass"]
    computed = {c["name"]: c["computed"] for c in report["checks"]}
    want = dict(PAPER_SCALARS)
    for slug, v in PAPER_KNOTS.items():
        for key in ("q", "j", "b", "cocycle"):
            want["%s_%s" % (key, slug)] = str(v[key])
        want["surgery_difference_%s" % slug] = str(v["surgery"])
        want["cross_route_%s" % slug] = str(v["b"])
    return ["%s = %s, paper %s" % (name, computed.get(name), value)
            for name, value in sorted(want.items())
            if computed.get(name) != value]


def check_genus_stable(low: dict, high: dict) -> list:
    """Every computed value of the report is the same at both genera."""
    def values(report):
        return {c["name"]: c["computed"] for c in report["checks"]}
    a, b = values(low), values(high)
    if a.keys() != b.keys():
        return ["reports at genus %s and %s hold different checks"
                % (low["genus"], high["genus"])]
    return ["%s: %s at genus %s, %s at genus %s"
            % (k, a[k], low["genus"], b[k], high["genus"])
            for k in sorted(a) if a[k] != b[k]]


def check_knot_diagonal(slug: str, q, j, c) -> list:
    want = PAPER_KNOTS[slug]
    got = (q, j, c)
    expected = (want["q"], want["j"], want["cocycle"])
    return [] if got == expected else [
        "%s: (Q, J, C) = %s, paper %s" % (slug, got, expected)]


def check_disjoint_pair(lam_x, lam_y, q, j, c) -> list:
    """Twists on disjoint indices: Q = J = 0 and C = 36*lam*lam'."""
    expected = (0, 0, 36 * lam_x * lam_y)
    return [] if (q, j, c) == expected else [
        "disjoint pair: (Q, J, C) = %s, expected %s" % ((q, j, c), expected)]


def check_same(what: str, got, expected) -> list:
    return [] if got == expected else [
        "%s: %s, expected %s" % (what, got, expected)]


def is_chord(slots: tuple) -> bool:
    """Each index once as a and once as b, numbered 1, 2, ... by first
    occurrence."""
    seen = []
    count = {}
    for index, family in slots:
        if index not in seen:
            seen.append(index)
        count[(index, family)] = count.get((index, family), 0) + 1
    return (seen == list(range(1, len(seen) + 1))
            and all(count.get((i, f)) == 1 for i in seen for f in "ab")
            and len(slots) == 2 * len(seen))


def check_reduction(tensor, terms: list) -> list:
    """``terms`` is the reduction as [(slots, coefficient)]: zero for an
    unbalanced tensor, otherwise chord-shaped with coefficient sum equal to
    the product of p_i! over the index multiplicities."""
    if not tensor.balanced:
        return [] if not terms else ["unbalanced tensor reduced to %d terms"
                                     % len(terms)]
    problems = ["term %r is not a chord" % (slots,)
                for slots, _ in terms if not is_chord(slots)]
    total = sum(c for _, c in terms)
    if total != chord_sum(tensor.multiplicities):
        problems.append("coefficient sum %s, expected %s"
                        % (total, chord_sum(tensor.multiplicities)))
    return problems
