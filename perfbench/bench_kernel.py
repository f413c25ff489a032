"""Fixed reference kernel that every benchmark timing is normalised against.

The host this benchmark runs on changes speed from minute to minute (shared
cores, frequency steps), by more than the regressions the benchmark must
catch.  So each timed sample is taken next to a run of this kernel in the
same process, and reported as

    sample_time / adjacent_reference_time * REF_NOMINAL_S

The kernel is stdlib ``Fraction`` arithmetic plus dict updates keyed by
nested tuples, the same mix as the inner loops of ``treetrace`` (``FreeVec``
accumulation over wedge-pair keys).  It must never change: a new kernel or a
new ``REF_NOMINAL_S`` makes every earlier figure incomparable.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median raw kernel time on the host where the figures in README.md were
# taken; it only sets the scale, so normalised values read close to raw ones.
REF_NOMINAL_S = 0.004

_STEPS = 400


def ref_kernel():
    """One pass of the reference work; returns its (exact) checksum."""
    acc = {}
    step = Fraction(1, 3)
    for i in range(_STEPS):
        key = ((i % 7, i % 5), (i % 3, i % 11))
        value = acc.get(key, 0) + Fraction(i % 13 - 6, i % 4 + 1) * step
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    return sum(acc.values()), len(acc)


def time_ref(repeat: int = 1) -> float:
    """Raw seconds taken by one pass of the reference kernel, the median of
    ``repeat`` passes."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        ref_kernel()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


def factor(ref_before: float, ref_after: float) -> float:
    """Scale turning raw seconds taken between two kernel runs into
    normalised seconds."""
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2)
