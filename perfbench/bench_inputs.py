"""Seeded inputs for the benchmark workloads, built without ``treetrace``.

Vectors of H are plain dicts ``{(index, family): int}`` with family "a" or
"b"; basic tensors are tuples of ``(index, family)`` slots.  The
intersection form, the transvections and the GL generator action here are
written out from their definitions, so the checks in ``bench_checks`` do
not rest on the code they check.
"""

from __future__ import annotations

import random
from math import factorial
from typing import NamedTuple

GENUS = 6
# Twists live on indices 1..5, so every pair also fits a genus-5 CLI call
# and index 6 stays free for the coinvariant splitting.
TWIST_INDICES = tuple(range(1, 6))
MAX_MULTIPLICITY = 5


class Twist(NamedTuple):
    """Subsurface basis (x, y) of a genus-1 bounding curve, its Casson value
    and the name of a built-in knot (or None)."""

    x: dict
    y: dict
    lam: int
    knot: str | None = None


class Tensor(NamedTuple):
    """A basic tensor with the multiplicity of each index (count of a_i,
    equal to the count of b_i when balanced)."""

    slots: tuple
    multiplicities: dict
    balanced: bool


TREFOIL = Twist({(1, "a"): 1, (1, "b"): 1},
                {(2, "a"): 1, (1, "b"): -1, (2, "b"): 1}, 1, "trefoil")
FIGURE_EIGHT = Twist({(1, "a"): 1, (1, "b"): 1},
                     {(2, "a"): 1, (1, "b"): 1, (2, "b"): -1}, -1,
                     "figure-eight")


def omega(u: dict, v: dict) -> int:
    """Intersection form: omega(a_i, b_i) = 1 = -omega(b_i, a_i)."""
    total = 0
    for (i, f), c in u.items():
        for (j, g), d in v.items():
            if i == j and f != g:
                total += c * d if f == "a" else -c * d
    return total


def add(u: dict, v: dict, scale: int = 1) -> dict:
    out = dict(u)
    for key, c in v.items():
        value = out.get(key, 0) + scale * c
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def transvect(u: dict, v: dict) -> dict:
    """Symplectic transvection u -> u + omega(v, u) v; it preserves omega."""
    return add(u, v, omega(v, u))


def indices(*vectors) -> set:
    return {i for u in vectors for (i, _) in u}


def random_twist(rng: random.Random) -> Twist:
    """(a_i, b_i) moved by one to three transvections supported on a random
    set of one to three indices from ``TWIST_INDICES``."""
    support = rng.sample(TWIST_INDICES, rng.randint(1, 3))
    i = rng.choice(support)
    x, y = {(i, "a"): 1}, {(i, "b"): 1}
    for _ in range(rng.randint(1, 3)):
        v = {}
        for _ in range(rng.randint(1, 2)):
            v[(rng.choice(support), rng.choice("ab"))] = rng.choice((1, -1))
        x, y = transvect(x, v), transvect(y, v)
    return Twist(x, y, rng.randint(-3, 3))


def random_generator(rng: random.Random) -> tuple:
    """A GL_6(Z) generator as ("T", i, j), ("S", j) or ("E", i, j, sign)."""
    kind = rng.choice("TSE")
    if kind == "S":
        return ("S", rng.randint(1, GENUS))
    i, j = rng.sample(range(1, GENUS + 1), 2)
    if kind == "T":
        return ("T", min(i, j), max(i, j))
    return ("E", i, j, rng.choice((1, -1)))


def generator_image(gen: tuple, slot: tuple) -> list:
    """Image of one basis vector: T swaps indices i and j, S negates a_j and
    b_j, E sends a_j to a_j + sign*a_i and b_i to b_i - sign*b_j (G on A,
    its inverse transpose on B)."""
    index, family = slot
    if gen[0] == "T":
        _, i, j = gen
        swap = {i: j, j: i}
        return [((swap.get(index, index), family), 1)]
    if gen[0] == "S":
        return [(slot, -1 if index == gen[1] else 1)]
    _, i, j, sign = gen
    if family == "a" and index == j:
        return [(slot, 1), ((i, "a"), sign)]
    if family == "b" and index == i:
        return [(slot, 1), ((j, "b"), -sign)]
    return [(slot, 1)]


def act(gen: tuple, u: dict) -> dict:
    out = {}
    for slot, c in u.items():
        out = add(out, dict(generator_image(gen, slot)), c)
    return out


def partitions(n: int, cap: int) -> list:
    """Partitions of n into parts of at most ``cap``, largest part first."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, cap), 0, -1)
            for rest in partitions(n - p, p)]


# Multiplicity patterns of the degree-8 and degree-10 tensors: (4,), (3, 1),
# ..., (5,), ..., (1, 1, 1, 1, 1).
SHAPES = tuple(partitions(4, MAX_MULTIPLICITY)
               + partitions(5, MAX_MULTIPLICITY))


def make_tensor(rng: random.Random, shape: tuple, balanced: bool) -> Tensor:
    """A basic tensor at genus 6 with the given index multiplicities on
    seeded indices, its slots in seeded order.  An unbalanced one has one
    slot moved to the other family, so it dies in the coinvariants."""
    chosen = rng.sample(range(1, GENUS + 1), len(shape))
    slots = []
    for index, p in zip(chosen, shape):
        slots += [(index, "a")] * p + [(index, "b")] * p
    if not balanced:
        k = rng.randrange(len(slots))
        index, family = slots[k]
        slots[k] = (index, "b" if family == "a" else "a")
    rng.shuffle(slots)
    return Tensor(tuple(slots), dict(zip(chosen, shape)), balanced)


def orbit_generator(rng: random.Random, tensor: Tensor, kind: str) -> tuple:
    """A generator that moves the tensor's index of largest multiplicity:
    T swaps it with an unused index, S negates it, E adds the unused
    index's a to its a-slots (2**p image terms for multiplicity p)."""
    used = list(tensor.multiplicities)
    top = used[0]
    free = rng.choice([i for i in range(1, GENUS + 1) if i not in used])
    if kind == "T":
        return ("T", min(top, free), max(top, free))
    if kind == "S":
        return ("S", top)
    return ("E", free, top, rng.choice((1, -1)))


def tensor_round(rng: random.Random) -> list:
    """One round of (tensor, generator) pairs.  Which shapes, how many of
    each are unbalanced (one in five) and which generator kind each gets are
    fixed, so every round and every seed does the same mix of work; the
    seed picks the indices, the slot order and the moved slot."""
    out = []
    for s, shape in enumerate(SHAPES):
        for balanced in (True, True, False)[:2 + (s % 2 == 0)]:
            tensor = make_tensor(rng, shape, balanced)
            kind = "TSE"[len(out) % 3]
            out.append((tensor, orbit_generator(rng, tensor, kind)))
    return out


def chord_sum(multiplicities: dict) -> int:
    """Coefficient sum of the reduction of a balanced tensor: each index of
    multiplicity p contributes its p! matchings of a-slots to b-slots."""
    total = 1
    for p in multiplicities.values():
        total *= factorial(p)
    return total


def format_vec(u: dict) -> str:
    """Text form in the CLI grammar, e.g. ``a1 - 2*b3``."""
    if not u:
        return "0"
    out = []
    for (index, family), c in sorted(u.items()):
        body = "%s%d" % (family, index)
        mag = abs(c)
        term = body if mag == 1 else "%d*%s" % (mag, body)
        if not out:
            out.append(("-" if c < 0 else "") + term)
        else:
            out.append((" - " if c < 0 else " + ") + term)
    return "".join(out)


def twist_text(t: Twist) -> str:
    return t.knot or "twist(%s; %s)" % (format_vec(t.x), format_vec(t.y))
