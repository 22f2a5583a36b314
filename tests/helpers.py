"""Shared randomized generators and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: transport is
solved by enumerating every integer coupling, synchronization by enumerating
words level by level, invariant meta-measures by enumerating the vertices of
the invariance polytope.  Expected values frozen into tests come from these or
from hand evaluation, never from the code under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from proxilift import (
    ActionSystem,
    FiniteSpace,
    Measure,
    StochasticMatrix,
    lift_system,
)
from proxilift.linalg import solve_affine


# ---------------------------------------------------------------------------
# Random instances.

def rand_measure(rng: random.Random, m: int, granularity: int = 8) -> Measure:
    nums = [rng.randint(0, granularity) for _ in range(m)]
    if not any(nums):
        nums[rng.randrange(m)] = 1
    total = sum(nums)
    return Measure(tuple(Fraction(a, total) for a in nums))


def rand_grid_measure(rng: random.Random, m: int, q: int) -> Measure:
    """Uniformly random atom of the resolution-q grid."""
    cuts = sorted(rng.randint(0, q) for _ in range(m - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(q - prev)
    return Measure(tuple(Fraction(a, q) for a in parts))


def rand_metric_space(rng: random.Random, m: int) -> FiniteSpace:
    """Random integer points in Z^3 under the L1 metric (a genuine metric)."""
    while True:
        points = [
            tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(m)
        ]
        if len(set(points)) == m:
            break
    rows = tuple(
        tuple(
            Fraction(sum(abs(a - b) for a, b in zip(points[i], points[j])))
            for j in range(m)
        )
        for i in range(m)
    )
    return FiniteSpace(tuple(f"p{i}" for i in range(m)), rows)


def rand_det_system(
    rng: random.Random, m: int, max_gens: int = 3
) -> ActionSystem:
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    k = rng.randint(1, max_gens)
    images = [
        tuple(rng.randrange(m) for _ in range(m)) for _ in range(k)
    ]
    return ActionSystem.deterministic(space, images)


def rand_stochastic(rng: random.Random, m: int, granularity: int = 8) -> StochasticMatrix:
    return StochasticMatrix(
        tuple(rand_measure(rng, m, granularity).weights for _ in range(m))
    )


# ---------------------------------------------------------------------------
# Transport oracle: exhaustive enumeration of integer couplings.

def _tables(rows: list[int], cols: list[int]):
    """All nonnegative integer matrices with the given margins."""
    if len(rows) == 1:
        yield [list(cols)]
        return
    head, rest = rows[0], rows[1:]

    def rows_summing(total: int, caps: list[int]):
        if not caps:
            if total == 0:
                yield []
            return
        for v in range(min(total, caps[0]) + 1):
            for tail in rows_summing(total - v, caps[1:]):
                yield [v] + tail

    for first in rows_summing(head, cols):
        reduced = [c - v for c, v in zip(cols, first)]
        for sub in _tables(rest, reduced):
            yield [first] + sub


def brute_force_w1(
    metric: Sequence[Sequence[Fraction]], mu: Measure, nu: Measure
) -> Fraction:
    denom = 1
    for w in mu.weights + nu.weights:
        denom = denom * w.denominator // math.gcd(denom, w.denominator)
    rows = [int(w * denom) for w in mu.weights]
    cols = [int(w * denom) for w in nu.weights]
    best: Optional[Fraction] = None
    for table in _tables(rows, cols):
        cost = sum(
            (
                Fraction(table[i][j]) * metric[i][j]
                for i in range(len(rows))
                for j in range(len(cols))
                if table[i][j]
            ),
            Fraction(0),
        )
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best / denom


# ---------------------------------------------------------------------------
# Synchronization oracles: plain word enumeration, no subset construction.

def _word_images(gens: list[tuple[int, ...]], word: tuple[int, ...]) -> tuple[int, ...]:
    m = len(gens[0])
    image = tuple(range(m))
    for a in word:
        g = gens[a]
        image = tuple(g[i] for i in image)
    return image


def brute_reset_length(sys: ActionSystem, max_len: int) -> Optional[int]:
    """Length of the shortest constant word, by level-order enumeration."""
    gens = [g.image for g in sys.generators]
    for length in range(max_len + 1):
        for word in product(range(len(gens)), repeat=length):
            if len(set(_word_images(gens, word))) == 1:
                return length
    return None


def brute_merge_length(
    sys: ActionSystem, x: int, y: int, max_len: int
) -> Optional[int]:
    """Length of the shortest word sending x and y together."""
    gens = [g.image for g in sys.generators]
    for length in range(max_len + 1):
        for word in product(range(len(gens)), repeat=length):
            image = _word_images(gens, word)
            if image[x] == image[y]:
                return length
    return None


def mergeable_pairs_oracle(sys: ActionSystem) -> set[tuple[int, int]]:
    """Pairs x < y that some word merges, as a forward fixed point.

    A pair is mergeable when some generator merges it or sends it to a
    mergeable pair; sweeps over all pairs repeat until nothing changes.
    """
    gens = [g.image for g in sys.generators]
    m = len(sys.space)
    merged: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for x, y in combinations(range(m), 2):
            if (x, y) in merged:
                continue
            for g in gens:
                a, b = sorted((g[x], g[y]))
                if a == b or (a, b) in merged:
                    merged.add((x, y))
                    changed = True
                    break
    return merged


# ---------------------------------------------------------------------------
# Invariant meta-measure oracle: exhaustive vertex enumeration of the
# invariance polytope, trying every zero pattern.

def solve_unique(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve ``A x = b`` when a unique solution is required; ``None`` otherwise."""
    sol = solve_affine(rows, rhs)
    if sol is None:
        return None
    particular, basis = sol
    if basis:
        return None
    return particular


def polytope_vertices(
    eq_rows: list[list[Fraction]],
    eq_rhs: list[Fraction],
    n: int,
    max_candidates: int = 2_000_000,
) -> list[tuple[Fraction, ...]]:
    """All vertices of ``{x in Q^n : A x = b, x >= 0}``, exactly.

    The affine solution set of the equalities is computed first; a vertex of
    the polytope then pins an additional ``dim`` coordinates to zero, where
    ``dim`` is the dimension of that solution set.  Every size-``dim`` zero
    pattern is tried; degenerate vertices are still found because some
    independent subset of their zero coordinates completes the equality rows
    to full rank.
    """
    sol = solve_affine(eq_rows, eq_rhs)
    if sol is None:
        return []
    particular, basis = sol
    dim = len(basis)
    if dim == 0:
        if all(x >= 0 for x in particular):
            return [tuple(particular)]
        return []

    from math import comb

    if comb(n, dim) > max_candidates:
        raise RuntimeError(
            f"vertex enumeration needs C({n},{dim}) = {comb(n, dim)} candidate "
            f"zero patterns (cap {max_candidates})"
        )

    vertices: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for zero_set in combinations(range(n), dim):
        # Pinning x_i = 0 for i in zero_set means solving, in the free
        # coordinates t of x = particular + basis . t, the square system
        # particular[i] + sum_k basis[k][i] t_k = 0.
        rows = [[basis[k][i] for k in range(dim)] for i in zero_set]
        rhs = [-particular[i] for i in zero_set]
        t = solve_unique(rows, rhs)
        if t is None:
            continue
        point = [
            particular[i] + sum(basis[k][i] * t[k] for k in range(dim))
            for i in range(n)
        ]
        if any(x < 0 for x in point):
            continue
        tup = tuple(point)
        if tup not in seen:
            seen.add(tup)
            vertices.append(tup)
    return vertices


def polytope_oracle(sys: ActionSystem, q: int) -> list[Measure]:
    """Extreme invariant meta-measures of the q-lift, sorted by weights.

    Invariance under each lifted atom map is a linear equality on the
    meta-measure; together with total mass one and nonnegativity it cuts out
    a polytope whose vertices are enumerated exactly.
    """
    lifted = lift_system(sys, q)
    n = len(lifted.grid.atoms)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for t in lifted.generators:
        preimages: dict[int, list[int]] = {}
        for i, j in enumerate(t.image):
            preimages.setdefault(j, []).append(i)
        if all(p == [j] for j, p in preimages.items()):
            continue  # identity atom map constrains nothing
        for j in range(n):
            row = [Fraction(0)] * n
            for i in preimages.get(j, []):
                row[i] += 1
            row[j] -= 1
            if any(row):
                rows.append(row)
                rhs.append(Fraction(0))
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    metas = [Measure(v) for v in polytope_vertices(rows, rhs, n)]
    metas.sort(key=lambda meta: meta.weights)
    return metas
