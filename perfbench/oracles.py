"""Reference answers computed without the code under test.

Everything here works on plain lists of ints and Fractions built by the
benchmark's own generators.  Nothing imports proxilift, so a regression in the
library cannot hide by also changing the reference.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


# ---------------------------------------------------------------------------
# Deterministic systems: a generator is a list of images, image[i] = g(i).

def all_pairs_merge(gens: list[list[int]], m: int) -> bool:
    """Whether every pair of points is merged by some word.

    Multi-source reverse search on the pair graph.  For a finite
    deterministic action this is both proximality and (by Cerny's pair
    criterion) the existence of a reset word.
    """
    reverse: dict[tuple[int, int], list[tuple[int, int]]] = {}
    merged: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()
    for i in range(m):
        for j in range(i + 1, m):
            for g in gens:
                a, b = g[i], g[j]
                if a == b:
                    if (i, j) not in merged:
                        merged.add((i, j))
                        queue.append((i, j))
                else:
                    reverse.setdefault((min(a, b), max(a, b)), []).append((i, j))
    while queue:
        for p in reverse.get(queue.popleft(), ()):
            if p not in merged:
                merged.add(p)
                queue.append(p)
    return len(merged) == m * (m - 1) // 2


def word_is_constant(gens: list[list[int]], word: list[int], m: int) -> bool:
    """Replay a word left to right on every point; True if one image remains."""
    points = set(range(m))
    for a in word:
        g = gens[a]
        points = {g[x] for x in points}
    return len(points) == 1


def compositions(m: int, q: int) -> list[tuple[int, ...]]:
    """Numerator vectors of the resolution-q grid on m points, lexicographic."""
    if m == 1:
        return [(q,)]
    return [
        (a,) + rest for a in range(q + 1) for rest in compositions(m - 1, q - a)
    ]


def push_composition(g: list[int], comp: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(comp)
    for i, a in enumerate(comp):
        out[g[i]] += a
    return tuple(out)


def lifted_word_is_constant(
    gens: list[list[int]], word: list[int], m: int, q: int
) -> bool:
    """Replay a word on the resolution-q grid; True if it is constant there."""
    atoms = set(compositions(m, q))
    for a in word:
        atoms = {push_composition(gens[a], c) for c in atoms}
    return len(atoms) == 1


def atom_orbits(gens: list[list[int]], m: int, q: int) -> list[frozenset[int]]:
    """Orbits of the grid atoms (by lexicographic index) under permutations."""
    atoms = compositions(m, q)
    index = {c: i for i, c in enumerate(atoms)}
    seen: set[int] = set()
    orbits = []
    for start in range(len(atoms)):
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            c = atoms[stack.pop()]
            for g in gens:
                j = index[push_composition(g, c)]
                if j not in orbit:
                    orbit.add(j)
                    stack.append(j)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


# ---------------------------------------------------------------------------
# Stochastic systems: a generator is a list of rows of Fractions.

def supports(matrix: list[list[Fraction]]) -> list[frozenset[int]]:
    return [frozenset(j for j, p in enumerate(row) if p) for row in matrix]


def all_pairs_meet(gen_supports: list[list[frozenset[int]]], m: int) -> bool:
    """Whether every pair of rows can be driven to share a column.

    Search on the support pair graph: (x, y) steps to (x', y') with x' in the
    support of row x and y' in the support of row y under one letter.  A
    shared column, once reached, survives every extension, so a scrambling
    word (Dobrushin coefficient below 1) exists exactly when every pair meets
    (Paz 1971; Seneta 2006).
    """
    for x in range(m):
        for y in range(x + 1, m):
            start = (x, y)
            seen = {start}
            queue = deque([start])
            met = False
            while queue and not met:
                a, b = queue.popleft()
                for sup in gen_supports:
                    if sup[a] & sup[b]:
                        met = True
                        break
                    for a2 in sup[a]:
                        for b2 in sup[b]:
                            nxt = (min(a2, b2), max(a2, b2))
                            if nxt not in seen:
                                seen.add(nxt)
                                queue.append(nxt)
            if not met:
                return False
    return True


def word_is_scrambling(
    gen_supports: list[list[frozenset[int]]], word: list[int], m: int
) -> bool:
    """Whether every two rows of the word's product share a column."""
    rows = [frozenset([i]) for i in range(m)]
    for a in word:
        sup = gen_supports[a]
        rows = [frozenset().union(*(sup[j] for j in r)) for r in rows]
    return all(rows[i] & rows[j] for i in range(m) for j in range(i + 1, m))


def word_crowds_vertex(
    gens: list[list[list[Fraction]]], word: list[int], epsilon: Fraction
) -> bool:
    """Whether all rows of the exact product lie within epsilon of one vertex."""
    m = len(gens[0])
    prod = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for a in word:
        g = gens[a]
        prod = [
            [sum((row[k] * g[k][j] for k in range(m)), Fraction(0)) for j in range(m)]
            for row in prod
        ]
    crowd = max(min(prod[i][j] for i in range(m)) for j in range(m))
    return 1 - crowd < epsilon


# ---------------------------------------------------------------------------
# Wasserstein-1 on a line, by the cumulative distribution formula.

def w1_on_line(
    positions: list[int], a: tuple[int, ...], b: tuple[int, ...], q: int
) -> Fraction:
    """W1 between compositions a/q and b/q of points placed on the real line."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    total = 0
    gap_sum = 0
    for k in range(len(order) - 1):
        i = order[k]
        gap_sum += a[i] - b[i]
        total += abs(gap_sum) * (positions[order[k + 1]] - positions[i])
    return Fraction(total, q)
