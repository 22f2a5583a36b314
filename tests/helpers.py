"""Shared randomized generators and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: transport is
solved by enumerating every integer coupling, synchronization by enumerating
words level by level or by a subset BFS that applies maps point by point,
lifted generators by pushing every composition of the grid on its own,
mergeable pairs by forward fixed points over the points or the row supports,
invariant meta-measures by enumerating the vertices of the invariance
polytope, linear systems by Gauss-Jordan elimination on ``Fraction`` rows,
the stochastic greedy searches by multiplying ``Fraction`` matrices, the
barycenter laws on validated ``Fraction`` measures, and the input checks of
measures, stochastic matrices and metrics and the Dobrushin coefficient by
``Fraction`` loops.  Expected values frozen into tests come from these or
from hand evaluation, never from the code under test.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from hypothesis import strategies as st

from proxilift import (
    ActionSystem,
    Budget,
    CheckReport,
    DimensionMismatch,
    FiniteSpace,
    GridSimplex,
    Measure,
    SemigroupTable,
    Status,
    StochasticMatrix,
    Transformation,
    ValidationError,
    Verdict,
    lift_system,
    pushforward,
    random_measure,
    tv_distance,
)
from proxilift.proximality import EntryBound, NeverMerges


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


def rand_metric_space(
    rng: random.Random, m: int, dens: Optional[Sequence[int]] = None
) -> FiniteSpace:
    """Random integer points in Z^3 under the L1 metric (a genuine metric).

    With ``dens``, axis k is weighted by 1/d_k for a d_k drawn from dens, so
    the distances are rationals over mixed denominators; without it no
    weights are drawn and the RNG sequence is the integer one.
    """
    while True:
        points = [
            tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(m)
        ]
        if len(set(points)) == m:
            break
    weights = [Fraction(1, rng.choice(dens)) for _ in range(3)] if dens else [1] * 3
    rows = tuple(
        tuple(
            Fraction(
                sum(abs(a - b) * w for a, b, w in zip(points[i], points[j], weights))
            )
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


def rand_sparse_stochastic_system(rng: random.Random, m: int) -> ActionSystem:
    """1-3 generators whose rows have random supports and denominators.

    Each row has a denominator from 2, 3, 4, 7, 12 and a random support;
    about one row in five is a 0/1 row.  One entry strictly between 0 and 1
    is forced, so the system is never deterministic.
    """
    gens = []
    for _ in range(rng.randint(1, 3)):
        rows = []
        for _ in range(m):
            den = rng.choice((2, 3, 4, 7, 12))
            nums = [0] * m
            if rng.random() < 0.2:
                nums[rng.randrange(m)] = den
            else:
                support = rng.sample(range(m), rng.randint(1, m))
                for _ in range(den):
                    nums[rng.choice(support)] += 1
            rows.append([Fraction(a, den) for a in nums])
        gens.append(rows)
    if all(p in (0, 1) for rows in gens for row in rows for p in row):
        row = gens[0][rng.randrange(m)]
        hit = row.index(1)
        row[hit] = Fraction(1, 2)
        row[(hit + 1) % m] += Fraction(1, 2)
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(
        space, [StochasticMatrix.from_rows(rows) for rows in gens]
    )


def rand_spread_stochastic_system(rng: random.Random, m: int) -> ActionSystem:
    """1-3 generators on m >= 2 points whose every row has two or more
    positive entries, so no entry is 1.

    Each row has a denominator from 2, 3, 4, 7, 12, a random support of at
    least two points and at least one unit of it on each of them.
    """
    gens = []
    for _ in range(rng.randint(1, 3)):
        rows = []
        for _ in range(m):
            den = rng.choice((2, 3, 4, 7, 12))
            support = rng.sample(range(m), rng.randint(2, min(m, den)))
            nums = [0] * m
            for j in support:
                nums[j] = 1
            for _ in range(den - len(support)):
                nums[rng.choice(support)] += 1
            rows.append([Fraction(a, den) for a in nums])
        gens.append(rows)
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(
        space, [StochasticMatrix.from_rows(rows) for rows in gens]
    )


def rand_block_stochastic_system(rng: random.Random, m: int) -> ActionSystem:
    """1-3 generators that keep two classes of points closed.

    The points, m >= 3 of them, split into {0..k-1} and {k..m-1}, and every
    row has its support, random and nonempty, inside its own class, with a
    denominator from 2, 3, 4, 7, 12.  No row reaches the other class, so no
    word merges a point of one class with a point of the other.  As in
    ``rand_sparse_stochastic_system``, one entry strictly between 0 and 1
    is forced.
    """
    k = rng.randint(1, m - 1)
    gens = []
    for _ in range(rng.randint(1, 3)):
        rows = []
        for i in range(m):
            block = range(k) if i < k else range(k, m)
            den = rng.choice((2, 3, 4, 7, 12))
            nums = [0] * m
            support = rng.sample(block, rng.randint(1, len(block)))
            for _ in range(den):
                nums[rng.choice(support)] += 1
            rows.append([Fraction(a, den) for a in nums])
        gens.append(rows)
    if all(p in (0, 1) for rows in gens for row in rows for p in row):
        first = 0 if k >= 2 else k  # the first row of a class of two or more
        row = gens[0][first] = [Fraction(0)] * m
        row[first] = row[first + 1] = Fraction(1, 2)
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(
        space, [StochasticMatrix.from_rows(rows) for rows in gens]
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


def brute_force_transport(
    supply: Sequence[int],
    demand: Sequence[int],
    cost: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Least cost over every integer transport plan with these margins."""
    return min(
        sum(
            (
                Fraction(table[i][j]) * cost[i][j]
                for i in range(len(supply))
                for j in range(len(demand))
                if table[i][j]
            ),
            Fraction(0),
        )
        for table in _tables(list(supply), list(demand))
    )


def brute_force_w1(
    metric: Sequence[Sequence[Fraction]], mu: Measure, nu: Measure
) -> Fraction:
    denom = math.lcm(*(w.denominator for w in mu.weights + nu.weights))
    rows = [int(w * denom) for w in mu.weights]
    cols = [int(w * denom) for w in nu.weights]
    return brute_force_transport(rows, cols, metric) / denom


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


def _apply_bitwise(image: Sequence[int], mask: int) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << image[i]
        mask >>= 1
        i += 1
    return out


def loop_nibble_tables(masks: Sequence[int], m: int) -> list[tuple[list[int], list[int]]]:
    """``proximality._nibble_tables`` as a per-entry loop: entry n of the
    table of the points 4j..4j + 3 is entry n less its lowest set bit, ORed
    with the mask of the point of that bit (0 past the m points)."""
    tables = []
    for first in range(0, m + (-m) % 8, 4):
        table = [0] * 16
        for n in range(1, 16):
            low = n & -n
            point = first + low.bit_length() - 1
            table[n] = table[n ^ low] | (masks[point] if point < m else 0)
        tables.append(table)
    return list(zip(tables[::2], tables[1::2]))


def subset_bfs_oracle(
    sys: ActionSystem, max_closure: int
) -> tuple[str, Optional[tuple[int, ...]], int]:
    """Status, witness and reachable-subset count of the reset-word search.

    Breadth-first search over the images of the full point set as bitmasks,
    each generator applied bit by bit, generators in index order, so the
    first singleton found ends the length-minimal, lexicographically least
    reset word.  "YES" comes with that word; "NO" means all reachable
    subsets were seen; "BUDGET" means a new subset arrived with
    ``max_closure`` subsets already seen.  The count is the subsets seen.
    """
    gens = [g.image for g in sys.generators]
    m = len(sys.space)
    full = (1 << m) - 1
    if m == 1:
        return "YES", (), 1
    words = {full: ()}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        for gi, image in enumerate(gens):
            nxt = _apply_bitwise(image, mask)
            if nxt in words:
                continue
            if len(words) >= max_closure:
                return "BUDGET", None, len(words)
            words[nxt] = words[mask] + (gi,)
            queue.append(nxt)
            if bin(nxt).count("1") == 1:
                return "YES", words[nxt], len(words)
    return "NO", None, len(words)


def merge_word_oracle(
    sys: ActionSystem, x: int, y: int
) -> Optional[tuple[int, ...]]:
    """Shortest, then lexicographically least, word sending x and y together.

    Breadth-first over ordered pairs of points, words stored with each
    state.  The pair (x, y) and (y, x) merge by the same words, so ordered
    states find the same shortest word as unordered ones.
    """
    gens = [g.image for g in sys.generators]
    words = {(x, y): ()}
    queue = deque([(x, y)])
    while queue:
        a, b = queue.popleft()
        if a == b:
            return words[(a, b)]
        for gi, image in enumerate(gens):
            nxt = (image[a], image[b])
            if nxt not in words and (nxt[1], nxt[0]) not in words:
                words[nxt] = words[(a, b)] + (gi,)
                queue.append(nxt)
    return None


def greedy_reset_oracle(sys: ActionSystem) -> Verdict:
    """The greedy reset fallback: merge the two smallest image points, repeat.

    Each piece is ``merge_word_oracle``; the first pair without one gives
    the NO that names it.
    """
    gens = [g.image for g in sys.generators]
    m = len(sys.space)
    current = list(range(m))
    word: tuple[int, ...] = ()
    while len(set(current)) > 1:
        x, y = sorted(set(current))[:2]
        piece = merge_word_oracle(sys, x, y)
        if piece is None:
            return never_merges_no(sys, (x, y))
        word += piece
        current = [_word_images(gens, piece)[p] for p in current]
    return Verdict(
        Status.YES,
        word,
        f"greedy pair merging, constant to point {current[0]} "
        "(witness may be non-minimal)",
    )


def push_loop_lift(sys: ActionSystem, q: int) -> tuple[Transformation, ...]:
    """The lifted generators of a deterministic system, atom by atom.

    The grid's compositions are the vectors in 0..q summing to q, in
    ``product``'s lexicographic order; a generator g sends composition c to
    the one that adds c_x into g(x) for every point x.
    """
    m = len(sys.space)
    comps = [c for c in product(range(q + 1), repeat=m) if sum(c) == q]
    index = {c: k for k, c in enumerate(comps)}
    lifted = []
    for g in sys.generators:
        images = []
        for c in comps:
            pushed = [0] * m
            for target, a in zip(g.image, c):
                pushed[target] += a
            images.append(index[tuple(pushed)])
        lifted.append(Transformation(tuple(images)))
    return tuple(lifted)


def _supports(sys: ActionSystem) -> list[list[set[int]]]:
    """Per generator, the points each point can move to: its image, or the
    columns where its row is positive."""
    return [
        [{a} for a in g.image]
        if isinstance(g, Transformation)
        else [{a for a, p in enumerate(row) if p > 0} for row in g.rows]
        for g in sys.generators
    ]


def pair_closure_oracle(
    sys: ActionSystem, pair: tuple[int, int]
) -> Optional[int]:
    """Number of unordered pairs reachable from ``pair``, or None when a
    word merges it.

    The set of pairs, as two-point frozensets, grows by the images of all
    of its members under every generator until it stops growing; an image
    with one point is a merge.
    """
    supports = _supports(sys)
    reached = {frozenset(pair)}
    while True:
        images = {
            frozenset((c, d))
            for members in reached
            for x, y in [tuple(members)]
            for supp in supports
            for c in supp[x]
            for d in supp[y]
        }
        if any(len(img) == 1 for img in images):
            return None
        if images <= reached:
            return len(reached)
        reached |= images


def never_merges_no(
    sys: ActionSystem, pair: tuple[int, int], wrap: str = "{}"
) -> Verdict:
    """The NO naming ``pair``, whose closure ``pair_closure_oracle`` counts,
    in its certificate and its ``NeverMerges`` evidence; ``wrap`` places
    that certificate inside a longer one."""
    reached = pair_closure_oracle(sys, pair)
    assert reached is not None, f"pair {pair} merges"
    text = (
        f"pair {pair} never merges: the {reached} pairs reachable from it "
        "avoid the diagonal"
    )
    evidence = NeverMerges(pair, reached)
    return Verdict(Status.NO, None, wrap.format(text), evidence)


def measure_pair_oracle(
    sys: ActionSystem, mu: Measure, nu: Measure, b: Budget
) -> Verdict:
    """BFS over pairs of ``Measure`` images for a system with 0/1 maps.

    Each step pushes both measures of a pair through one letter with
    ``pushforward``; the first pair of equal images ends the word, read back
    along parent links.  ``max_closure`` bounds the stored pairs.
    """
    if mu == nu:
        return _yes((), "measures already equal")
    start = (mu, nu)
    parent: dict[tuple[Measure, Measure], tuple[tuple[Measure, Measure], int]] = {}
    seen = {start}
    queue: deque[tuple[Measure, Measure]] = deque([start])
    while queue:
        pair = queue.popleft()
        for gi in range(len(sys.generators)):
            a = pushforward(sys, (gi,), pair[0])
            bb = pushforward(sys, (gi,), pair[1])
            if a == bb:
                letters = [gi]
                node = pair
                while node != start:
                    node, g = parent[node]
                    letters.append(g)
                return _yes(
                    tuple(reversed(letters)),
                    "word pushes both measures to the same image",
                )
            nxt = (a, bb)
            if nxt in seen:
                continue
            if len(seen) >= b.max_closure:
                return _unknown(
                    f"orbit budget exhausted (max_closure={b.max_closure})"
                )
            seen.add(nxt)
            parent[nxt] = (pair, gi)
            queue.append(nxt)
    return Verdict(
        Status.NO,
        None,
        f"joint orbit exhausted ({len(seen)} image pairs), images never equal",
    )


def difference_closure_oracle(
    sys: ActionSystem, mu: Measure, nu: Measure
) -> Optional[int]:
    """Number of vectors mu w - nu w over all words w, the empty one
    included, or None when one of them is zero.

    The ``Fraction`` differences grow by their images under every map until
    the set stops growing; no common denominator is taken.
    """
    maps = [g.image for g in sys.generators]
    reached = {tuple(a - b for a, b in zip(mu.weights, nu.weights))}
    while True:
        images = set()
        for d in reached:
            for g in maps:
                img = [Fraction(0)] * len(d)
                for x, w in enumerate(d):
                    img[g[x]] += w
                images.add(tuple(img))
        if any(not any(img) for img in images | reached):
            return None
        if images <= reached:
            return len(reached)
        reached |= images


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


def support_pairs_oracle(sys: ActionSystem) -> set[tuple[int, int]]:
    """Pairs x < y whose rows share a column in some product S_w.

    Rows x and y of S_gw share a column when rows x and y of S_g share one,
    or when row x of S_g has a positive entry at a and row y one at b, with
    a != b and rows a and b of S_w sharing a column.  Sweeps over all pairs
    repeat until nothing changes, reading only the positive entries.
    """
    supports = [
        [{a for a, p in enumerate(row) if p > 0} for row in g.rows]
        for g in sys.generators
    ]
    m = len(sys.space)
    merged: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for x, y in combinations(range(m), 2):
            if (x, y) in merged:
                continue
            for supp in supports:
                if supp[x] & supp[y] or any(
                    (min(a, b), max(a, b)) in merged
                    for a in supp[x]
                    for b in supp[y]
                ):
                    merged.add((x, y))
                    changed = True
                    break
    return merged


# ---------------------------------------------------------------------------
# Linear algebra oracle: Gauss-Jordan elimination on Fraction rows, each
# pivot row scaled to 1, every step a Fraction operation.

def fraction_echelon(m: list[list[Fraction]]) -> list[int]:
    """Reduce ``m`` in place to reduced row echelon form; return the pivot
    columns."""
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def fraction_rank(rows: list[list[Fraction]]) -> int:
    return len(fraction_echelon([list(map(Fraction, r)) for r in rows]))


def fraction_solve_affine(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """``(particular, nullspace_basis)`` of ``A x = b``, read off the reduced
    rows, or ``None`` when a pivot lands in the rhs column."""
    n = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = fraction_echelon(aug)
    if n in pivots:
        return None
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    particular = [Fraction(0)] * n
    for c, i in pivot_of_col.items():
        particular[c] = aug[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivot_of_col):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for c, i in pivot_of_col.items():
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


# ---------------------------------------------------------------------------
# Invariant meta-measure oracle: exhaustive vertex enumeration of the
# invariance polytope, trying every zero pattern.

def solve_unique(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve ``A x = b`` when a unique solution is required; ``None`` otherwise."""
    sol = fraction_solve_affine(rows, rhs)
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
    sol = fraction_solve_affine(eq_rows, eq_rhs)
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


# ---------------------------------------------------------------------------
# Stochastic search oracle: the greedy word searches on exact Fraction
# matrix products, one StochasticMatrix.then per candidate.  Verdicts come
# with the same witnesses and certificate text as the library's searches.

def fraction_dobrushin(s: StochasticMatrix) -> Fraction:
    """Half the largest L1 gap between two rows, by ``Fraction`` sums."""
    m = len(s)
    best = Fraction(0)
    for i in range(m):
        for j in range(i + 1, m):
            gap = sum(
                (abs(a - b) for a, b in zip(s.rows[i], s.rows[j])), Fraction(0)
            )
            if gap > best:
                best = gap
    return best / 2


def fraction_word_matrix(sys: ActionSystem, word: tuple[int, ...]) -> StochasticMatrix:
    """S_w as the left fold of ``StochasticMatrix.then`` from the identity,
    transformations taken as their 0/1 matrices."""
    out = StochasticMatrix.from_transformation(
        Transformation.identity(len(sys.space))
    )
    for a in word:
        g = sys.generators[a]
        if isinstance(g, Transformation):
            g = StochasticMatrix.from_transformation(g)
        out = out.then(g)
    return out


def largest_entry(sys: ActionSystem) -> Fraction:
    return max(p for g in sys.generators for row in g.rows for p in row)


def products_within(sys: ActionSystem, top: Fraction, max_len: int) -> bool:
    """Does every product of 1..max_len generators keep each entry at most
    top?  Every word is multiplied out on its own."""
    letters = range(len(sys.generators))
    return all(
        p <= top
        for n in range(1, max_len + 1)
        for word in product(letters, repeat=n)
        for row in fraction_word_matrix(sys, word).rows
        for p in row
    )

def _yes(word: tuple[int, ...], certificate: str) -> Verdict:
    return Verdict(Status.YES, word, certificate)


def _unknown(certificate: str) -> Verdict:
    return Verdict(Status.UNKNOWN, None, certificate)


def fraction_pair_search(
    sys: ActionSystem, mu: Measure, nu: Measure, b: Budget, label: str
) -> Verdict:
    """Greedy tv descent for proximal_pair and measure_pair_proximal."""
    word: tuple[int, ...] = ()
    matrix = fraction_word_matrix(sys, ())
    cur_mu, cur_nu = mu, nu
    if tv_distance(cur_mu, cur_nu) < b.epsilon:
        return _yes((), f"tv already below epsilon for {label}")
    for _ in range(b.max_word_len):
        best = None
        for gi, g in enumerate(sys.generators):
            nxt = matrix.then(g)
            t_mu = pushforward(sys, (gi,), cur_mu)
            t_nu = pushforward(sys, (gi,), cur_nu)
            key = (tv_distance(t_mu, t_nu), fraction_dobrushin(nxt), gi)
            if best is None or key < best[0]:
                best = (key, gi, nxt, t_mu, t_nu)
        (tv, coeff, _), gi, matrix, cur_mu, cur_nu = best
        word = word + (gi,)
        if tv < b.epsilon:
            return _yes(word, f"tv = {tv} < epsilon = {b.epsilon} for {label}")
        if coeff < b.epsilon:
            return _yes(
                word,
                f"dobrushin product = {coeff} < epsilon bounds tv for {label}",
            )
    return _unknown(
        f"budget exhausted (max_word_len={b.max_word_len}); last tv = {tv}"
    )


def is_scrambling(sys: ActionSystem, word: tuple[int, ...]) -> bool:
    """Do every two rows of S_w share a positive column?  S_w is the exact
    ``Fraction`` product of the word's matrices."""
    rows = fraction_word_matrix(sys, word).rows
    return all(
        any(p > 0 and r > 0 for p, r in zip(rows[i], rows[j]))
        for i, j in combinations(range(len(rows)), 2)
    )


def _fraction_single_generator_obstruction(
    sys: ActionSystem, b: Budget
) -> Optional[Verdict]:
    s = sys.generators[0]
    m = len(s)
    rows = [
        [s.rows[i][j] - (1 if i == j else 0) for i in range(m)] for j in range(m)
    ]
    rows.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * m + [Fraction(1)]
    solved = fraction_solve_affine([list(map(Fraction, r)) for r in rows], rhs)
    if solved is None:
        return None
    pi, basis = solved
    if basis or any(p <= 0 for p in pi):
        return None
    power = s
    for k in range(1, b.max_word_len + 1):
        coeff = fraction_dobrushin(power)
        if coeff < 1:
            margin = 1 - max(pi)
            return Verdict(
                Status.NO,
                None,
                "unique stationary distribution "
                f"({', '.join(str(p) for p in pi)}) has full support and "
                f"dobrushin(S^{k}) = {coeff} < 1: every orbit converges to it, "
                f"staying tv >= {margin} away from every point mass in the limit",
            )
        power = power.then(s)
    return None


def _fraction_vertex_search(sys: ActionSystem, b: Budget) -> Verdict:
    word: tuple[int, ...] = ()
    matrix = fraction_word_matrix(sys, ())

    def score(mat: StochasticMatrix) -> Fraction:
        return max(min(col) for col in zip(*mat.rows))

    for _ in range(b.max_word_len):
        best = None
        for gi, g in enumerate(sys.generators):
            nxt = matrix.then(g)
            key = (-score(nxt), fraction_dobrushin(nxt), gi)
            if best is None or key < best[0]:
                best = (key, gi, nxt)
        _, gi, matrix = best
        word = word + (gi,)
        s = score(matrix)
        if 1 - s < b.epsilon:
            cols = list(zip(*matrix.rows))
            target = max(range(len(cols)), key=lambda j: min(cols[j]))
            return _yes(
                word,
                f"every row of S_w is within {1 - s} < epsilon of the "
                f"vertex row at point {target}",
            )
    return _unknown(
        f"budget exhausted (max_word_len={b.max_word_len}); "
        "no word crowds all rows near one vertex"
    )


def fraction_entry_bound(sys: ActionSystem, b: Budget) -> Optional[Verdict]:
    """NO when no generator entry exceeds 1 - epsilon."""
    top = largest_entry(sys)
    if top > 1 - b.epsilon:
        return None
    return Verdict(
        Status.NO,
        None,
        f"every generator entry is at most {top} <= 1 - epsilon, so every row "
        f"of every nonempty word stays tv >= {1 - top} from every vertex",
        EntryBound(top),
    )


def fraction_strongly_proximal(sys: ActionSystem, b: Budget) -> Verdict:
    """strongly_proximal on a stochastic system: obstruction, entry bound,
    then search."""
    if len(sys.generators) == 1:
        blocked = _fraction_single_generator_obstruction(sys, b)
        if blocked is not None:
            return blocked
    return fraction_entry_bound(sys, b) or _fraction_vertex_search(sys, b)


# ---------------------------------------------------------------------------
# Barycenter-law oracle: the psi checks on validated ``Fraction`` measures,
# with their own barycenter, pushforward and convolution loops.  Trials are
# drawn with the library's ``random_measure`` and the same RNG calls as
# ``psi_checks`` and ``psi_homomorphism_check``, so the reports, violations
# included, must be equal.

def fraction_barycenter(grid: GridSimplex, rho: Measure) -> Measure:
    """Sum over atoms c / q of rho(c / q) * c / q, one Fraction at a time."""
    out = [Fraction(0)] * len(grid.base)
    for weight, c in zip(rho.weights, grid.compositions):
        for j, a in enumerate(c):
            out[j] += weight * a
    return Measure(tuple(w / grid.resolution for w in out))


def _fraction_push(
    images: Sequence[Sequence[int]], word: tuple[int, ...], mu: Measure
) -> Measure:
    for letter in word:
        out = [Fraction(0)] * len(mu)
        for i, w in enumerate(mu.weights):
            out[images[letter][i]] += w
        mu = Measure(tuple(out))
    return mu


def _convolve_weights(table: SemigroupTable, mu: Sequence, nu: Sequence) -> list:
    """(mu * nu)(z) = sum over x.y = z of mu(x) nu(y), over every pair."""
    out = [0] * len(table)
    for x, y in product(range(len(table)), repeat=2):
        out[table(x, y)] += mu[x] * nu[y]
    return out


def fraction_psi_checks(
    sys: ActionSystem, q: int, trials: int, seed: int
) -> CheckReport:
    """Delta section, equivariance and point-mass pullback, as ``psi_checks``."""
    lifted = lift_system(sys, q)
    grid = lifted.grid
    n = len(grid)
    rng = random.Random(seed)
    violations: list[str] = []
    for i, c in enumerate(grid.compositions):
        got = fraction_barycenter(grid, Measure.point_mass(n, i))
        if tuple(w * q for w in got.weights) != c:
            violations.append(f"delta section fails at atom {i}")
    m = len(grid.base)
    vertex_atoms = {grid.vertex_index(x): x for x in range(m)}
    lifted_images = [g.image for g in lifted.generators]
    base_images = [g.image for g in sys.generators]
    for t in range(trials):
        rho = random_measure(rng, n)
        w = tuple(
            rng.randrange(len(base_images)) for _ in range(rng.randint(0, 6))
        )
        bc = fraction_barycenter(grid, rho)
        lhs = fraction_barycenter(grid, _fraction_push(lifted_images, w, rho))
        if lhs != _fraction_push(base_images, w, bc):
            violations.append(f"equivariance fails on trial {t}, word {w}")
        if bc.is_point_mass():
            x = bc.point_of_mass()
            if not (
                rho.is_point_mass()
                and rho.point_of_mass() == grid.vertex_index(x)
            ):
                violations.append(f"point-mass pullback fails on trial {t}")
        vi = rng.choice(list(vertex_atoms))
        other = rng.randrange(n)
        if other != vi:
            mix = Measure.point_mass(n, vi).mix(
                Measure.point_mass(n, other), Fraction(rng.randint(1, 5), 6)
            )
            if fraction_barycenter(grid, mix) == Measure.point_mass(
                m, vertex_atoms[vi]
            ):
                violations.append(
                    f"point-mass pullback fails on mixture trial {t}"
                )
    return CheckReport("psi_laws", trials, tuple(violations))


def fraction_psi_homomorphism(
    table: SemigroupTable, q: int, trials: int, seed: int
) -> CheckReport:
    """barycenter(rho1 conv rho2) = barycenter(rho1) * barycenter(rho2) on
    the q^2 grid, as ``psi_homomorphism_check``."""
    m = len(table)
    base = FiniteSpace.discrete(tuple(f"s{i}" for i in range(m)))
    grid = GridSimplex.build(base, q)
    fine = GridSimplex.build(base, q * q)
    n = len(grid)
    rng = random.Random(seed)
    violations: list[str] = []
    for t in range(trials):
        rho1 = random_measure(rng, n)
        rho2 = random_measure(rng, n)
        fine_weights = [Fraction(0)] * len(fine)
        for wa, a in zip(rho1.weights, grid.compositions):
            for wb, b in zip(rho2.weights, grid.compositions):
                atom = fine.index[tuple(_convolve_weights(table, a, b))]
                fine_weights[atom] += wa * wb
        lhs = fraction_barycenter(fine, Measure(tuple(fine_weights)))
        rhs = _convolve_weights(
            table,
            fraction_barycenter(grid, rho1).weights,
            fraction_barycenter(grid, rho2).weights,
        )
        if lhs != Measure.from_weights(rhs):
            violations.append(f"homomorphism law fails on trial {t}")
    return CheckReport("psi_homomorphism", trials, tuple(violations))


# ---------------------------------------------------------------------------
# Input-check oracles: the ``Fraction`` loops that validate a measure, a
# stochastic matrix and a metric, entry by entry in index order.  Each
# returns the first fault as (exception type, message), or None when the
# input is valid.

Fault = Optional[tuple[type, str]]


def fault_of(build, *args) -> Fault:
    """The fault that build(*args) raises, or None if it returns."""
    try:
        build(*args)
    except (ValidationError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def weight_vectors(draw, size: Optional[int] = None):
    """A probability vector of 1-6 (or ``size``) rationals, kept or given
    one fault: an entry set to any rational, mass moved between two
    entries (the sum stays, the range may break), or an entry that is not
    a ``Fraction``.  All-zero counts give the zero vector."""
    n = draw(st.integers(1, 6)) if size is None else size
    counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    weights = [Fraction(c, sum(counts) or 1) for c in counts]
    if not n:
        return ()
    edit = draw(st.sampled_from(["none", "none", "entry", "shift", "type"]))
    i = draw(st.integers(0, n - 1))
    value = draw(st.fractions(min_value=-1, max_value=2, max_denominator=12))
    if edit == "entry":
        weights[i] = value
    elif edit == "shift":
        weights[i] += value
        weights[(i + 1) % n] -= value
    elif edit == "type":
        weights[i] = draw(st.sampled_from([0, 1, 0.5, True]))
    return tuple(weights)


def measure_fault(weights: Sequence) -> Fault:
    if not weights:
        return ValidationError, "a measure needs at least one coordinate"
    total = Fraction(0)
    for w in weights:
        if not isinstance(w, Fraction):
            return ValidationError, "measure weights must be Fractions"
        if w < 0 or w > 1:
            return ValidationError, f"weight {w} outside [0,1]"
        total += w
    if total != 1:
        return ValidationError, f"weights sum to {total}, not 1"
    return None


def stochastic_fault(rows: Sequence[Sequence]) -> Fault:
    m = len(rows)
    if m == 0:
        return ValidationError, "empty stochastic matrix"
    for row in rows:
        if len(row) != m:
            exc = DimensionMismatch("stochastic matrix must be square", m)
            return DimensionMismatch, str(exc)
        fault = measure_fault(row)
        if fault is not None:
            return fault
    return None


def metric_fault(labels: Sequence[str], matrix: Sequence[Sequence]) -> Fault:
    m = len(labels)
    if m == 0:
        return ValidationError, "a space needs at least one point"
    if len(set(labels)) != m:
        return ValidationError, "point labels must be distinct"
    rows = []
    for row in matrix:
        out = []
        for x in row:
            if not isinstance(x, Fraction) and type(x) is not int:
                return (
                    ValidationError,
                    f"expected an exact rational, got {type(x).__name__}",
                )
            out.append(Fraction(x))
        rows.append(out)
    if len(rows) != m or any(len(row) != m for row in rows):
        exc = DimensionMismatch("metric matrix must be square of size", m)
        return DimensionMismatch, str(exc)
    for i in range(m):
        if rows[i][i] != 0:
            return ValidationError, f"metric diagonal must be zero at {i}"
        for j in range(i + 1, m):
            if rows[i][j] != rows[j][i]:
                return ValidationError, f"metric not symmetric at ({i},{j})"
            if rows[i][j] <= 0:
                return (
                    ValidationError,
                    f"distinct points {i},{j} need positive distance",
                )
    for i, j, k in product(range(m), repeat=3):
        if rows[i][j] + rows[j][k] < rows[i][k]:
            return ValidationError, f"triangle inequality fails on ({i},{j},{k})"
    return None
