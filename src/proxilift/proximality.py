"""Decision procedures for proximal and strongly proximal actions.

On a finite discrete space, convergence of a sequence t_n x is eventual
equality, so a pair of points is proximal exactly when some word merges it.
A finite deterministic system is strongly proximal exactly when some word
acts as a constant map, a reset word: applied to any measure it yields a
point mass, and conversely a sequence pushing every measure toward point
masses must eventually act constantly on a finite set.  A reset word exists
exactly when every pair merges (Cerny 1964).  One forward BFS over point
pairs (``_merge_path``) finds a pair's shortest merge word, and greedy
merging (Eppstein, SIAM J. Comput. 1990) chains such words into a reset
word (``_greedy_reset``), or stops at a pair that never merges.  Only a NO
builds the backward pair table (``_merge_table``), whose smallest
obstructed pair names it (``_obstruction``).  Subset BFS over bitmasks,
mapped a byte at a time through nibble tables, finds a length-minimal reset
word, and ``_strong_from_reset`` turns that verdict into the strong
proximality one.

On stochastic systems the merge table reads the supports of the rows: an
obstructed pair keeps two rows of every product disjoint, an exact NO for
both questions.  Beyond that the searches are semi-decisions under an
explicit budget: YES verdicts carry a replayable word plus a contraction
certificate, NO verdicts a checkable obstruction, everything else is
UNKNOWN.  The greedy searches keep each product exactly as integer rows over
one integer denominator; only the scores they compare become ``Fraction``s.
"""
from __future__ import annotations

import enum
import math
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Callable, Iterator, Optional

from .actions import (
    ActionSystem,
    Kind,
    StochasticMatrix,
    Transformation,
    Word,
    pushforward,
)
from .errors import UnsupportedKind, ValidationError
from .linalg import solve_affine
from .spaces import Measure, tv_distance


class Status(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure, always with evidence attached."""

    status: Status
    witness: Optional[Word] = None
    certificate: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status is Status.YES:
            if self.witness is None and self.certificate is None:
                raise ValidationError("YES verdict needs a witness or certificate")
        elif self.certificate is None:
            raise ValidationError(f"{self.status.value} verdict needs a certificate")


def yes(witness: Optional[Word] = None, certificate: Optional[str] = None) -> Verdict:
    return Verdict(Status.YES, witness, certificate)


def no(certificate: str) -> Verdict:
    return Verdict(Status.NO, None, certificate)


def unknown(certificate: str) -> Verdict:
    return Verdict(Status.UNKNOWN, None, certificate)


@dataclass(frozen=True)
class Budget:
    """Search limits; epsilon is the stochastic closeness threshold."""

    max_word_len: int = 64
    max_closure: int = 100_000
    epsilon: Fraction = Fraction(1, 1000)

    def __post_init__(self) -> None:
        if self.max_word_len < 1 or self.max_closure < 1:
            raise ValidationError("budget limits must be positive")
        if not 0 < self.epsilon < 1:
            raise ValidationError("epsilon must lie strictly between 0 and 1")


def _deterministic_view(sys: ActionSystem) -> Optional[ActionSystem]:
    """The system as a deterministic one: itself, or a copy with its 0/1
    stochastic matrices unwrapped; None if some matrix is not 0/1."""
    if sys.kind is Kind.DETERMINISTIC:
        return sys
    if not all(g.is_deterministic() for g in sys.generators):
        return None
    gens = tuple(g.to_transformation() for g in sys.generators)
    return ActionSystem(sys.space, Kind.DETERMINISTIC, gens)


def _merge_path(sys: ActionSystem, x: int, y: int) -> Optional[Word]:
    """Shortest, then lexicographically least, word merging x and y.

    Breadth-first search forward over unordered point pairs, generators in
    index order, so pairs leave the queue in the order of their least
    words; it stops at the first pair that some letter merges.  None when
    the closed set of pairs reachable from (x, y) never meets the diagonal.
    ``sys`` is deterministic.
    """
    if x == y:
        return ()
    m = len(sys.space)
    images = [g.image for g in sys.generators]
    start = x * m + y if x < y else y * m + x
    parent = {start: (start, -1)}
    queue = [start]
    for pid in queue:
        a, b = divmod(pid, m)
        for letter, image in enumerate(images):
            c, d = image[a], image[b]
            if c == d:
                word = [letter]
                while pid != start:
                    pid, letter = parent[pid]
                    word.append(letter)
                return tuple(reversed(word))
            pair = c * m + d if c < d else d * m + c
            if pair not in parent:
                parent[pair] = (pid, letter)
                queue.append(pair)
    return None


def _greedy_reset(sys: ActionSystem) -> Optional[Word]:
    """A reset word of the deterministic ``sys`` by greedy merging, or None.

    Merge the two smallest image points with ``_merge_path``'s word, apply
    it, repeat: at most m - 1 pieces.  None at the first pair that never
    merges, and then no reset word exists.
    """
    images = [g.image for g in sys.generators]
    current = set(range(len(sys.space)))
    word: list[int] = []
    while len(current) > 1:
        x, y = sorted(current)[:2]
        piece = _merge_path(sys, x, y)
        if piece is None:
            return None
        word += piece
        maps = [images[a] for a in piece]
        moved = set()
        for p in current:
            for image in maps:
                p = image[p]
            moved.add(p)
        current = moved
    return tuple(word)


def _merge_table(sys: ActionSystem) -> bytearray:
    """The point pairs that some word merges, for a NO and its certificate.

    Pair (i, j), i < j, has id i*m + j; its entry is 1 if some word merges
    i and j, else 0.  The search runs backward from the diagonal over
    preimages: g sends the pairs of g^-1(a) x g^-1(b) onto {a, b}.  For a
    stochastic matrix, g^-1(a) is the rows positive in column a, so a pair
    merges when its two rows in some S_w share a column.  Deterministic
    systems build it only once a NO is known, to name the obstruction;
    stochastic ones read it before their searches.
    """
    m, gens = len(sys.space), sys.generators
    preimages = []
    for g in gens:
        pre: list[list[int]] = [[] for _ in range(m)]
        if isinstance(g, Transformation):
            for x, a in enumerate(g.image):
                pre[a].append(x)
        else:
            for x, row in enumerate(g.rows):
                for a, p in enumerate(row):
                    if p:
                        pre[a].append(x)
        preimages.append(pre)
    table = bytearray(m * m)
    stack = array("q", (a * m + a for a in range(m)))
    while stack:
        a, b = divmod(stack.pop(), m)
        for pre in preimages:
            for x in pre[a]:
                for y in pre[b]:
                    pair = x * m + y if x < y else y * m + x
                    if x != y and not table[pair]:
                        table[pair] = 1
                        stack.append(pair)
    return table


def _obstruction(
    table: bytearray, m: int, pair: Optional[tuple[int, int]] = None
) -> Optional[Verdict]:
    """NO naming ``pair`` (i < j) if it is obstructed, or without ``pair``
    the smallest obstructed pair; None if there is none to name.

    The obstructed pairs are closed under the generators and never reach the
    diagonal: no word merges them, so no word is constant, and their two
    rows in every stochastic S_w have disjoint supports.
    """
    total = m * (m - 1) // 2
    # Zero entries: the m diagonal ids, the ids below it, and the obstructed.
    obstructed = table.count(0) - m - total
    if pair is None and obstructed:
        # Ids grow with (i, j): the first zero above the diagonal is least.
        pair = next(
            (i, i + 1 + row.index(0))
            for i in range(m)
            if 0 in (row := table[i * m + i + 1 : (i + 1) * m])
        )
    if pair is None or table[pair[0] * m + pair[1]]:
        return None
    return no(
        f"pair {pair} cannot reach the diagonal "
        f"({obstructed} of {total} pairs obstructed)"
    )


IntRows = list[list[int]]


def _integer_rows(s: StochasticMatrix) -> tuple[IntRows, int]:
    """Rows of s as integers over their least common denominator."""
    den = math.lcm(*(p.denominator for row in s.rows for p in row))
    rows = [[p.numerator * (den // p.denominator) for p in row] for row in s.rows]
    return rows, den


def _dobrushin(rows: IntRows, den: int) -> Fraction:
    """Dobrushin coefficient of the matrix with these rows over den."""
    gap = max(
        (sum(map(abs, map(sub, r, t))) for r, t in combinations(rows, 2)),
        default=0,
    )
    return Fraction(gap, 2 * den)


def _by_dobrushin(rows: IntRows, den: int) -> tuple[Fraction]:
    return (_dobrushin(rows, den),)


def _greedy_products(
    sys: ActionSystem, b: Budget, key: Callable[[IntRows, int], tuple]
) -> Iterator[tuple[Word, tuple, IntRows]]:
    """Greedy word search on a stochastic system, one letter per step.

    The product S_w is kept exactly, as integer rows over one integer
    denominator.  Each step appends the generator g whose product S_wg
    minimizes ``key(rows, den) + (g,)`` and yields the word, that key and
    the rows, for at most ``b.max_word_len`` steps.  The values are exact,
    so keys and ties are those of the same products in ``Fraction`` form.
    """
    steps = []
    for g in sys.generators:
        assert isinstance(g, StochasticMatrix)
        g_rows, g_den = _integer_rows(g)
        steps.append((list(zip(*g_rows)), g_den))
    m = len(sys.space)
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    den = 1
    word: Word = ()
    for _ in range(b.max_word_len):
        best = None
        for gi, (cols, g_den) in enumerate(steps):
            nxt = [[sum(map(mul, row, col)) for col in cols] for row in rows]
            nxt_den = den * g_den
            k = key(nxt, nxt_den) + (gi,)
            if best is None or k < best[0]:
                best = (k, nxt, nxt_den)
        assert best is not None
        k, rows, den = best
        word += (k[-1],)
        yield word, k, rows


def proximal_pair(sys: ActionSystem, x: int, y: int, b: Budget) -> Verdict:
    """Does some word send x and y to a common point (or epsilon-close masses)?

    Deterministic systems get ``_merge_path``'s word.  NO when the merge
    table never merges the pair.  Otherwise stochastic systems search
    greedily for a word driving tv(delta_x S_w, delta_y S_w) below epsilon,
    with the Dobrushin product as an alternative certificate.
    """
    m = len(sys.space)
    if not (0 <= x < m and 0 <= y < m):
        raise ValidationError(f"point indices must lie in 0..{m - 1}")
    det = _deterministic_view(sys)
    word = _merge_path(det, x, y) if det is not None else None
    if word is not None:
        return yes(word, f"word merges {x} and {y} exactly")
    # x == y merges by the empty word, which reads no table
    if x != y:
        blocked = _obstruction(_merge_table(sys), m, (min(x, y), max(x, y)))
        if blocked is not None:
            return blocked
    return _stochastic_pair_search(
        sys,
        Measure.point_mass(m, x),
        Measure.point_mass(m, y),
        b,
        f"({x},{y})",
    )


def _stochastic_pair_search(
    sys: ActionSystem, mu: Measure, nu: Measure, b: Budget, label: str
) -> Verdict:
    """Greedy descent over words on tv(mu S_w, nu S_w), Dobrushin as tiebreak.

    tv(mu S_w, nu S_w) is half the L1 norm of (mu - nu) S_w, so the search
    pushes one integer row vector, mu - nu over the common denominator of
    their weights, through each candidate product.
    """
    if tv_distance(mu, nu) < b.epsilon:
        return yes((), f"tv already below epsilon for {label}")
    scale = math.lcm(*(w.denominator for w in mu.weights + nu.weights))
    diff = [int((p - r) * scale) for p, r in zip(mu.weights, nu.weights)]

    def key(rows: IntRows, den: int) -> tuple[Fraction, Fraction]:
        gap = sum(abs(sum(map(mul, diff, col))) for col in zip(*rows))
        return Fraction(gap, 2 * scale * den), _dobrushin(rows, den)

    for word, (tv, coeff, _), _ in _greedy_products(sys, b, key):
        if tv < b.epsilon:
            return yes(word, f"tv = {tv} < epsilon = {b.epsilon} for {label}")
        if coeff < b.epsilon:
            return yes(
                word,
                f"dobrushin product = {coeff} < epsilon bounds tv for {label}",
            )
    return unknown(
        f"budget exhausted (max_word_len={b.max_word_len}); last tv = {tv}"
    )


def is_proximal(sys: ActionSystem, b: Budget) -> Verdict:
    """Is every pair of points proximal?

    Deterministic systems are YES when greedy merging finds a constant
    word, since every pair then merges.  NO when the merge table has an
    obstructed pair; a deterministic system builds the table only then.
    Stochastic systems are YES once some word has Dobrushin coefficient
    strictly below 1 (its powers contract every pair), else UNKNOWN.
    """
    m = len(sys.space)
    det = _deterministic_view(sys)
    if det is not None and _greedy_reset(det) is not None:
        if m == 1:
            return yes(certificate="single point, trivially proximal")
        return yes(
            certificate=f"all {m * (m - 1) // 2} point pairs reach the diagonal"
        )
    blocked = _obstruction(_merge_table(sys), m)
    if blocked is not None:
        return blocked
    for word, (coeff, _), _ in _greedy_products(sys, b, _by_dobrushin):
        if coeff < 1:
            return yes(
                word,
                f"dobrushin(S_w) = {coeff} < 1, so powers of the word "
                "contract every pair of measures",
            )
    return unknown(
        f"budget exhausted (max_word_len={b.max_word_len}); "
        "no word with contraction coefficient below 1 found"
    )


def _nibble_tables(image: tuple[int, ...], m: int) -> list[list[int]]:
    """Images of subsets under a map, two 16-entry tables per mask byte.

    Tables 2k and 2k + 1 serve the low and the high nibble of byte k: entry
    n of table j is the mask of the images of the points 4j + i for the set
    bits i of n.
    """
    tables = []
    for first in range(0, m + (-m) % 8, 4):
        table = [0] * 16
        for n in range(1, 16):
            low = n & -n
            point = first + low.bit_length() - 1
            table[n] = table[n ^ low] | (1 << image[point] if point < m else 0)
        tables.append(table)
    return tables


def reset_word(sys: ActionSystem, b: Budget) -> Verdict:
    """Length-minimal word acting as a constant map, by subset BFS.

    States are images of the full point set, as bitmasks; each generator
    maps a mask byte by byte through two 16-entry tables, one per nibble.
    The first singleton found ends the length-minimal, lexicographically
    least reset word.  Greedy merging runs first: when it finds no constant
    word, the NO is ``is_proximal``'s obstruction and the subset BFS never
    runs; when the closure budget stops the BFS, the greedy word is the
    valid, possibly non-minimal, answer.  ``strongly_proximal`` on a
    deterministic system is this verdict passed through
    ``_strong_from_reset``.
    """
    det = _deterministic_view(sys)
    if det is None:
        raise UnsupportedKind("reset_word is defined for deterministic systems")
    m = len(sys.space)
    if m == 1:
        return yes((), "single point, identity already constant")
    greedy = _greedy_reset(det)
    if greedy is None:
        blocked = _obstruction(_merge_table(det), m)
        assert blocked is not None, "a pair that never merges is obstructed"
        return blocked
    tables = [_nibble_tables(g.image, m) for g in det.generators]
    width = (m + 7) // 8
    full = (1 << m) - 1
    parent: dict[int, tuple[int, int]] = {}
    seen = {full}
    queue: deque[int] = deque([full])
    while queue:
        mask = queue.popleft()
        data = mask.to_bytes(width, "little")
        for gi, table in enumerate(tables):
            nxt = 0
            i = 0
            for byte in data:
                nxt |= table[i][byte & 15] | table[i + 1][byte >> 4]
                i += 2
            if nxt in seen:
                continue
            if len(seen) >= b.max_closure:
                queue.clear()
                break
            seen.add(nxt)
            parent[nxt] = (mask, gi)
            queue.append(nxt)
            if nxt & (nxt - 1) == 0:
                letters = []
                node = nxt
                while node != full:
                    node, g = parent[node]
                    letters.append(g)
                return yes(
                    tuple(reversed(letters)),
                    f"word is constant to point {nxt.bit_length() - 1}",
                )
    return yes(
        greedy,
        "greedy pair merging, constant to point "
        f"{det.word_transformation(greedy)(0)} (witness may be non-minimal)",
    )


def strongly_proximal(sys: ActionSystem, b: Budget) -> Verdict:
    """Can every measure be pushed to (epsilon-close to) a point mass?

    Deterministic systems reduce exactly to reset_word: a constant word
    collapses every measure to a point mass, and on a finite space no weaker
    behaviour achieves convergence to point masses for all measures.
    Stochastic systems: NO when the merge table has an obstructed pair (no
    vertex is near both of its disjoint rows); NO for a single generator
    with a unique full-support stationary distribution plus strict
    contraction (all orbits then converge to an interior point); YES when
    some word takes every row within epsilon of one vertex; else UNKNOWN.
    """
    det = _deterministic_view(sys)
    if det is not None:
        return _strong_from_reset(reset_word(det, b))
    blocked = _obstruction(_merge_table(sys), len(sys.space))
    if blocked is not None:
        return no(f"no word crowds all rows near one vertex ({blocked.certificate})")
    if len(sys.generators) == 1:
        blocked = _single_generator_obstruction(sys, b)
        if blocked is not None:
            return blocked
    return _stochastic_vertex_search(sys, b)


def _strong_from_reset(v: Verdict) -> Verdict:
    """The strong proximality verdict that a reset_word verdict decides."""
    if v.status is Status.YES:
        return yes(v.witness, "reset word collapses every measure to a point mass")
    return no(f"no constant word exists ({v.certificate})")


def _single_generator_obstruction(sys: ActionSystem, b: Budget) -> Optional[Verdict]:
    """NO when orbits provably converge to one interior distribution."""
    s = sys.generators[0]
    assert isinstance(s, StochasticMatrix)
    m = len(s)
    rows = [
        [s.rows[i][j] - (1 if i == j else 0) for i in range(m)] for j in range(m)
    ]
    rows.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * m + [Fraction(1)]
    solved = solve_affine([list(map(Fraction, r)) for r in rows], rhs)
    if solved is None:
        return None
    pi, basis = solved
    if basis or any(p <= 0 for p in pi):
        return None
    # With one generator the greedy words are the powers S^k.
    for word, (coeff, _), _ in _greedy_products(sys, b, _by_dobrushin):
        if coeff < 1:
            margin = 1 - max(pi)
            return no(
                "unique stationary distribution "
                f"({', '.join(str(p) for p in pi)}) has full support and "
                f"dobrushin(S^{len(word)}) = {coeff} < 1: every orbit converges to it, "
                f"staying tv >= {margin} away from every point mass in the limit"
            )
    return None


def _stochastic_vertex_search(sys: ActionSystem, b: Budget) -> Verdict:
    """Greedy search for a word whose rows all crowd one vertex column.

    The score of S_w is the largest over columns of the smallest entry;
    tv(row, delta_x) = 1 - row[x], so all rows lie within epsilon of delta_x
    exactly when the score exceeds 1 - epsilon.  Candidates are ranked by
    the score, then by the Dobrushin coefficient.
    """

    def key(rows: IntRows, den: int) -> tuple[Fraction, Fraction]:
        return -Fraction(max(map(min, zip(*rows))), den), _dobrushin(rows, den)

    for word, (neg_score, _, _), rows in _greedy_products(sys, b, key):
        if 1 + neg_score < b.epsilon:
            cols = list(zip(*rows))
            target = max(range(len(cols)), key=lambda j: min(cols[j]))
            return yes(
                word,
                f"every row of S_w is within {1 + neg_score} < epsilon of the "
                f"vertex row at point {target}",
            )
    return unknown(
        f"budget exhausted (max_word_len={b.max_word_len}); "
        "no word crowds all rows near one vertex"
    )


def measure_pair_proximal(
    sys: ActionSystem, mu: Measure, nu: Measure, b: Budget
) -> Verdict:
    """Does some word push mu and nu to equal (or epsilon-close) images?

    Deterministic: the joint orbit of (mu, nu) is finite, so BFS decides
    exactly within the closure budget.  Stochastic: greedy tv descent.
    """
    m = len(sys.space)
    if len(mu) != m or len(nu) != m:
        raise ValidationError("measures must match the space size")
    det = _deterministic_view(sys)
    if det is None:
        return _stochastic_pair_search(sys, mu, nu, b, "(mu,nu)")
    if mu == nu:
        return yes((), "measures already equal")
    start = (mu, nu)
    parent: dict[tuple[Measure, Measure], tuple[tuple[Measure, Measure], int]] = {}
    seen = {start}
    queue: deque[tuple[Measure, Measure]] = deque([start])
    while queue:
        pair = queue.popleft()
        for gi in range(len(det.generators)):
            a = pushforward(det, (gi,), pair[0])
            bb = pushforward(det, (gi,), pair[1])
            if a == bb:
                letters = [gi]
                node = pair
                while node != start:
                    node, g = parent[node]
                    letters.append(g)
                return yes(
                    tuple(reversed(letters)),
                    "word pushes both measures to the same image",
                )
            nxt = (a, bb)
            if nxt in seen:
                continue
            if len(seen) >= b.max_closure:
                return unknown(
                    f"orbit budget exhausted (max_closure={b.max_closure})"
                )
            seen.add(nxt)
            parent[nxt] = (pair, gi)
            queue.append(nxt)
    return no(
        f"joint orbit exhausted ({len(seen)} image pairs), images never equal"
    )
