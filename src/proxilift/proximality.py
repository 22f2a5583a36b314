"""Decision procedures for proximal and strongly proximal actions.

On a finite discrete space, convergence of a sequence t_n x is eventual
equality, so a pair of points is proximal exactly when some word merges it.
A finite deterministic system is strongly proximal exactly when some word
acts as a constant map, a reset word: applied to any measure it yields a
point mass, and conversely a sequence pushing every measure toward point
masses must eventually act constantly on a finite set.  A reset word exists
exactly when every pair merges (Cerny 1964).  Every pair question is one
forward BFS over point pairs, on the maps of a deterministic system
(``_merge_images``) or the supports of stochastic rows (``_merge_path``):
it finds a merge word, or a set of pairs closed under the generators that
avoids the diagonal, the certificate of a NO.  Greedy merging (Eppstein,
SIAM J. Comput. 1990) chains merge words into a reset word or stops at a
pair that never merges.  Once its pair searches have stored m(m - 1)/2
pairs in all, it builds one table of every pair's shortest merge length
(``_pair_distances``, one backward BFS over pairs) and reads the rest from
it: a reset word exists exactly when the table holds every pair, and the
later merge words are walks down the table.  The synchronization test stops
there; greedy's word is built for a NO, up to the pair where it stops, or by
one more greedy run when ``max_closure`` runs out.
A bidirectional subset search (Kisielewicz, Kowalski and Szykula, J. Comb.
Optim. 2015) then finds the length-minimal reset word: images of the full
set forward, preimages of the singletons backward, as bitmasks mapped a
byte at a time through nibble tables.  A pair of measures is pushed as one
integer vector, their difference, until some word sends it to zero.

On stochastic systems the pair search reads the supports of the rows.
Greedy row merging either builds a scrambling word, whose Dobrushin
coefficient is below 1 (Paz 1971), or stops at a pair that never merges,
an exact NO for both questions.  Strong proximality of a stochastic system
is the value-1 problem of a probabilistic automaton, undecidable in general
(Gimbert and Oualhadj, ICALP 2010).  It has two exact NOs: a single
generator whose orbits converge to an interior stationary law, and
generators with no entry above 1 - epsilon, since the entries of a product
never exceed the largest entry of its last letter.  Beyond those the
searches are semi-decisions under an explicit budget: YES verdicts carry a
replayable word plus a contraction certificate, everything else is
UNKNOWN.  The greedy searches keep each product exactly as integer rows
over one integer denominator; only the scores they compare become
``Fraction``s.
``decide`` alone chooses between the reset path and row merging; its one
synchronization test answers ``is_proximal`` and starts ``strongly_proximal``.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Iterator, NamedTuple, Optional

from .actions import (
    ActionSystem,
    IntRows,
    Kind,
    StochasticMatrix,
    Word,
    _dobrushin,
    _push,
    _word_rows,
)
from .errors import UnsupportedKind, ValidationError
from .frozen import _Frozen
from .linalg import _as_fraction, _as_int, _check_indices, solve_affine
from .spaces import Measure, _difference, tv_distance


class Status(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


# The evidence records are NamedTuples: immutable and compared and hashed
# by value, like the ``_Frozen`` value types, but with nothing to validate
# they need no ``__init__`` of their own.
class NeverMerges(NamedTuple):
    """A pair of points that no word merges: the ``reached`` unordered pairs
    reachable from it form a set closed under the generators that avoids
    the diagonal (Cerny 1964)."""

    pair: tuple[int, int]
    reached: int


class EntryBound(NamedTuple):
    """No generator entry exceeds ``top``, which is at most 1 - epsilon."""

    top: Fraction


class Verdict(_Frozen):
    """Outcome of a decision procedure, with a witness or certificate.

    ``certificate`` explains the verdict to people.  A NO that rests on a
    pair that never merges, or on the largest generator entry, also holds
    it as data in ``evidence``, and replays read that, never the text.
    """

    _fields = ("status", "witness", "certificate", "evidence")
    status: Status
    witness: Optional[Word]
    certificate: Optional[str]
    evidence: Optional[NeverMerges | EntryBound]

    def __init__(
        self,
        status: Status,
        witness: Optional[Word] = None,
        certificate: Optional[str] = None,
        evidence: Optional[NeverMerges | EntryBound] = None,
    ) -> None:
        if status is Status.YES:
            if witness is None and certificate is None:
                raise ValidationError("YES verdict needs a witness or certificate")
        elif certificate is None:
            raise ValidationError(f"{status.value} verdict needs a certificate")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "evidence", evidence)


def yes(witness: Optional[Word] = None, certificate: Optional[str] = None) -> Verdict:
    return Verdict(Status.YES, witness, certificate)


def no(
    certificate: str, evidence: Optional[NeverMerges | EntryBound] = None
) -> Verdict:
    return Verdict(Status.NO, None, certificate, evidence)


def unknown(certificate: str) -> Verdict:
    return Verdict(Status.UNKNOWN, None, certificate)


class Budget(_Frozen):
    """Search limits.

    ``max_word_len`` bounds the words of the greedy stochastic searches.
    ``max_closure`` bounds the sets that ``reset_word`` stores and the
    differences that ``measure_pair_proximal`` stores; when either runs
    out, greedy merging runs once more, to the end of its word, and its
    constant word stands if there is one (for a measure pair, if
    ``max_closure`` also holds every point pair).  Greedy merging's pair
    searches and its pair table are not counted.  epsilon is the stochastic
    closeness threshold.
    """

    _fields = ("max_word_len", "max_closure", "epsilon")
    max_word_len: int
    max_closure: int
    epsilon: Fraction

    def __init__(
        self,
        max_word_len: int = 64,
        max_closure: int = 100_000,
        epsilon: Fraction = Fraction(1, 1000),
    ) -> None:
        if (
            _as_int(max_word_len, "max_word_len") < 1
            or _as_int(max_closure, "max_closure") < 1
        ):
            raise ValidationError("budget limits must be positive")
        if not 0 < _as_fraction(epsilon) < 1:
            raise ValidationError("epsilon must lie strictly between 0 and 1")
        object.__setattr__(self, "max_word_len", max_word_len)
        object.__setattr__(self, "max_closure", max_closure)
        object.__setattr__(self, "epsilon", epsilon)


def _deterministic_view(sys: ActionSystem) -> Optional[ActionSystem]:
    """The system as a deterministic one: itself, or a copy with its 0/1
    stochastic matrices unwrapped; None if some matrix is not 0/1."""
    if sys.kind is Kind.DETERMINISTIC:
        return sys
    if not all(g.is_deterministic() for g in sys.generators):
        return None
    gens = tuple(g.to_transformation() for g in sys.generators)
    return ActionSystem(sys.space, Kind.DETERMINISTIC, gens)


def _successors(sys: ActionSystem) -> list[tuple[tuple[int, ...], ...]]:
    """Per letter of a stochastic system, the successors of each point: the
    support of its row, the nonzero entries of its cleared integer row.
    Deterministic systems search on their images (``_merge_images``)."""
    return [
        tuple(tuple(j for j, p in enumerate(row) if p) for row in g.cleared[0])
        for g in sys.generators
    ]


def _word_to(links: list[tuple[int, int]], gid: int, letter: int) -> Word:
    """The word of node gid, a group of pairs or one measure difference,
    followed by the letter, read back along the nodes' parent links."""
    word = [letter]
    while gid:
        gid, letter = links[gid]
        word.append(letter)
    return tuple(reversed(word))


def _merge_path(
    succ: list, m: int, starts: list[tuple[int, int]]
) -> tuple[Optional[Word], int]:
    """Shortest, then lexicographically least, word merging a start pair.

    Breadth-first search forward over unordered pairs of distinct points: a
    letter sends (a, b) to each (c, d) with c a successor of a and d one of
    b, and merges it when some c is d.  A level lists groups in the order of
    their words, each holding the new pairs one word reaches, and a letter
    runs over a whole group before the next, so the first merge ends the
    least word.  Returns it, or None when the pairs reachable from the
    starts avoid the diagonal, with the number of pairs reached.  This is
    the stochastic search, on the supports of the rows (``_successors``);
    ``_merge_images`` is the same search on the maps of a deterministic
    system.
    """
    seen: dict[int, None] = {}
    for x, y in starts:
        seen[x * m + y if x < y else y * m + x] = None
    links = [(0, -1)]  # per group: its parent group and the last letter
    level = [(0, list(seen))]
    while level:
        nxt = []
        for gid, group in level:
            ends = [divmod(pid, m) for pid in group]
            for letter, step in enumerate(succ):
                new = []
                for a, b in ends:
                    for c in step[a]:
                        for d in step[b]:
                            if c == d:
                                return _word_to(links, gid, letter), len(seen)
                            pair = c * m + d if c < d else d * m + c
                            if pair not in seen:
                                seen[pair] = None
                                new.append(pair)
                if new:
                    links.append((gid, letter))
                    nxt.append((len(links) - 1, new))
        level = nxt
    return None, len(seen)


def _merge_images(
    maps: list[tuple[int, ...]], m: int, pair: tuple[int, int]
) -> tuple[Optional[Word], int]:
    """``_merge_path`` from one pair x < y of a deterministic system, whose
    letters are the image tuples ``maps``: a letter sends (a, b) to the one
    pair (g[a], g[b]).  The same groups in the same order, so the same word
    and the same number of pairs reached."""
    x, y = pair
    seen: dict[int, None] = {x * m + y: None}
    links = [(0, -1)]  # per group: its parent group and the last letter
    level = [(0, list(seen))]
    while level:
        nxt = []
        for gid, group in level:
            ends = [divmod(pid, m) for pid in group]
            for letter, g in enumerate(maps):
                new = []
                for a, b in ends:
                    c = g[a]
                    d = g[b]
                    if c == d:
                        return _word_to(links, gid, letter), len(seen)
                    pid = c * m + d if c < d else d * m + c
                    if pid not in seen:
                        seen[pid] = None
                        new.append(pid)
                if new:
                    links.append((gid, letter))
                    nxt.append((len(links) - 1, new))
        level = nxt
    return None, len(seen)


def _pair_distances(maps: list[tuple[int, ...]], m: int) -> dict[int, int]:
    """Every pair's shortest merge length, from one backward BFS over pairs.

    Keys are the ids x * m + y, x < y, of the pairs some word merges.
    Depth 1 holds the pairs that one letter merges, and depth d + 1 the
    unseen pairs that some letter sends to a pair of depth d (Eppstein,
    SIAM J. Comput. 1990).  A reset word exists exactly when the table holds
    all m(m - 1)/2 pairs.  Each pair is the preimage of one pair per letter,
    so the search costs O(k m^2) for k letters.
    """
    fibres = []  # per letter, the preimage of each point
    for g in maps:
        pre: list[list[int]] = [[] for _ in range(m)]
        for a, c in enumerate(g):
            pre[c].append(a)
        fibres.append(pre)
    dist: dict[int, int] = {}
    level = []
    for pre in fibres:
        for points in pre:
            for a, b in combinations(points, 2):
                if a * m + b not in dist:
                    dist[a * m + b] = 1
                    level.append((a, b))
    depth = 1
    while level:
        depth += 1
        nxt = []
        for c, d in level:
            for pre in fibres:
                for a in pre[c]:
                    for b in pre[d]:
                        pid = a * m + b if a < b else b * m + a
                        if pid not in dist:
                            dist[pid] = depth
                            nxt.append((a, b))
        level = nxt
    return dist


def _table_word(
    maps: list[tuple[int, ...]], m: int, dist: dict[int, int], pair: tuple[int, int]
) -> Word:
    """``_merge_images``'s word for a pair x < y that the ``_pair_distances``
    table holds: at each step the least letter that lowers the distance by
    one, which spells the shortest, then lexicographically least, word."""
    x, y = pair
    left = dist[x * m + y]
    word = []
    while left:
        left -= 1
        for letter, g in enumerate(maps):
            x2 = g[x]
            y2 = g[y]
            # A pair at distance 2 or more merges under no single letter.
            if x2 == y2 or dist.get(x2 * m + y2 if x2 < y2 else y2 * m + x2) == left:
                break
        word.append(letter)
        x, y = x2, y2
    return tuple(word)


def _never_merges(pair: tuple[int, int], reached: int) -> Verdict:
    """The NO naming a pair whose ``reached`` successor pairs avoid the
    diagonal, in its text and as ``NeverMerges`` evidence."""
    return no(
        f"pair {pair} never merges: the {reached} pairs reachable from it "
        "avoid the diagonal",
        NeverMerges(pair, reached),
    )


def _image(points: set[int], succ: list, word: Word) -> set[int]:
    """The successors of a set of points under a word."""
    for letter in word:
        step = succ[letter]
        points = {c for a in points for c in step[a]}
    return points


def _greedy_merge(
    maps: list[tuple[int, ...]], m: int, whole: bool
) -> Optional[Verdict]:
    """Greedy merging of a deterministic system with letters ``maps``, from
    the full set.

    Merge the two smallest image points with ``_merge_images``'s word,
    apply it to the image set letter by letter, repeat: at most m - 1
    pieces.  Once the pairs these searches reached add up to m(m - 1)/2, as
    many as a full ``_pair_distances`` table holds, that table is built and
    walked (``_table_word``) for every later piece, and a pair outside it
    stops the merging.  A pair that comes back before the switch reuses
    the word and count of its first search: each distinct pair is searched
    once, and its count is still added to the pairs stored, so the switch
    comes where it would with the search repeated.  Returns the NO naming
    the first pair that never merges, with its count from one
    ``_merge_images`` closure, and then no reset word exists.  Otherwise,
    with ``whole``, the YES with greedy's word; without it, None as soon as
    a reset word is known to exist: when the table holds every pair, or at
    the end of the word.
    """
    total = m * (m - 1) // 2
    word: list[int] = []
    current = set(range(m))
    dist: Optional[dict[int, int]] = None
    searched: dict[tuple[int, ...], tuple[Optional[Word], int]] = {}
    spent = 0
    while len(current) > 1:
        pair = tuple(sorted(current)[:2])
        if dist is None:
            found = searched.get(pair)
            if found is None:
                found = searched[pair] = _merge_images(maps, m, pair)
            piece, reached = found
            if piece is None:
                return _never_merges(pair, reached)
            spent += reached
            if spent >= total:
                dist = _pair_distances(maps, m)
                if not whole and len(dist) == total:
                    return None
        elif pair[0] * m + pair[1] in dist:
            piece = _table_word(maps, m, dist, pair)
        else:
            return _never_merges(pair, _merge_images(maps, m, pair)[1])
        word += piece
        for letter in piece:
            g = maps[letter]
            current = {g[a] for a in current}
    if not whole:
        return None
    return yes(
        tuple(word),
        f"greedy pair merging, constant to point {min(current)} "
        "(witness may be non-minimal)",
    )


def _synchronizes(maps: list[tuple[int, ...]], m: int) -> Optional[Verdict]:
    """Does a reset word exist?  None if so, else greedy merging's NO at
    the pair where it stops; no word is built for a YES."""
    return _greedy_merge(maps, m, False)


def _greedy_reset(sys: ActionSystem) -> Verdict:
    """A reset word of the deterministic ``sys`` by greedy merging: YES
    with the word, or the NO naming the first pair that never merges."""
    verdict = _greedy_merge([g.image for g in sys.generators], len(sys.space), True)
    assert verdict is not None
    return verdict


def _greedy_scrambling(sys: ActionSystem) -> Verdict:
    """A scrambling word of a stochastic ``sys`` by greedy row merging.

    Take the least pair of rows of S_w with disjoint supports A and B,
    search forward from every pair of A x B, append the word found, repeat.
    Rows that share a column share one under every extension of the word,
    so this ends at a word whose rows pairwise share a column, hence with
    Dobrushin coefficient below 1.  Or no pair of A x B ever merges: every
    scrambling word would merge one, and the NO names the least of them.
    Only the supports of the rows are tracked.
    """
    m = len(sys.space)
    succ = _successors(sys)
    rows = [{i} for i in range(m)]
    word: list[int] = []
    while True:
        for i, j in combinations(range(m), 2):
            if rows[i].isdisjoint(rows[j]):
                break
        else:
            return yes(
                tuple(word),
                "every two rows of S_w share a column, so dobrushin(S_w) < 1 "
                "and powers of the word contract every pair of measures",
            )
        starts = sorted({(min(a, b), max(a, b)) for a in rows[i] for b in rows[j]})
        piece, _ = _merge_path(succ, m, starts)
        if piece is None:
            return _never_merges(starts[0], _merge_path(succ, m, starts[:1])[1])
        word += piece
        rows = [_image(row, succ, piece) for row in rows]


def _greedy_products(
    sys: ActionSystem, b: Budget, key: Callable[[IntRows, int], tuple]
) -> Iterator[tuple[Word, tuple, IntRows]]:
    """Greedy word search on a stochastic system, one letter per step.

    The product S_w is kept exactly, as integer rows over one integer
    denominator, and each generator is read from its cleared integer rows.
    Each step appends the generator g whose product S_wg minimizes
    ``key(rows, den) + (g,)`` and yields the word, that key and the rows,
    for at most ``b.max_word_len`` steps.  The values are exact,
    so keys and ties are those of the same products in ``Fraction`` form.
    """
    steps = []
    for g in sys.generators:
        assert isinstance(g, StochasticMatrix)
        g_rows, g_den = g.cleared
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

    A forward pair search from (x, y), on the points or on the supports of
    the rows, answers NO when the pair never merges.  Otherwise
    deterministic systems get its word, and stochastic systems search
    greedily for a word driving tv(delta_x S_w, delta_y S_w) below epsilon,
    with the Dobrushin product as an alternative certificate.
    """
    m = len(sys.space)
    _check_indices((x, y), m, "point index")
    det = _deterministic_view(sys)
    word: Optional[Word] = ()
    if x != y:
        pair = (min(x, y), max(x, y))
        if det is None:
            word, reached = _merge_path(_successors(sys), m, [pair])
        else:
            maps = [g.image for g in det.generators]
            word, reached = _merge_images(maps, m, pair)
        if word is None:
            return _never_merges(pair, reached)
    if det is not None:
        return yes(word, f"word merges {x} and {y} exactly")
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
    diff, scale = _difference(mu, nu)

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

    Deterministic systems are YES when a reset word exists, since every
    pair then merges, and otherwise NO at the pair where greedy merging
    stops; the test (``_synchronizes``) ends as soon as a reset word is
    known to exist, when greedy merging's pair table holds every pair or
    its word ends, and its YES carries no word.  Stochastic systems
    are YES with the scrambling word of greedy row merging (its powers
    contract every pair), and otherwise NO at the pair of points where it
    stops.  Neither answers UNKNOWN.
    """
    det = _deterministic_view(sys)
    if det is None:
        return _greedy_scrambling(sys)
    m = len(sys.space)
    stop = _synchronizes([g.image for g in det.generators], m)
    return _all_pairs_merge(m) if stop is None else stop


def _all_pairs_merge(m: int) -> Verdict:
    """The is_proximal YES of a deterministic system on m points that has a
    reset word."""
    if m == 1:
        return yes(certificate="single point, trivially proximal")
    return yes(certificate=f"all {m * (m - 1) // 2} point pairs reach the diagonal")


def _nibble_tables(masks: list[int], m: int) -> list[tuple[list[int], list[int]]]:
    """Per mask byte, two 16-entry tables for its low and high nibble.

    ``masks`` holds one mask for each of the m points, zero-padded here to
    a multiple of 8 points.  Entry n of the table of the points 4j..4j + 3,
    with masks a, b, c, d, is the OR of the masks of the points 4j + i for
    the set bits i of n; the 16 entries take 11 ORs of the four masks.
    With the masks 1 << g(x) the tables map a set to its image under g, and
    with the masks of the preimages g^-1(x) to its preimage.
    """
    points = iter(masks + [0] * (-m % 8))
    tables = []
    for a, b, c, d in zip(points, points, points, points):
        ab, ac, bc = a | b, a | c, b | c
        abc = ab | c
        tables.append(
            [0, a, b, ab, c, ac, bc, abc,
             d, a | d, b | d, ab | d, c | d, ac | d, bc | d, abc | d]
        )
    return list(zip(tables[::2], tables[1::2]))


def _map_set(tables: list[tuple[list[int], list[int]]], data: bytes) -> int:
    """The mask that ``_nibble_tables`` tables send the set with these
    little-endian mask bytes to.

    A zero byte holds no point of the set and adds nothing, so it is
    skipped: the sets of a wide lift are mostly zero bytes.
    """
    out = 0
    for (low, high), byte in zip(tables, data):
        if byte:
            out |= low[byte & 15] | high[byte >> 4]
    return out


def _inside(mask: int, level: Optional[list[int]]) -> bool:
    """Does the set lie inside some set of a backward level?  None stands
    for the level of the singletons."""
    if level is None:
        return mask & (mask - 1) == 0
    for s in level:
        if not mask & ~s:
            return True
    return False


def reset_word(sys: ActionSystem, b: Budget) -> Verdict:
    """Length-minimal, lexicographically least word acting as a constant map.

    One bidirectional subset search (Kisielewicz, Kowalski and Szykula,
    Computing the shortest reset words of synchronizing automata, J. Comb.
    Optim. 2015).  Sets of points are bitmasks, mapped a byte at a time
    through nibble tables, their zero bytes skipped.  Forward levels hold
    the images of the full set; backward levels the preimages of the
    singletons, which form depth 0,
    empty preimages dropped.  A word of length k sends a set to a point
    exactly when the set lies inside a preimage of a singleton under it, so
    a forward set at depth d1 inside a backward set at depth d2 closes a
    reset word of length d1 + d2.  Each round expands a whole level of the
    side with the smaller frontier and tests it, set by set, against the
    last level of the other side; no other pair of levels can meet first,
    but the tests cost the product of the two level sizes.  A set lies
    inside no set smaller than itself, so a set is tested only when its
    size (``int.bit_count``) is at most ``widest``, the largest size in the
    last backward level, and a new backward level whose ``widest`` is below
    ``narrowest``, the smallest size in the forward frontier, skips the scan
    of that frontier.  These filters drop only tests that fail, so the meet
    is the same.  The first meet fixes the minimal length L.  The witness is
    the BFS word of the first meeting forward set in BFS order, the least of
    its length, then a walk: at each step the least letter whose image lies
    inside a backward set of the depth still to go.  That word is the least
    of length L.

    Greedy merging runs first, as a synchronization test: when it finds no
    constant word, its NO, the pair where it stops, is the answer and the
    subset search never runs.  It stops as soon as its pair table
    (``_pair_distances``) holds every pair, once its pair searches have
    stored m(m - 1)/2 pairs, or at the end of its word.  Then a singleton is
    an image of the full set and the full set a preimage of a singleton, so
    neither side runs dry before they meet; if one does, so that no meet
    can follow, the search raises RuntimeError.  ``max_closure`` bounds the
    sets stored on both sides, the singletons aside, and not greedy
    merging's pairs or its table; when it runs out, greedy merging runs
    once more, to the end of its word (``_greedy_reset``), and that word is
    the valid, possibly non-minimal, answer.  It is never built otherwise.
    The preimage tables are built when the backward side first expands,
    which a search that the forward side ends alone never does.  ``decide``
    reads both other verdicts of a deterministic system from this one.
    """
    det = _deterministic_view(sys)
    if det is None:
        raise UnsupportedKind("reset_word is defined for deterministic systems")
    m = len(sys.space)
    if m == 1:
        return yes((), "single point, identity already constant")
    maps = [g.image for g in det.generators]
    stop = _synchronizes(maps, m)
    if stop is not None:
        return stop
    width = (m + 7) // 8
    full = (1 << m) - 1
    images = [_nibble_tables([1 << y for y in g], m) for g in maps]
    preimages: Optional[list] = None
    parent: dict[int, Optional[tuple[int, int]]] = {full: None}
    stored: set[int] = set()  # backward sets beyond the singletons
    forward = [full]
    narrowest = m  # the smallest size in the forward frontier
    levels: list[Optional[list[int]]] = [None]  # backward, by depth
    widest = 1  # the largest size in the last backward level
    meet = None
    while meet is None:
        backward = levels[-1]
        if not forward or backward == []:
            raise RuntimeError(
                "reset_word subset search: a side ran empty before the sides met"
            )
        if len(forward) <= (m if backward is None else len(backward)):
            new = []
            narrowest = m
            for mask in forward:
                data = mask.to_bytes(width, "little")
                for gi, tables in enumerate(images):
                    nxt = _map_set(tables, data)
                    if nxt in parent:
                        continue
                    if len(parent) + len(stored) >= b.max_closure:
                        return _greedy_reset(det)
                    parent[nxt] = (mask, gi)
                    new.append(nxt)
                    size = nxt.bit_count()
                    if size < narrowest:
                        narrowest = size
                    if size <= widest and _inside(nxt, backward):
                        meet = nxt
                        break
                if meet is not None:
                    break
            forward = new
        else:
            if preimages is None:
                preimages = []
                for g in maps:
                    masks = [0] * m
                    for x, y in enumerate(g):
                        masks[y] |= 1 << x
                    preimages.append(_nibble_tables(masks, m))
            new = []
            for mask in [1 << x for x in range(m)] if backward is None else backward:
                data = mask.to_bytes(width, "little")
                for tables in preimages:
                    pre = _map_set(tables, data)
                    if pre & (pre - 1) == 0 or pre in stored:
                        continue  # empty, a singleton, or seen
                    if len(parent) + len(stored) >= b.max_closure:
                        return _greedy_reset(det)
                    stored.add(pre)
                    new.append(pre)
            levels.append(new)
            widest = max(map(int.bit_count, new), default=0)
            if narrowest <= widest:
                fits = (f for f in forward if f.bit_count() <= widest)
                meet = next((f for f in fits if _inside(f, new)), None)
    word = []
    node = meet
    while parent[node] is not None:
        node, g = parent[node]
        word.append(g)
    word.reverse()
    for level in reversed(levels[:-1]):  # the walk, from the meeting set on
        data = meet.to_bytes(width, "little")
        for gi, tables in enumerate(images):
            meet = _map_set(tables, data)
            if _inside(meet, level):
                break
        word.append(gi)
    return yes(tuple(word), f"word is constant to point {meet.bit_length() - 1}")


def decide(
    sys: ActionSystem, b: Budget
) -> tuple[Verdict, Verdict, Optional[Verdict]]:
    """The ``is_proximal``, ``strongly_proximal`` and ``reset_word``
    verdicts of ``sys``; the last is None without a deterministic view.

    A deterministic view, 0/1 stochastic matrices unwrapped, gets one
    ``reset_word``, so one synchronization test: greedy merging until its
    pair table shows every pair merges, or to the pair where it stops.
    Greedy's word is built, by one more greedy run, only when the subset
    search runs out of ``max_closure``.  A constant word merges every pair
    and collapses every measure to a point mass, and on a finite space no
    weaker behaviour drives all measures to point masses; where greedy
    merging stops, neither property holds.  Otherwise one greedy row merge
    answers ``is_proximal``, and its NO, a pair of disjoint rows that never
    merge, leaves no vertex near both rows.  Then strong proximality is NO
    for a single generator with a unique full-support stationary
    distribution plus strict contraction, read off the row merge's word
    (all orbits converge to an interior point).  It is NO when no generator
    entry exceeds 1 - epsilon: the entries of every nonempty product stay
    at most the largest one, so no row of any word comes near a vertex, in
    the limit too, and the identity's rows are m distinct vertices.
    Otherwise it is YES when some word takes every row within epsilon of
    one vertex, and else UNKNOWN.
    """
    det = _deterministic_view(sys)
    if det is not None:
        reset = reset_word(det, b)
        if reset.status is Status.YES:
            strong = yes(
                reset.witness, "reset word collapses every measure to a point mass"
            )
        else:
            strong = no(
                f"no constant word exists ({reset.certificate})", reset.evidence
            )
        if reset.status is Status.NO:
            return reset, strong, reset
        return _all_pairs_merge(len(sys.space)), strong, reset
    prox = _greedy_scrambling(sys)
    if prox.status is Status.NO:
        crowded = f"no word crowds all rows near one vertex ({prox.certificate})"
        return prox, no(crowded, prox.evidence), None
    if len(sys.generators) == 1:
        blocked = _single_generator_obstruction(sys, b, prox)
        if blocked is not None:
            return prox, blocked, None
    top = max(
        Fraction(max(map(max, rows)), den)
        for rows, den in (g.cleared for g in sys.generators)
    )
    if top <= 1 - b.epsilon:
        # An entry of S_ug is sum_z (S_u)_yz g_zx <= max_z g_zx <= top.
        bounded = no(
            f"every generator entry is at most {top} <= 1 - epsilon, so every "
            f"row of every nonempty word stays tv >= {1 - top} from every vertex",
            EntryBound(top),
        )
        return prox, bounded, None
    return prox, _stochastic_vertex_search(sys, b), None


def strongly_proximal(sys: ActionSystem, b: Budget) -> Verdict:
    """Can every measure be pushed to (epsilon-close to) a point mass?

    The second verdict of ``decide``, which explains how it is reached.
    """
    return decide(sys, b)[1]


def _single_generator_obstruction(
    sys: ActionSystem, b: Budget, scrambling: Verdict
) -> Optional[Verdict]:
    """NO when orbits provably converge to one interior distribution.

    The stationary distributions pi solve pi (S - I) = 0 with total mass 1;
    with S's cleared rows N over den that is pi (N - den I) = 0, an integer
    system with the same solutions.

    The contraction is that of S^k, k the length of ``scrambling``, the YES
    of ``_greedy_scrambling``; None when k exceeds ``b.max_word_len``.  S^k
    is the least power with Dobrushin coefficient below 1, the least power
    K whose rows pairwise share a column.  With one generator every word is
    a power, and rows that share a column keep sharing one under every
    extension.  Each greedy piece is the shortest extension that makes one
    more pair of rows share a column, so it ends at the first power at which
    that pair shares one, which is at most K; and greedy stops only once
    every pair shares one, so k is K.
    """
    word = scrambling.witness
    assert word is not None
    if len(word) > b.max_word_len:
        return None
    s = sys.generators[0]
    assert isinstance(s, StochasticMatrix)
    nums, den = s.cleared
    m = len(s)
    rows = [
        [nums[i][j] - (den if i == j else 0) for i in range(m)] for j in range(m)
    ]
    rows.append([1] * m)
    solved = solve_affine(rows, [0] * m + [1])
    if solved is None:
        return None
    pi, basis = solved
    if basis or any(p <= 0 for p in pi):
        return None
    coeff = _dobrushin(*_word_rows(sys.generators, m, word))
    margin = 1 - max(pi)
    return no(
        "unique stationary distribution "
        f"({', '.join(str(p) for p in pi)}) has full support and "
        f"dobrushin(S^{len(word)}) = {coeff} < 1: every orbit converges to it, "
        f"staying tv >= {margin} away from every point mass in the limit"
    )


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

    Deterministic: pushforward is linear, so mu w = nu w exactly when w
    sends d, the integer numerators of mu - nu over their common
    denominator, to zero.  A BFS over the vectors d w, letters in order with
    parent links, finds the shortest, then lexicographically least, such
    word; a BFS over the pairs (mu w, nu w) finds the same one, since its
    moves and its test both factor through d.  Or it ends at a NO: the
    differences reachable from d, a set closed under the generators that
    avoids zero.  ``max_closure`` bounds the stored differences.  When it
    runs out, greedy merging's constant word, which pushes both measures to
    one point mass, is the possibly non-minimal answer, provided the budget
    holds every point pair, the most that one greedy pair search stores.
    Otherwise the answer is UNKNOWN.  Stochastic: greedy tv descent.
    """
    m = len(sys.space)
    if len(mu) != m or len(nu) != m:
        raise ValidationError("measures must match the space size")
    det = _deterministic_view(sys)
    if det is None:
        return _stochastic_pair_search(sys, mu, nu, b, "(mu,nu)")
    if mu == nu:
        return yes((), "measures already equal")
    start = tuple(_difference(mu, nu)[0])
    maps = [g.image for g in det.generators]
    seen = {start}
    queue = [start]
    links = [(0, -1)]  # per difference: its parent and the last letter
    for i, d in enumerate(queue):
        for letter, g in enumerate(maps):
            nxt = tuple(_push(g, d))
            if not any(nxt):
                return yes(
                    _word_to(links, i, letter),
                    "word pushes both measures to the same image",
                )
            if nxt in seen:
                continue
            if len(seen) >= b.max_closure:
                return _pair_budget_out(det, b)
            seen.add(nxt)
            queue.append(nxt)
            links.append((i, letter))
    return no(f"the {len(seen)} differences reachable from mu - nu are all nonzero")


def _pair_budget_out(det: ActionSystem, b: Budget) -> Verdict:
    """The verdict of ``measure_pair_proximal`` when its budget runs out."""
    spent = f"difference budget exhausted (max_closure={b.max_closure})"
    m = len(det.space)
    if m * (m - 1) // 2 <= b.max_closure:
        greedy = _greedy_reset(det)
        if greedy.status is Status.YES:
            return yes(
                greedy.witness,
                f"{spent}; the greedy constant word pushes both measures to one "
                "point mass (witness may be non-minimal)",
            )
    return unknown(spent)
