"""Semigroup actions on finite spaces: words, pushforward, convolution.

Generators are either deterministic transformations (total selfmaps of the
point set) or row-stochastic rational matrices acting affinely on measures.
Words are sequences of generator indices applied left-to-right: the word
(g, h) sends x to h(g(x)), and a measure mu to mu applied through g then h.
That convention is fixed here and used everywhere witnesses are reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from operator import mul, sub
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, UnsupportedKind, ValidationError
from .linalg import _check_indices, _fraction_rows, clear_denominators
from .spaces import ZERO, FiniteSpace, Measure

Word = tuple[int, ...]


class Kind(enum.Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class Transformation:
    """Total selfmap of {0..m-1}; image[i] is where point i goes."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.image)
        if m == 0:
            raise ValidationError("transformation on an empty set")
        _check_indices(self.image, m, "transformation image")

    @classmethod
    def identity(cls, m: int) -> "Transformation":
        return cls(tuple(range(m)))

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def then(self, other: "Transformation") -> "Transformation":
        """Composite doing self first, then other (left-to-right)."""
        if len(other) != len(self):
            raise DimensionMismatch("transformation sizes differ")
        return Transformation(tuple(other.image[j] for j in self.image))

    def is_constant(self) -> bool:
        return len(set(self.image)) == 1

    def is_permutation(self) -> bool:
        return len(set(self.image)) == len(self.image)


@dataclass(frozen=True)
class StochasticMatrix:
    """Square matrix of exact transition probabilities, rows summing to 1.

    The entries must be ``Fraction``s.  The matrix is checked once as
    integer rows over its common denominator den: every numerator is
    nonnegative and every row sums to den.  ``cleared`` keeps those
    ``(rows, den)`` for the integer kernels: word products
    (``_word_rows``), Dobrushin coefficients, the row supports and entry
    bounds of ``proximality`` and the replays of ``cli``.  Equal entries
    give equal integer rows, so it stays out of equality, hash and repr.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    cleared: tuple[tuple[tuple[int, ...], ...], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = self.rows
        m = len(rows)
        if m == 0:
            raise ValidationError("empty stochastic matrix")
        if not all(len(row) == m for row in rows) or set(
            map(type, chain.from_iterable(rows))
        ) != {Fraction}:
            _check_rows(rows)
        nums, den = clear_denominators(rows)
        if not all(min(row) >= 0 and sum(row) == den for row in nums):
            _check_rows(rows)
        object.__setattr__(self, "cleared", (tuple(map(tuple, nums)), den))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int | Fraction]]
    ) -> "StochasticMatrix":
        return cls(_fraction_rows(rows))

    @classmethod
    def from_transformation(cls, t: Transformation) -> "StochasticMatrix":
        m = len(t)
        return cls(
            tuple(
                tuple(Fraction(1) if j == t(i) else ZERO for j in range(m))
                for i in range(m)
            )
        )

    def __len__(self) -> int:
        return len(self.rows)

    def then(self, other: "StochasticMatrix") -> "StochasticMatrix":
        """Matrix product self * other: apply self first on row vectors."""
        m = len(self)
        if len(other) != m:
            raise DimensionMismatch("stochastic matrix sizes differ")
        cols = list(zip(*other.rows))
        return StochasticMatrix(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col)), ZERO) for col in cols
                )
                for row in self.rows
            )
        )

    def is_deterministic(self) -> bool:
        # Entries in 0..1 summing to 1 per row are 0/1 exactly when their
        # common denominator is 1.
        return self.cleared[1] == 1

    def to_transformation(self) -> Transformation:
        rows, den = self.cleared
        if den != 1:
            raise ValidationError("matrix has non 0/1 entries")
        return Transformation(tuple(row.index(1) for row in rows))


def _check_rows(rows: tuple) -> None:
    """Raise the first fault of rows that form no stochastic matrix, row by
    row; ``StochasticMatrix`` calls it when its integer check cannot run or
    fails."""
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise DimensionMismatch("stochastic matrix must be square", m)
        Measure(row)  # each row is a probability vector


Generator = Union[Transformation, StochasticMatrix]


@dataclass(frozen=True)
class ActionSystem:
    """A finite space together with finitely many generating selfmaps."""

    space: FiniteSpace
    kind: Kind
    generators: tuple[Generator, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValidationError("an action system needs at least one generator")
        m = len(self.space)
        want = Transformation if self.kind is Kind.DETERMINISTIC else StochasticMatrix
        for g in self.generators:
            if not isinstance(g, want):
                raise ValidationError(
                    f"{self.kind.value} system got a {type(g).__name__} generator"
                )
            if len(g) != m:
                raise DimensionMismatch("generator size does not match space", m)

    @classmethod
    def deterministic(
        cls, space: FiniteSpace, images: Iterable[Sequence[int]]
    ) -> "ActionSystem":
        gens = tuple(Transformation(tuple(img)) for img in images)
        return cls(space, Kind.DETERMINISTIC, gens)

    @classmethod
    def stochastic(
        cls, space: FiniteSpace, matrices: Iterable[StochasticMatrix]
    ) -> "ActionSystem":
        return cls(space, Kind.STOCHASTIC, tuple(matrices))

    def check_word(self, w: Word) -> None:
        _check_indices(w, len(self.generators), "word letter")

    def word_transformation(self, w: Word) -> Transformation:
        """The single transformation realized by a word, left-to-right; the
        images compose as plain lists and only the result is wrapped."""
        if self.kind is not Kind.DETERMINISTIC:
            raise UnsupportedKind("word_transformation needs a deterministic system")
        self.check_word(w)
        image: Sequence[int] = range(len(self.space))
        for a in w:
            g = self.generators[a].image
            image = [g[j] for j in image]
        return Transformation(tuple(image))

    def word_matrix(self, w: Word) -> StochasticMatrix:
        """The product matrix realized by a word, left-to-right, multiplied
        in integers by ``_word_rows``; the ``Fraction`` entries are built
        once, at the end."""
        self.check_word(w)
        rows, den = _word_rows(self.generators, len(self.space), w)
        return StochasticMatrix(
            tuple(tuple(Fraction(p, den) for p in row) for row in rows)
        )


IntRows = list[list[int]]


def _word_rows(
    generators: Sequence[Generator], m: int, w: Word
) -> tuple[IntRows, int]:
    """The product of a checked word's letters as integer rows over one
    integer denominator, left-to-right.

    A transformation moves each column to its image; a stochastic letter
    multiplies by its cleared rows and its denominator.  No ``Fraction`` is
    built.
    """
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    den = 1
    letters: dict[int, tuple[list, int]] = {}
    for a in w:
        g = generators[a]
        if isinstance(g, Transformation):
            rows = [_push(g.image, row) for row in rows]
            continue
        if a not in letters:
            g_rows, g_den = g.cleared
            letters[a] = list(zip(*g_rows)), g_den
        cols, g_den = letters[a]
        rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        den *= g_den
    return rows, den


def _push(image: Sequence[int], weights: Sequence[int | Fraction]) -> list:
    """Deterministic pushforward of an exact weight vector: point i's weight
    moves to image[i]; integer counts push to integer counts."""
    out = [0] * len(weights)
    for target, w in zip(image, weights):
        out[target] += w
    return out


def _push_one_deterministic(t: Transformation, mu: Measure) -> Measure:
    return Measure.from_weights(_push(t.image, mu.weights))


def _push_one_stochastic(s: StochasticMatrix, mu: Measure) -> Measure:
    cols = list(zip(*s.rows))
    return Measure(
        tuple(sum((w * c for w, c in zip(mu.weights, col)), ZERO) for col in cols)
    )


def pushforward(sys: ActionSystem, w: Word, mu: Measure) -> Measure:
    """Image measure of mu under the word, letter by letter.

    Deterministic letters sum mu over preimages (t mu (E) = mu(t^{-1} E));
    stochastic letters multiply the row vector by the matrix.  The empty word
    is the identity.
    """
    if len(mu) != len(sys.space):
        raise DimensionMismatch("measure size does not match space", len(sys.space))
    sys.check_word(w)
    for a in w:
        g = sys.generators[a]
        if isinstance(g, Transformation):
            mu = _push_one_deterministic(g, mu)
        else:
            mu = _push_one_stochastic(g, mu)
    return mu


@dataclass(frozen=True)
class SemigroupTable:
    """Total binary operation on {0..m-1}; associativity checked on build."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.table)
        if m == 0:
            raise ValidationError("empty semigroup table")
        for row in self.table:
            if len(row) != m:
                raise ValidationError("table is not a total operation")
            _check_indices(row, m, "table entry")
        for x in range(m):
            for y in range(m):
                xy = self.table[x][y]
                for z in range(m):
                    if self.table[xy][z] != self.table[x][self.table[y][z]]:
                        raise ValidationError(
                            f"operation not associative at ({x},{y},{z})"
                        )

    @classmethod
    def cyclic(cls, n: int) -> "SemigroupTable":
        return cls(tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))

    @classmethod
    def left_zero(cls, n: int) -> "SemigroupTable":
        return cls(tuple(tuple(x for _ in range(n)) for x in range(n)))

    def __len__(self) -> int:
        return len(self.table)

    def __call__(self, x: int, y: int) -> int:
        return self.table[x][y]


def _convolve(
    table: SemigroupTable, mu: Sequence[int | Fraction], nu: Sequence[int | Fraction]
) -> list:
    """(mu * nu)(z) = sum over x.y = z of mu(x) nu(y) for exact weight
    vectors; integer compositions convolve to integer compositions."""
    out = [0] * len(table)
    for x, wx in enumerate(mu):
        if wx == 0:
            continue
        row = table.table[x]
        for y, wy in enumerate(nu):
            if wy == 0:
                continue
            out[row[y]] += wx * wy
    return out


def convolution(table: SemigroupTable, mu: Measure, nu: Measure) -> Measure:
    """(mu * nu)(z) = sum over x.y = z of mu(x) nu(y), exact."""
    m = len(table)
    if len(mu) != m or len(nu) != m:
        raise DimensionMismatch("measure size does not match table", m)
    return Measure.from_weights(_convolve(table, mu.weights, nu.weights))


def _dobrushin(rows: Sequence[Sequence[int]], den: int) -> Fraction:
    """Dobrushin coefficient of the matrix with these integer rows over den."""
    gap = max(
        (sum(map(abs, map(sub, r, t))) for r, t in combinations(rows, 2)),
        default=0,
    )
    return Fraction(gap, 2 * den)


def dobrushin(s: StochasticMatrix) -> Fraction:
    """Contraction coefficient: half the largest L1 gap between two rows.

    Zero exactly when all rows agree (rank one); total variation between
    pushed measures contracts by at least this factor, and the coefficient is
    submultiplicative under matrix products.  The gaps are summed on the
    cleared integer rows of s.
    """
    return _dobrushin(*s.cleared)
