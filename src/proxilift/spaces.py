"""Finite metric spaces and exact-rational probability measures.

A finite metric space stands in for the compact space under study; probability
measures over it are vectors of exact rationals summing to one.  The grid
simplex collects all measures with a fixed common denominator q, which is the
finite stand-in for the full probability simplex: deterministic pushforward
maps the q-grid into itself, so lifted dynamics stay exact.  A grid atom is
held as the integer composition c of q with atom = c / q; the lift works on
compositions alone, and ``Measure`` atoms are built only on request.

Weak* convergence on a finite space is metrized equivalently by total
variation or by Wasserstein-1; both are provided, the latter computed exactly
by integer min-cost flow on the difference of the two measures after clearing
denominators.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, ValidationError
from .frozen import _Frozen
from .linalg import (
    _as_fraction,
    _as_int,
    _check_indices,
    _fraction_rows,
    clear_denominators,
)
from .transport import _w1_cost

ZERO = Fraction(0)
ONE = Fraction(1)


class FiniteSpace(_Frozen):
    """Point labels plus a symmetric rational metric.

    ``matrix`` is an explicit metric matrix, validated on construction, or
    None for the discrete metric (build that with ``discrete``).  The checks
    (zero diagonal, symmetry, positive distances, the triangle inequality
    for every triple (i, j, k)) run on the integer numerators of the matrix
    over its common denominator, and ``cleared`` keeps those integer rows
    and that denominator for the W1 kernels (``w1_distance``,
    ``LiftedSystem.metric``).  Equality compares labels and metric values,
    so a discrete space equals the explicit space with the same labels and
    the 0/1 matrix.
    """

    _fields = ("labels", "matrix")
    labels: tuple[str, ...]
    matrix: Optional[tuple[tuple[Fraction, ...], ...]]

    def __init__(
        self,
        labels: tuple[str, ...],
        matrix: Optional[tuple[tuple[Fraction, ...], ...]],
    ) -> None:
        m = len(labels)
        if m == 0:
            raise ValidationError("a space needs at least one point")
        if len(set(labels)) != m:
            raise ValidationError("point labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", matrix)
        if matrix is None:
            return
        rows = _fraction_rows(matrix)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise DimensionMismatch("metric matrix must be square of size", m)
        rows, den = clear_denominators(rows)
        for i in range(m):
            if rows[i][i] != 0:
                raise ValidationError(f"metric diagonal must be zero at {i}")
            for j in range(i + 1, m):
                d = rows[i][j]
                if d != rows[j][i]:
                    raise ValidationError(f"metric not symmetric at ({i},{j})")
                if d <= 0:
                    raise ValidationError(
                        f"distinct points {i},{j} need positive distance"
                    )
        # A metric with all off-diagonal entries equal satisfies the triangle
        # inequality outright (d <= d + d); skip the cubic sweep then.
        off = {rows[i][j] for i in range(m) for j in range(m) if i != j}
        if len(off) > 1:
            for i in range(m):
                row_i = rows[i]
                for j in range(m):
                    # d_ij + d_jk < d_ik for some k, read off one row gap
                    if row_i[j] + min(map(sub, rows[j], row_i)) < 0:
                        k = next(
                            k for k in range(m) if row_i[j] + rows[j][k] < row_i[k]
                        )
                        raise ValidationError(
                            f"triangle inequality fails on ({i},{j},{k})"
                        )
        object.__setattr__(self, "cleared", (tuple(map(tuple, rows)), den))

    @classmethod
    def discrete(cls, labels: Sequence[str]) -> "FiniteSpace":
        """All distinct distances equal to 1 (the discrete metric).

        No matrix is stored: the metric is valid by construction, and
        ``metric`` builds the n x n matrix only when something reads it.
        """
        return cls(tuple(labels), None)

    @classmethod
    def from_rows(
        cls, labels: Sequence[str], rows: Sequence[Sequence[int | Fraction]]
    ) -> "FiniteSpace":
        return cls(tuple(labels), _fraction_rows(rows))

    @cached_property
    def metric(self) -> tuple[tuple[Fraction, ...], ...]:
        """The metric matrix, built on first read for a discrete space."""
        if self.matrix is not None:
            return self.matrix
        m = len(self)
        return tuple(
            tuple(ZERO if i == j else ONE for j in range(m)) for i in range(m)
        )

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The metric as integer rows over their common denominator: kept
        from validation for an explicit matrix, and for a discrete space the
        0/1 rows over 1, built on first read."""
        m = len(self)
        return tuple(tuple(int(i != j) for j in range(m)) for i in range(m)), 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.labels == other.labels and (
            self.matrix is other.matrix or self.metric == other.metric
        )

    def __hash__(self) -> int:
        return hash(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class DeferredLabelSpace(FiniteSpace):
    """A discrete space of ``size`` points whose labels ``build()`` makes
    on first read, the way ``FiniteSpace.discrete`` defers its matrix.

    ``len`` is ``size`` without a build.  The labels are checked when they
    are built: there must be ``size`` of them, all distinct.  Equality, hash
    and repr read the labels and are those of
    ``FiniteSpace.discrete(labels)``.
    """

    def __init__(self, size: int, build: Callable[[], Sequence[str]]) -> None:
        object.__setattr__(self, "matrix", None)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_build", build)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        labels = tuple(self._build())
        if len(labels) != self._size:
            raise DimensionMismatch("label count must equal space size", self._size)
        if len(set(labels)) != self._size:
            raise ValidationError("point labels must be distinct")
        return labels

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return repr(FiniteSpace.discrete(self.labels))


class Measure(_Frozen):
    """Exact probability vector; the index set is supplied by context.

    The weights must be ``Fraction``s.  They are checked as integer
    numerators over their common denominator den: each numerator lies in
    0..den and they sum to den.  ``cleared`` keeps ``(numerators, den)``
    for the integer kernels (the measure-pair searches, ``barycenter``,
    ``w1_distance``, the invariant-measure replay); equal weights give
    equal numerators, so it stays out of equality, hash and repr.
    """

    _fields = ("weights",)
    weights: tuple[Fraction, ...]
    cleared: tuple[tuple[int, ...], int]

    def __init__(self, weights: tuple[Fraction, ...]) -> None:
        if not weights or set(map(type, weights)) != {Fraction}:
            _check_weights(weights)
        (nums,), den = clear_denominators((weights,))
        if min(nums) < 0 or sum(nums) != den:
            _check_weights(weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cleared", (tuple(nums), den))

    @classmethod
    def from_weights(cls, weights: Iterable[int | Fraction]) -> "Measure":
        return cls(tuple(_as_fraction(w) for w in weights))

    @classmethod
    def point_mass(cls, m: int, i: int) -> "Measure":
        _check_indices((i,), _as_int(m, "measure size"), "point index")
        return cls(tuple(ONE if j == i else ZERO for j in range(m)))

    @classmethod
    def uniform(cls, m: int) -> "Measure":
        return cls(tuple(Fraction(1, m) for _ in range(m)))

    def __len__(self) -> int:
        return len(self.weights)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    def mass_of(self, points: Iterable[int]) -> Fraction:
        return sum((self.weights[i] for i in set(points)), ZERO)

    def is_point_mass(self) -> bool:
        return any(w == 1 for w in self.weights)

    def point_of_mass(self) -> int:
        """Index carrying full mass; only valid for point masses."""
        for i, w in enumerate(self.weights):
            if w == 1:
                return i
        raise ValidationError("measure is not a point mass")

    def mix(self, other: "Measure", a: Fraction) -> "Measure":
        """Convex combination a*self + (1-a)*other, exact."""
        if len(other) != len(self):
            raise DimensionMismatch("measure sizes differ", len(self), len(other))
        if a < 0 or a > 1:
            raise ValidationError("mixing weight outside [0,1]")
        return Measure(
            tuple(
                a * w + (1 - a) * v for w, v in zip(self.weights, other.weights)
            )
        )


def _check_weights(weights: Sequence) -> None:
    """Raise the first fault of weights that are no probability vector,
    entry by entry; ``Measure`` calls it when its integer check cannot run
    or fails."""
    if not weights:
        raise ValidationError("a measure needs at least one coordinate")
    total = ZERO
    for w in weights:
        if not isinstance(w, Fraction):
            raise ValidationError("measure weights must be Fractions")
        if w < 0 or w > 1:
            raise ValidationError(f"weight {w} outside [0,1]")
        total += w
    if total != 1:
        raise ValidationError(f"weights sum to {total}, not 1")


def _difference(mu: Measure, nu: Measure) -> tuple[list[int], int]:
    """The numerators of mu - nu over den, the least common denominator of
    the weights of both, read off their cleared forms."""
    (a, da), (b, db) = mu.cleared, nu.cleared
    den = math.lcm(da, db)
    ka, kb = den // da, den // db
    return [x * ka - y * kb for x, y in zip(a, b)], den


def tv_distance(mu: Measure, nu: Measure) -> Fraction:
    """Total variation (1/2) sum |mu_i - nu_i|, exact."""
    if len(mu) != len(nu):
        raise DimensionMismatch("measure sizes differ", len(mu), len(nu))
    return sum((abs(a - b) for a, b in zip(mu.weights, nu.weights)), ZERO) / 2


def w1_distance(space: FiniteSpace, mu: Measure, nu: Measure) -> Fraction:
    """Optimal-transport cost between mu and nu under the space metric.

    Masses and metric are read as integers over a common denominator from
    their cleared forms, and only the difference of the masses is
    transported: the metric is
    validated (zero diagonal, triangle inequality), so the mass mu and nu
    share stays in place (see ``transport._w1_cost``).  The value is an
    exact rational and satisfies the metric axioms.
    """
    m = len(space)
    if len(mu) != m or len(nu) != m:
        raise DimensionMismatch("measure size does not match space", m)
    diff, denom = _difference(mu, nu)
    metric, scale = space.cleared
    return Fraction(_w1_cost(diff, metric), denom * scale)


def _grid_fold(parts: Sequence[Sequence], resolutions: Sequence[int]) -> list[list]:
    """For each q of ``resolutions``, parts[0][c_0] + parts[1][c_1] + ...
    for each composition c of q into len(parts) nonnegative parts, in
    lexicographic order of c.

    Each part lists its top + 1 pieces, for the values 0..top, where top is
    the largest resolution; ``+`` may add ints or concatenate tuples or
    strings.  Level r of the last k parts holds the sums of their
    compositions of r, in order: value a of the part before them,
    ascending, then level r - a below it.  The levels r <= top of all parts
    but the first are built once and shared, and the first part is joined
    to them at each requested resolution alone.
    """
    first, *rest = parts
    if not rest:
        return [[first[q]] for q in resolutions]
    top = max(resolutions)
    levels = [[p] for p in rest[-1]]
    for part in reversed(rest[:-1]):
        levels = [
            [p + s for a, p in enumerate(part[: r + 1]) for s in levels[r - a]]
            for r in range(top + 1)
        ]
    return [
        [p + s for a, p in enumerate(first[: q + 1]) for s in levels[q - a]]
        for q in resolutions
    ]


def _compositions(m: int, q: int) -> list[tuple[int, ...]]:
    """The compositions of q into m nonnegative parts, in lexicographic order:
    the grid fold of the one-tuples (a,), a = 0..q, in every part."""
    return _grid_fold([[(a,) for a in range(q + 1)]] * m, (q,))[0]


def grid_atoms(m: int, q: int) -> list[Measure]:
    """All measures on m points with weights a_i/q, in lexicographic order.

    Lexicographic on the numerator vectors (a_0, ..., a_{m-1}); there are
    binomial(q+m-1, m-1) of them.
    """
    if _as_int(m, "measure size") < 1 or _as_int(q, "resolution") < 1:
        raise ValidationError("need m >= 1 and q >= 1")
    return [
        Measure(tuple(Fraction(a, q) for a in c)) for c in _compositions(m, q)
    ]


class GridSimplex(_Frozen):
    """The resolution-q discretization of the probability simplex over base.

    Atom k is the measure c / q for the k-th composition c of q into
    len(base) nonnegative parts, lexicographically ordered.  The integer
    compositions are the atoms' one representation, built by ``_grid_fold``
    as the lift's integer keys and atom labels are: ``index`` maps a
    composition to its atom index, and ``atoms`` builds the ``Measure``
    objects only when something reads them.
    """

    _fields = ("base", "resolution")
    base: FiniteSpace
    resolution: int

    def __init__(self, base: FiniteSpace, resolution: int) -> None:
        if _as_int(resolution, "resolution") < 1:
            raise ValidationError("resolution must be positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "resolution", resolution)

    @classmethod
    def build(cls, base: FiniteSpace, q: int) -> "GridSimplex":
        return cls(base, q)

    @cached_property
    def compositions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_compositions(len(self.base), self.resolution))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Atom index of each composition."""
        return {c: k for k, c in enumerate(self.compositions)}

    @cached_property
    def atoms(self) -> tuple[Measure, ...]:
        return tuple(grid_atoms(len(self.base), self.resolution))

    def __len__(self) -> int:
        """binomial(q + m - 1, m - 1), without building the compositions."""
        return math.comb(self.resolution + len(self.base) - 1, len(self.base) - 1)

    def atom_index(self, mu: Measure) -> int:
        # An integral Fraction hashes and compares like the int it equals, so
        # q * mu looks up its composition directly.
        k = self.index.get(tuple(w * self.resolution for w in mu.weights))
        if k is None:
            raise ValidationError(
                f"measure is not on the resolution-{self.resolution} grid"
            )
        return k

    def vertex_index(self, point: int) -> int:
        """Atom index of the point mass at the given base point."""
        return self.atom_index(Measure.point_mass(len(self.base), point))


def tightness_profile(
    seq: Sequence[Measure], sets: Sequence[Sequence[int]]
) -> list[Fraction]:
    """For each set K (nested increasing), the worst-case mass min_n seq[n](K).

    A sequence is tight at level 1-eps when some K achieves min >= 1-eps;
    profiles strictly below that level for every K in an exhaustion flag mass
    escaping to infinity.
    """
    if not seq:
        raise ValidationError("tightness profile needs a nonempty sequence")
    m = len(seq[0])
    if any(len(mu) != m for mu in seq):
        raise DimensionMismatch("measures in the sequence differ in size", m)
    prev: set[int] = set()
    profile: list[Fraction] = []
    for raw in sets:
        k = set(raw)
        if not prev <= k:
            raise ValidationError("sets must be nested increasing")
        _check_indices(k, m, "set point")
        profile.append(min(mu.mass_of(k) for mu in seq))
        prev = k
    return profile


def _random_counts(rng: random.Random, m: int, granularity: int = 12) -> list[int]:
    """Integer masses up to granularity, not all zero: the numerators that
    ``random_measure`` normalizes, drawn with the same RNG calls."""
    nums = [rng.randint(0, granularity) for _ in range(m)]
    if not any(nums):
        nums[rng.randrange(m)] = 1
    return nums


def random_measure(rng: random.Random, m: int, granularity: int = 12) -> Measure:
    """A random exact-rational measure: integer masses up to granularity,
    normalized by their sum."""
    nums = _random_counts(
        rng, _as_int(m, "measure size"), _as_int(granularity, "granularity")
    )
    total = sum(nums)
    return Measure(tuple(Fraction(a, total) for a in nums))
