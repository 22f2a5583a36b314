"""Exact rational linear algebra: elimination, rank, affine solution sets.

Everything here works on lists of :class:`fractions.Fraction` and is exact; no
floating point, no tolerances.  Matrices are small (desk scale), so plain
Gaussian elimination is the right tool.  ``clear_denominators`` is the one
place where rational rows become integer rows over a common denominator, and
the exact-input gate below is the one place that decides what an exact input
is; every other module imports both from here.  Past the gate, measures,
stochastic matrices and metrics are checked, and Dobrushin coefficients
summed, on the integer rows ``clear_denominators`` gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


# The exact-input gate.  Every index, count, resolution and rational that
# enters the library passes one of these four: floats are refused, not
# truncated, and so are booleans, which Python would take as 0 and 1.
def _as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise ValidationError(f"expected an exact rational, got {type(x).__name__}")


def _fraction_rows(
    rows: Iterable[Iterable[int | Fraction]],
) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(map(_as_fraction, row)) for row in rows)


def _as_int(x: int, what: str) -> int:
    if type(x) is int:
        return x
    raise ValidationError(f"{what} must be an integer, got {type(x).__name__}")


def _check_indices(xs: Collection[int], m: int, what: str) -> None:
    """Every entry of xs is an integer in 0..m-1.  Types, min and max are
    read over the whole collection at once, so hot constructors stay fast."""
    if xs and (set(map(type, xs)) != {int} or min(xs) < 0 or max(xs) >= m):
        raise ValidationError(f"{what} outside the integers 0..{m - 1}")


def clear_denominators(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], int]:
    """The rows as integer rows over their least common denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix (destructively computed on a copy)."""
    m = [list(r) for r in rows]
    return len(_echelon(m))


def _echelon(m: list[list[Fraction]]) -> list[int]:
    """Reduce ``m`` in place to row echelon form; return the pivot columns."""
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
        inv = ONE / m[r][c]
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


def solve_affine(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``A x = b`` exactly.

    Returns ``(particular, nullspace_basis)`` describing the full affine
    solution set, or ``None`` when the system is inconsistent.
    """
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _echelon(aug)
    if n in pivots:  # pivot in the rhs column: 0 = nonzero
        return None
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [ZERO] * n
    for c, i in pivot_of_col.items():
        particular[c] = aug[i][n]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for c, i in pivot_of_col.items():
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis
