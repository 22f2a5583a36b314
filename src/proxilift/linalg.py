"""Exact rational linear algebra: elimination, rank, affine solution sets.

Everything here is exact; no floating point, no tolerances.  ``rank`` and
``solve_affine`` take ``Fraction`` or int rows, clear their denominators
once and run Gauss-Jordan elimination on integers, fraction-free, by
cross-multiplication and gcd reduction; only the solutions they return are
``Fraction``s.  Matrices are small (desk scale), so no pivoting strategy or
modular method is needed.  ``clear_denominators`` turns rational rows into
integer rows over a common denominator, and the exact-input gate below is
the one place that decides what an exact input is.  Past the gate,
``Measure``, ``StochasticMatrix`` and ``FiniteSpace`` clear their entries
once, in their validation, and keep the result as their ``cleared``
attribute; every kernel that works on integers (word products, Dobrushin
coefficients, supports, the pair and measure searches, barycenters and W1
distances) reads that attribute instead of clearing again.  Only the three
validations, ``rank``, ``solve_affine`` and ``transport.min_cost_transport``
call ``clear_denominators``; the last three take general rows.
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
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[int]], int]:
    """The rows as integer rows over their least common denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix."""
    return len(_echelon(clear_denominators(rows)[0]))


def _echelon(m: list[list[int]]) -> list[int]:
    """Reduce the integer rows ``m`` in place to reduced row echelon form up
    to one nonzero factor per row; return the pivot columns.

    Gauss-Jordan elimination without fractions: a row is cleared at a pivot
    column by cross-multiplying it with the pivot row, then divided by the
    gcd of its entries.  Each row stays a nonzero multiple of the row that
    rational elimination would hold, so the pivots are the same, and row i
    divided by its pivot entry is row i of the unique reduced form.
    """
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(n_rows):
            a = m[i][c]
            if i != r and a:
                row = [p * x - a * y for x, y in zip(m[i], top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def solve_affine(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``A x = b`` exactly.

    Returns ``(particular, nullspace_basis)`` describing the full affine
    solution set, or ``None`` when the system is inconsistent.  The entries
    are ``Fraction``s or ints; the elimination runs on integer rows, and
    only the entries returned become ``Fraction``s, each an entry of its
    reduced row over the pivot.
    """
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    aug, _ = clear_denominators([list(r) + [b] for r, b in zip(rows, rhs)])
    pivots = _echelon(aug)
    if n in pivots:  # pivot in the rhs column: 0 = nonzero
        return None
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [ZERO] * n
    for c, i in pivot_of_col.items():
        particular[c] = Fraction(aug[i][n], aug[i][c])
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for c, i in pivot_of_col.items():
            vec[c] = Fraction(-aug[i][fc], aug[i][c])
        basis.append(vec)
    return particular, basis
