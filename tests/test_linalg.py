"""Exact elimination: rank and affine solution sets against Fraction rows."""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from proxilift.linalg import rank, solve_affine
from helpers import fraction_rank, fraction_solve_affine

F = Fraction

entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=9)
)


@st.composite
def linear_systems(draw):
    """A rational system A x = b of one of four kinds: any; inconsistent,
    its last equation a combination of the others with 1 added to its
    right-hand side; rank-deficient, its last equation a combination of the
    others; or with a zero column, or with no columns at all."""
    kind = draw(st.sampled_from(["any", "inconsistent", "deficient", "zero-column"]))
    n = draw(st.integers(0 if kind == "zero-column" else 1, 5))
    r = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(r)]
    rhs = [draw(entries) for _ in range(r)]
    if kind in ("inconsistent", "deficient"):
        coeffs = [draw(entries) for _ in range(r)]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        b = sum(c * x for c, x in zip(coeffs, rhs))
        rhs.append(b + 1 if kind == "inconsistent" else b)
    elif kind == "zero-column" and n:
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = F(0)
    return kind, rows, rhs


class TestElimination:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(linear_systems())
    def test_matches_fraction_elimination(self, drawn):
        kind, rows, rhs = drawn
        before = copy.deepcopy((rows, rhs))
        want = fraction_solve_affine(rows, rhs)
        got = solve_affine(rows, rhs)
        assert got == want
        assert rank(rows) == fraction_rank(rows)
        assert (rows, rhs) == before  # the inputs are left as they were
        if got is not None:
            particular, basis = got
            assert all(type(x) is Fraction for v in [particular, *basis] for x in v)
        if kind == "inconsistent":
            assert got is None
        elif kind == "deficient":
            assert rank(rows) < len(rows)

    def test_known_solution_sets(self):
        assert solve_affine([[F(1), F(1)]], [F(1)]) == ([F(1), F(0)], [[F(-1), F(1)]])
        assert solve_affine([[F(2), F(0)], [F(0), F(3)]], [F(1), F(1)]) == (
            [F(1, 2), F(1, 3)],
            [],
        )
        assert solve_affine([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)]) is None
        assert solve_affine([[], []], [F(0), F(0)]) == ([], [])
        assert solve_affine([[], []], [F(0), F(1)]) is None
        assert rank([[1, 2, 3], [2, 4, 6], [F(1, 2), 0, 1]]) == 2
