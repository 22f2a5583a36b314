"""Exact integer min-cost transportation via successive shortest paths.

``min_cost_transport`` is the general, validating entry point: supplies and
demands are nonnegative integers with equal totals, costs are nonnegative
rationals of any shape (a metric is not required), and both pass the
exact-input gate of ``linalg``.  It scales the costs once by the lcm of their
denominators and hands the rows and columns that carry mass to ``_min_cost``,
the integer kernel, which builds no ``Fraction``.

The residual graph lives in the dense m x n flow matrix: source i reaches
sink j forward at cost c[i][j], and sink j reaches source i backward at cost
-c[i][j] while flow[i][j] > 0.  Flow amounts stay integral (the
transportation polytope has integral vertices for integral margins).

``_w1_cost`` is the Wasserstein-1 cost of an integer difference vector under
an integer metric, shared by ``spaces.w1_distance`` and the lift's W1 table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .linalg import _as_fraction, _as_int, clear_denominators


def min_cost_transport(
    supply: Sequence[int],
    demand: Sequence[int],
    cost: Sequence[Sequence[int | Fraction]],
) -> Fraction:
    """Minimum of ``sum_{ij} flow[i][j] * cost[i][j]`` over integer transport plans.

    ``flow`` ranges over nonnegative integer matrices with row sums ``supply``
    and column sums ``demand``.  Any nonnegative cost matrix is accepted;
    only the entries on rows and columns with mass are read.
    """
    supply = [_as_int(s, "supply") for s in supply]
    demand = [_as_int(d, "demand") for d in demand]
    if sum(supply) != sum(demand):
        raise ValueError("supply and demand totals differ")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("negative supply or demand")
    if sum(supply) == 0:
        return Fraction(0)
    # Only rows and columns with mass can carry flow; drop the others.
    rows = [i for i, s in enumerate(supply) if s]
    cols = [j for j, d in enumerate(demand) if d]
    c = [[_as_fraction(cost[i][j]) for j in cols] for i in rows]
    if any(x < 0 for row in c for x in row):
        raise ValueError("negative transport cost")
    c, scale = clear_denominators(c)
    total = _min_cost([supply[i] for i in rows], [demand[j] for j in cols], c)
    return Fraction(total, scale)


def _w1_cost(diff: Sequence[int], metric: Sequence[Sequence[int]]) -> int:
    """Least cost of moving the positive part of ``diff`` onto its negative part.

    For integer masses a and b with ``diff = a - b`` this is the optimal
    transport cost of a onto b when ``metric`` is a metric: the mass that a
    and b share stays in place at zero cost, because by the triangle
    inequality a plan that moves it can be rerouted, x -> y -> z becoming
    x -> z, at no extra cost (Kantorovich-Rubinstein: W1 depends on a - b
    alone).  Cost matrices without a zero diagonal and the triangle
    inequality go to ``min_cost_transport`` instead.
    """
    rows = [i for i, x in enumerate(diff) if x > 0]
    if not rows:
        return 0
    cols = [j for j, x in enumerate(diff) if x < 0]
    return _min_cost(
        [diff[i] for i in rows],
        [-diff[j] for j in cols],
        [[metric[i][j] for j in cols] for i in rows],
    )


def _min_cost(
    supply: list[int], demand: list[int], cost: list[list[int]]
) -> int:
    """The integer kernel: positive ``int`` margins with equal totals and
    nonnegative ``int`` costs; returns the least total cost."""
    # One source or one sink leaves a single plan: ship everything along it.
    if len(supply) == 1:
        return sum(map(mul, demand, cost[0]))
    if len(demand) == 1:
        return sum(s * row[0] for s, row in zip(supply, cost))
    left, need = list(supply), list(demand)
    m, n = len(left), len(need)
    flow = [[0] * n for _ in range(m)]
    total = 0
    while any(need):
        # Bellman-Ford from every source with supply left.  The flow is
        # optimal for what it carries, so no residual cycle is negative.
        row_d = [0 if s else math.inf for s in left]
        col_d = [math.inf] * n
        row_via, col_via = [-1] * m, [-1] * n
        changed = True
        while changed:
            changed = False
            for i, d in enumerate(row_d):
                for j, cij in enumerate(cost[i]):
                    if d + cij < col_d[j]:
                        col_d[j], col_via[j], changed = d + cij, i, True
            for i, (f, ci) in enumerate(zip(flow, cost)):
                for j, fij in enumerate(f):
                    if fij and col_d[j] - ci[j] < row_d[i]:
                        row_d[i], row_via[i], changed = col_d[j] - ci[j], j, True
        # Augment to the nearest sink with demand left, back to its source.
        j = min((j for j in range(n) if need[j]), key=col_d.__getitem__)
        i = col_via[j]
        forward, backward = [(i, j)], []
        while row_via[i] >= 0:
            k = row_via[i]
            backward.append((i, k))
            i = col_via[k]
            forward.append((i, k))
        push = min([left[i], need[j]] + [flow[a][b] for a, b in backward])
        for a, b in forward:
            flow[a][b] += push
        for a, b in backward:
            flow[a][b] -= push
        left[i] -= push
        need[j] -= push
        total += push * col_d[j]
    return total
