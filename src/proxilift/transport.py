"""Exact integer min-cost transportation via successive shortest paths.

Supplies and demands are nonnegative integers with equal totals; costs are
nonnegative rationals, scaled once by the lcm of their denominators so that
every path length is an ``int`` and the optimum is exact.  The residual graph
lives in the dense m x n flow matrix: source i reaches sink j forward at cost
c[i][j], and sink j reaches source i backward at cost -c[i][j] while
flow[i][j] > 0.  Flow amounts stay integral (the transportation polytope has
integral vertices for integral margins).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .linalg import clear_denominators


def min_cost_transport(
    supply: Sequence[int],
    demand: Sequence[int],
    cost: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Minimum of ``sum_{ij} flow[i][j] * cost[i][j]`` over integer transport plans.

    ``flow`` ranges over nonnegative integer matrices with row sums ``supply``
    and column sums ``demand``.
    """
    if sum(supply) != sum(demand):
        raise ValueError("supply and demand totals differ")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("negative supply or demand")
    if sum(supply) == 0:
        return Fraction(0)
    # Only rows and columns with mass can carry flow; drop the others.
    rows = [i for i, s in enumerate(supply) if s]
    cols = [j for j, d in enumerate(demand) if d]
    c = [[cost[i][j] for j in cols] for i in rows]
    if any(x < 0 for row in c for x in row):
        raise ValueError("negative transport cost")
    c, scale = clear_denominators(c)
    left, need = [supply[i] for i in rows], [demand[j] for j in cols]
    m, n = len(rows), len(cols)
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
                for j, cij in enumerate(c[i]):
                    if d + cij < col_d[j]:
                        col_d[j], col_via[j], changed = d + cij, i, True
            for i, (f, ci) in enumerate(zip(flow, c)):
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
    return Fraction(total, scale)
