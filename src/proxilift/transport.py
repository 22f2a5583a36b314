"""Exact integer min-cost transportation via successive shortest paths.

Supplies and demands are nonnegative integers with equal totals; costs are
nonnegative rationals.  Flow amounts stay integral (the transportation
polytope has integral vertices for integral margins), path costs are compared
as exact :class:`fractions.Fraction` values, so the optimum is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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
    m, n = len(supply), len(demand)
    total = sum(supply)
    if total == 0:
        return Fraction(0)

    # Node ids: 0..m-1 sources, m..m+n-1 sinks, then super source / super sink.
    src, snk = m + n, m + n + 1
    n_nodes = m + n + 2
    heads: list[int] = []
    caps: list[int] = []
    costs: list[Fraction] = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_arc(u: int, v: int, cap: int, c: Fraction) -> None:
        adj[u].append(len(heads))
        heads.append(v)
        caps.append(cap)
        costs.append(c)
        adj[v].append(len(heads))
        heads.append(u)
        caps.append(0)
        costs.append(-c)

    for i, s in enumerate(supply):
        if s:
            add_arc(src, i, s, Fraction(0))
    for j, d in enumerate(demand):
        if d:
            add_arc(m + j, snk, d, Fraction(0))
    for i in range(m):
        if supply[i] == 0:
            continue
        for j in range(n):
            if demand[j] == 0:
                continue
            c = cost[i][j]
            if c < 0:
                raise ValueError("negative transport cost")
            add_arc(i, m + j, total, c)

    sent = 0
    total_cost = Fraction(0)
    while sent < total:
        # Bellman-Ford over the residual graph (costs can be negative on
        # reverse arcs; no negative cycles exist).
        dist: list[Fraction | None] = [None] * n_nodes
        parent_arc = [-1] * n_nodes
        dist[src] = Fraction(0)
        changed = True
        while changed:
            changed = False
            for u in range(n_nodes):
                du = dist[u]
                if du is None:
                    continue
                for a in adj[u]:
                    if caps[a] <= 0:
                        continue
                    v = heads[a]
                    nd = du + costs[a]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent_arc[v] = a
                        changed = True
        if dist[snk] is None:
            raise ValueError("transportation problem infeasible")
        # Bottleneck along the shortest path, then push it.
        push = total - sent
        v = snk
        while v != src:
            a = parent_arc[v]
            push = min(push, caps[a])
            v = heads[a ^ 1]
        v = snk
        while v != src:
            a = parent_arc[v]
            caps[a] -= push
            caps[a ^ 1] += push
            v = heads[a ^ 1]
        sent += push
        total_cost += push * dist[snk]
    return total_cost
