"""Transport: the exact min-cost solver against enumeration of every plan."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proxilift import Measure, ValidationError, w1_distance
from proxilift.transport import min_cost_transport
from helpers import (
    brute_force_transport,
    brute_force_w1,
    rand_grid_measure,
    rand_metric_space,
)

F = Fraction


def rand_margins(rng: random.Random, k: int, total: int) -> list[int]:
    """k nonnegative integers summing to total (zeros are common)."""
    return [int(w * total) for w in rand_grid_measure(rng, k, total).weights]


def rand_costs(rng: random.Random, m: int, n: int, dens=(1,)) -> list[list[Fraction]]:
    return [
        [F(rng.randint(0, 12), rng.choice(dens)) for _ in range(n)]
        for _ in range(m)
    ]


def check(supply, demand, cost) -> Fraction:
    got = min_cost_transport(supply, demand, cost)
    assert isinstance(got, Fraction)
    assert got == brute_force_transport(supply, demand, cost)
    return got


class TestMinCostTransport:
    def test_rectangular(self):
        rng = random.Random(31)
        for _ in range(60):
            m, n = rng.sample(range(1, 5), 2)
            total = rng.randint(1, 6)
            supply, demand = rand_margins(rng, m, total), rand_margins(rng, n, total)
            check(supply, demand, rand_costs(rng, m, n))

    def test_mixed_denominators(self):
        rng = random.Random(37)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            total = rng.randint(1, 6)
            supply, demand = rand_margins(rng, m, total), rand_margins(rng, n, total)
            check(supply, demand, rand_costs(rng, m, n, dens=(1, 2, 3, 5, 7, 12)))

    def test_non_metric_costs(self):
        # Asymmetric, nonzero diagonal, triangle inequality broken.
        cost = [[F(5), F(1), F(9)], [F(0), F(7), F(1, 3)], [F(2), F(8), F(4)]]
        assert check([2, 1, 1], [1, 2, 1], cost) == F(13, 3)
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(2, 4)
            total = rng.randint(1, 6)
            supply, demand = rand_margins(rng, m, total), rand_margins(rng, m, total)
            check(supply, demand, rand_costs(rng, m, m, dens=(1, 4)))

    def test_zero_rows_and_columns(self):
        cost = [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]]
        assert check([0, 3, 0], [1, 0, 2], cost) == F(16)
        # A negative cost is read only on arcs that can carry flow.
        cost = [[F(-1), F(-1)], [F(-1), F(2)]]
        assert min_cost_transport([0, 2], [0, 2], cost) == 4

    def test_zero_total(self):
        assert min_cost_transport([0, 0], [0, 0, 0], [[F(-1)] * 3] * 2) == 0
        assert min_cost_transport([], [], []) == 0

    def test_totals_differ(self):
        with pytest.raises(ValueError, match="totals differ"):
            min_cost_transport([1, 2], [2, 2], [[F(0)] * 2] * 2)

    def test_negative_margin(self):
        with pytest.raises(ValueError, match="negative supply or demand"):
            min_cost_transport([-1, 2], [1], [[F(0)], [F(0)]])
        # The totals are compared first.
        with pytest.raises(ValueError, match="totals differ"):
            min_cost_transport([-1], [0], [[F(0)]])

    def test_negative_cost(self):
        with pytest.raises(ValueError, match="negative transport cost"):
            min_cost_transport([1, 1], [2], [[F(1)], [F(-1, 2)]])

    def test_bool_supply_refused(self):
        # Python would read True as 1 and return a cost.
        with pytest.raises(ValidationError, match="supply must be an integer, got bool"):
            min_cost_transport([True, 1], [2], [[F(1)], [F(1)]])

    def test_float_supply_refused(self):
        with pytest.raises(ValidationError, match="supply must be an integer, got float"):
            min_cost_transport([1.0], [1], [[F(1)]])
        with pytest.raises(ValidationError, match="demand must be an integer, got float"):
            min_cost_transport([1], [1.0], [[F(1)]])

    def test_float_cost_refused(self):
        with pytest.raises(ValidationError, match="exact rational, got float"):
            min_cost_transport([1, 1], [2], [[F(1)], [0.5]])


@st.composite
def shared_mass(draw):
    """An L1 metric on 1-4 points (integer or rational), margins a and b with
    one small total, and a common mass c."""
    m = draw(st.integers(1, 4))
    dens = draw(st.sampled_from([None, (2, 3, 5, 12)]))
    space = rand_metric_space(random.Random(draw(st.integers(0, 2**16))), m, dens)
    total = draw(st.integers(0, 3))

    def margin():
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    c = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    return space, margin(), margin(), c


class TestSharedMassCancels:
    """Under a metric cost the mass two margins share never moves, which is
    what lets ``w1_distance`` and the lift's W1 table transport only the
    difference of two measures."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shared_mass())
    def test_shared_mass_cancels(self, case):
        space, a, b, c = case
        d = space.metric
        ac, bc = [x + y for x, y in zip(a, c)], [x + y for x, y in zip(b, c)]
        got = min_cost_transport(ac, bc, d)
        assert got == min_cost_transport(a, b, d) == brute_force_transport(ac, bc, d)
        total = sum(ac)
        if total:
            mu = Measure(tuple(F(x, total) for x in ac))
            nu = Measure(tuple(F(x, total) for x in bc))
            assert w1_distance(space, mu, nu) == brute_force_w1(d, mu, nu) == got / total
