"""Spaces: metric validation, measures, distances, grid atoms, tightness."""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from proxilift import (
    ActionSystem,
    AffineVertexMap,
    Budget,
    DimensionMismatch,
    FiniteSpace,
    GridSimplex,
    Measure,
    SemigroupTable,
    SimplexModel,
    StochasticMatrix,
    Transformation,
    ValidationError,
    grid_atoms,
    lift_system,
    proximal_pair,
    psi_checks,
    pushforward,
    random_measure,
    tightness_profile,
    tv_distance,
    w1_distance,
)
from proxilift.cli import ParsedSpec, load_spec, serialize_spec
from proxilift.linalg import clear_denominators
from proxilift.spaces import _compositions, _difference, _grid_fold
from helpers import (
    brute_force_w1,
    fault_of,
    measure_fault,
    metric_fault,
    rand_grid_measure,
    rand_metric_space,
    weight_vectors,
)

F = Fraction


def three_point_path() -> FiniteSpace:
    return FiniteSpace.from_rows(
        ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )


class TestFiniteSpace:
    def test_discrete_metric_valid(self):
        sp = FiniteSpace.discrete(("x", "y", "z"))
        assert len(sp) == 3
        assert sp.metric[0][1] == 1 and sp.metric[1][1] == 0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError):
            FiniteSpace.from_rows(("a", "b"), [[0, 1], [2, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            FiniteSpace.from_rows(("a", "b"), [[1, 1], [1, 0]])

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(ValidationError):
            FiniteSpace.from_rows(("a", "b"), [[0, 0], [0, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValidationError):
            FiniteSpace.from_rows(
                ("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
            )

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            FiniteSpace.discrete(("a", "a"))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            FiniteSpace.from_rows(("a", "b"), [[0, 1, 1], [1, 0, 1]])


class TestDiscreteSpace:
    """The discrete metric is implicit but reads like the explicit 0/1 matrix."""

    @staticmethod
    def labels(m):
        return tuple(f"x{i}" for i in range(m))

    @staticmethod
    def zero_one(m):
        return tuple(tuple(F(int(i != j)) for j in range(m)) for i in range(m))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_reads_as_zero_one_matrix(self, m):
        sp = FiniteSpace.discrete(self.labels(m))
        assert sp.metric == self.zero_one(m)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_matrix_passes_the_full_validator(self, m):
        sp = FiniteSpace.discrete(self.labels(m))
        explicit = FiniteSpace(self.labels(m), sp.metric)
        assert explicit.matrix is not None
        assert explicit == sp and hash(explicit) == hash(sp)

    def test_equal_labels_equal_and_hash_equal(self):
        a = FiniteSpace.discrete(self.labels(4))
        b = FiniteSpace.discrete(list(self.labels(4)))
        assert a == b and hash(a) == hash(b)
        assert a != FiniteSpace.discrete(("x0", "x1", "x2", "y3"))
        path = FiniteSpace.from_rows(
            self.labels(3), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        assert path != FiniteSpace.discrete(self.labels(3))
        sys_a = ActionSystem.deterministic(a, [(1, 2, 3, 0)])
        sys_b = ActionSystem.deterministic(b, [(1, 2, 3, 0)])
        assert lift_system(sys_a, 2) == lift_system(sys_b, 2)

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValidationError):
            FiniteSpace.discrete(("a", "b", "a"))
        with pytest.raises(ValidationError):
            FiniteSpace.discrete(())

    def test_spec_round_trip(self, tmp_path):
        sys = ActionSystem.deterministic(
            FiniteSpace.discrete(self.labels(3)), [(1, 2, 0), (0, 0, 2)]
        )
        spec = ParsedSpec("discrete.json", "", sys, None, None, None)
        doc = serialize_spec(spec)
        assert doc["space"]["metric"] == [
            ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]
        ]
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_spec(str(path)).system == sys


class TestValidationMessages:
    """Each input check names its first fault in index order, word for word."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((), "a measure needs at least one coordinate"),
            ((1,), "measure weights must be Fractions"),
            ((F(1, 2), 0.5), "measure weights must be Fractions"),
            ((F(3, 2), F(-1, 2)), "weight 3/2 outside [0,1]"),
            ((F(1, 2), F(-1, 4), F(3, 4)), "weight -1/4 outside [0,1]"),
            ((F(1, 2), F(1, 3)), "weights sum to 5/6, not 1"),
            ((F(0), F(0)), "weights sum to 0, not 1"),
            # two faults: the first weight in index order is reported
            ((F(2), 0.5), "weight 2 outside [0,1]"),
            ((0.5, F(2)), "measure weights must be Fractions"),
            ((F(1, 2), F(-1, 2), F(3, 2)), "weight -1/2 outside [0,1]"),
        ],
    )
    def test_measure(self, weights, message):
        assert fault_of(Measure, weights) == (ValidationError, message)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1], [1, 1]], "metric diagonal must be zero at 1"),
            ([[0, 1], [2, 0]], "metric not symmetric at (0,1)"),
            ([[0, 0], [0, 0]], "distinct points 0,1 need positive distance"),
            (
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                "triangle inequality fails on (0,1,2)",
            ),
            (
                [[0, F(1, 3), F(1, 2)], [F(1, 3), 0, F(1, 7)], [F(1, 2), F(1, 7), 0]],
                "triangle inequality fails on (0,1,2)",
            ),
            # two faults: the first in the row-by-row sweep is reported
            ([[0, 1, 1], [1, 0, 2], [1, 3, 5]], "metric not symmetric at (1,2)"),
            (
                [[0, 1, 0], [1, 0, 2], [0, 3, 0]],
                "distinct points 0,2 need positive distance",
            ),
            ([[0, 1, 9], [1, 0, 1], [9, 1, 1]], "metric diagonal must be zero at 2"),
            (
                [[0, 1, 5, 1], [1, 0, 1, 1], [5, 1, 0, 9], [1, 1, 9, 0]],
                "triangle inequality fails on (0,1,2)",
            ),
        ],
    )
    def test_metric(self, rows, message):
        labels = tuple(f"p{i}" for i in range(len(rows)))
        assert fault_of(FiniteSpace.from_rows, labels, rows) == (
            ValidationError,
            message,
        )

    def test_metric_shape_and_entries(self):
        assert fault_of(FiniteSpace.from_rows, ("a", "b"), [[0, 1, 1], [1, 0]]) == (
            DimensionMismatch,
            "metric matrix must be square of size (2)",
        )
        assert fault_of(FiniteSpace, ("a", "b"), ((0, 0.5), (0.5, 0))) == (
            ValidationError,
            "expected an exact rational, got float",
        )

    def test_triangle_sweep_reaches_the_last_triple(self):
        # 40 points, every distance in [7/6, 19/12] but three: d(37,38) =
        # d(37,39) = 1 and d(38,39) = 7/3.  Only (38,37,39) and its mirror
        # (39,37,38) then break the inequality, and (38,37,39) is the last
        # triple at which any triangle can first fail: a failure at (i,j,k)
        # is also one at (k,j,i), so it shows first with i < k <= 39.
        m = 40
        rows = [
            [F(0) if i == j else F(7, 6) + F((i + j) % 6, 12) for j in range(m)]
            for i in range(m)
        ]
        for i, j, d in ((37, 38, F(1)), (37, 39, F(1)), (38, 39, F(7, 3))):
            rows[i][j] = rows[j][i] = d
        labels = tuple(f"p{i}" for i in range(m))
        assert fault_of(FiniteSpace.from_rows, labels, rows) == (
            ValidationError,
            "triangle inequality fails on (38,37,39)",
        )
        rows[38][39] = rows[39][38] = F(2)
        FiniteSpace.from_rows(labels, rows)


@st.composite
def metric_inputs(draw):
    """An L1 metric on 1-6 distinct points of Z^2 with rational axis
    weights, kept or given one fault: a diagonal entry, one asymmetric
    entry, one symmetric pair set to any rational (which may break
    positivity or the triangle inequality) or a float."""
    m = draw(st.integers(1, 6))
    pts = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    wx, wy = (F(1, draw(st.integers(1, 6))) for _ in range(2))
    rows = [
        [abs(a - c) * wx + abs(b - d) * wy for c, d in pts] for a, b in pts
    ]
    edit = draw(st.sampled_from(["none", "diagonal", "one", "pair", "float"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    value = draw(st.fractions(min_value=-1, max_value=8, max_denominator=6))
    if edit == "diagonal" or (edit == "one" and i != j):
        rows[i][j] = value
    elif edit == "pair":
        rows[i][j] = rows[j][i] = value
    elif edit == "float":
        rows[i][j] = float(rows[i][j])
    return tuple(f"p{k}" for k in range(m)), tuple(map(tuple, rows))


class TestChecksMatchFractionLoops:
    """The checks accept and reject exactly what the ``Fraction`` loops of
    the oracles do, and name the same first fault."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(weight_vectors())
    def test_measure(self, weights):
        assert fault_of(Measure, weights) == measure_fault(weights)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(metric_inputs())
    def test_metric(self, drawn):
        labels, rows = drawn
        assert fault_of(FiniteSpace, labels, rows) == metric_fault(labels, rows)


class TestMeasure:
    def test_point_mass_and_support(self):
        d = Measure.point_mass(3, 1)
        assert d.weights == (F(0), F(1), F(0))
        assert d.support() == (1,)
        assert d.is_point_mass() and d.point_of_mass() == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Measure.from_weights([F(1, 2), F(1, 3)])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Measure.from_weights([F(3, 2), F(-1, 2)])

    def test_mix_is_exact(self):
        a = Measure.point_mass(2, 0).mix(Measure.point_mass(2, 1), F(1, 3))
        assert a.weights == (F(1, 3), F(2, 3))

    def test_point_mass_rejects_non_integer_index(self):
        with pytest.raises(ValidationError, match="point index"):
            Measure.point_mass(2, 1.0)

    def test_random_measure_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            mu = random_measure(rng, rng.randint(1, 5))
            assert sum(mu.weights) == 1


class TestTv:
    def test_disjoint_supports(self):
        assert tv_distance(Measure.point_mass(2, 0), Measure.point_mass(2, 1)) == 1

    def test_identical(self):
        u = Measure.uniform(2)
        assert tv_distance(u, u) == 0

    def test_quarter_shift(self):
        mu = Measure.from_weights([F(3, 4), F(1, 4)])
        nu = Measure.from_weights([F(1, 4), F(3, 4)])
        assert tv_distance(mu, nu) == F(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(Measure.uniform(2), Measure.uniform(3))


class TestW1:
    def test_endpoint_transport(self):
        sp = three_point_path()
        assert w1_distance(sp, Measure.point_mass(3, 0), Measure.point_mass(3, 2)) == 2

    def test_identity_coupling(self):
        sp = three_point_path()
        mu = Measure.from_weights([F(1, 6), F(1, 2), F(1, 3)])
        assert w1_distance(sp, mu, mu) == 0

    def test_half_shift(self):
        sp = three_point_path()
        mu = Measure.from_weights([F(1, 2), F(1, 2), 0])
        nu = Measure.from_weights([0, F(1, 2), F(1, 2)])
        assert w1_distance(sp, mu, nu) == 1

    def test_matches_brute_force_couplings(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(2, 4)
            sp = rand_metric_space(rng, m)
            q = rng.randint(1, 4)
            mu = rand_grid_measure(rng, m, q)
            nu = rand_grid_measure(rng, m, q)
            assert w1_distance(sp, mu, nu) == brute_force_w1(sp.metric, mu, nu)

    def test_equals_tv_on_discrete_space(self):
        rng = random.Random(13)
        sp = FiniteSpace.discrete(("a", "b", "c", "d"))
        for _ in range(30):
            mu = random_measure(rng, 4)
            nu = random_measure(rng, 4)
            assert w1_distance(sp, mu, nu) == tv_distance(mu, nu)

    def test_metric_axioms_exact(self):
        rng = random.Random(17)
        for _ in range(40):
            m = rng.randint(2, 4)
            sp = rand_metric_space(rng, m)
            mu, nu, rho = (random_measure(rng, m) for _ in range(3))
            dxy = w1_distance(sp, mu, nu)
            assert dxy >= 0
            assert dxy == w1_distance(sp, nu, mu)
            assert (dxy == 0) == (mu == nu)
            assert dxy <= w1_distance(sp, mu, rho) + w1_distance(sp, rho, nu)


class TestGridAtoms:
    def test_two_points_resolution_two(self):
        atoms = set(grid_atoms(2, 2))
        assert atoms == {
            Measure.from_weights([1, 0]),
            Measure.from_weights([F(1, 2), F(1, 2)]),
            Measure.from_weights([0, 1]),
        }

    def test_resolution_one_gives_vertices(self):
        assert set(grid_atoms(3, 1)) == {Measure.point_mass(3, i) for i in range(3)}

    def test_stars_and_bars_count(self):
        assert len(grid_atoms(3, 3)) == 10
        for m in range(1, 5):
            for q in range(1, 5):
                assert len(grid_atoms(m, q)) == math.comb(q + m - 1, m - 1)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_compositions_match_brute_force(self, m):
        # Every vector in 0..q summing to q, in product's lexicographic order.
        for q in range(7):
            want = [c for c in product(range(q + 1), repeat=m) if sum(c) == q]
            assert _compositions(m, q) == want

    @pytest.mark.parametrize("m", range(1, 6))
    def test_one_fold_serves_every_resolution(self, m):
        # One fold at several resolutions gives each resolution's
        # compositions, in the order asked, from pieces for 0..top.
        for resolutions in ([1, 2, 3], [1, 2, 3, 6], [4], [5, 1], [2, 2]):
            top = max(resolutions)
            parts = [[(a,) for a in range(top + 1)]] * m
            want = [
                [c for c in product(range(q + 1), repeat=m) if sum(c) == q]
                for q in resolutions
            ]
            assert _grid_fold(parts, resolutions) == want

    def test_order_is_lexicographic_on_numerators(self):
        atoms = grid_atoms(2, 2)
        nums = [tuple(int(w * 2) for w in a.weights) for a in atoms]
        assert nums == sorted(nums)

    def test_grid_simplex_index(self):
        grid = GridSimplex.build(FiniteSpace.discrete(("a", "b", "c")), 2)
        assert len(grid) == 6
        for i, atom in enumerate(grid.atoms):
            assert grid.atom_index(atom) == i
        assert grid.atoms[grid.vertex_index(1)] == Measure.point_mass(3, 1)
        with pytest.raises(ValidationError):
            grid.atom_index(Measure.from_weights([F(1, 3), F(1, 3), F(1, 3)]))
        for wrong_length in ([1, 0], [F(1, 2), 0, 0, F(1, 2)]):
            with pytest.raises(ValidationError):
                grid.atom_index(Measure.from_weights(wrong_length))


class TestTightness:
    def test_constant_point_mass(self):
        seq = [Measure.point_mass(3, 0)] * 4
        assert tightness_profile(seq, [[0], [0, 1]]) == [1, 1]

    def test_alternating_misses(self):
        seq = [Measure.point_mass(2, 0), Measure.point_mass(2, 1)]
        assert tightness_profile(seq, [[0]]) == [0]

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValidationError):
            tightness_profile([], [[0]])

    def test_rejects_non_nested_sets(self):
        seq = [Measure.uniform(3)]
        with pytest.raises(ValidationError):
            tightness_profile(seq, [[0, 1], [1, 2]])


def _gate_cases():
    ab = FiniteSpace.discrete(("a", "b"))
    sys2 = ActionSystem.deterministic(ab, [(0, 1), (1, 0)])
    b = Budget()
    # Each entry point with one exact slot x; every case is valid at x = 1
    # (the epsilon case at x = 1/2), and a float or a bool there must raise.
    return {
        "Transformation": lambda x: Transformation((0, x)),
        "ActionSystem.deterministic": lambda x: ActionSystem.deterministic(
            ab, [(x, 0)]
        ),
        "pushforward word": lambda x: pushforward(
            sys2, (0, x), Measure.point_mass(2, 0)
        ),
        "word_transformation": lambda x: sys2.word_transformation((x,)),
        "SemigroupTable": lambda x: SemigroupTable(((0, x), (x, 0))),
        "from_vertex_images": lambda x: AffineVertexMap.from_vertex_images(
            [0, x], 2
        ),
        "proximal_pair": lambda x: proximal_pair(sys2, 0, x, b),
        "point_mass": lambda x: Measure.point_mass(2, x),
        "tightness_profile": lambda x: tightness_profile(
            [Measure.uniform(2)], [[0, x]]
        ),
        "grid_atoms size": lambda x: grid_atoms(x, 2),
        "grid_atoms resolution": lambda x: grid_atoms(2, x),
        "GridSimplex": lambda x: GridSimplex.build(ab, x),
        "lift_system": lambda x: lift_system(sys2, x),
        "random_measure": lambda x: random_measure(random.Random(0), x),
        "psi_checks trials": lambda x: psi_checks(sys2, 2, x, 0),
        "Budget.max_word_len": lambda x: Budget(max_word_len=x),
        "Budget.max_closure": lambda x: Budget(max_closure=x),
        "Budget.epsilon": (lambda x: Budget(epsilon=x), F(1, 2)),
        "FiniteSpace": lambda x: FiniteSpace(("a", "b"), ((0, x), (x, 0))),
        "FiniteSpace.from_rows": lambda x: FiniteSpace.from_rows(
            ("a", "b"), [[0, x], [x, 0]]
        ),
        "SimplexModel": lambda x: SimplexModel(((x, 0), (0, 1))),
        "SimplexModel.from_rows": lambda x: SimplexModel.from_rows(
            [[x, 0], [0, 1]]
        ),
        "StochasticMatrix.from_rows": lambda x: StochasticMatrix.from_rows(
            [[x, 0], [0, x]]
        ),
        "Measure.from_weights": lambda x: Measure.from_weights([x, 0]),
    }


GATE_CASES = _gate_cases()


class TestExactInputGate:
    @staticmethod
    def case(name):
        build = GATE_CASES[name]
        return build if isinstance(build, tuple) else (build, 1)

    @pytest.mark.parametrize("name", list(GATE_CASES))
    def test_exact_value_accepted(self, name):
        build, good = self.case(name)
        build(good)

    @pytest.mark.parametrize("inexact", [float, bool], ids=["float", "bool"])
    @pytest.mark.parametrize("name", list(GATE_CASES))
    def test_float_and_bool_rejected(self, name, inexact):
        build, good = self.case(name)
        with pytest.raises(ValidationError):
            build(inexact(good))


class TestClearDenominators:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.fractions(max_denominator=60), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    def test_integers_over_lcm_give_back_every_entry(self, rows):
        ints, den = clear_denominators(rows)
        assert den == math.lcm(*(x.denominator for row in rows for x in row))
        assert [[Fraction(a, den) for a in row] for row in ints] == rows
        assert all(type(a) is int for row in ints for a in row)


@st.composite
def mixed_measures(draw, size=None):
    """A measure on 1-6 (or ``size``) points whose weights, reduced, have
    mixed denominators."""
    n = draw(st.integers(1, 6)) if size is None else size
    counts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    if not any(counts):
        counts[draw(st.integers(0, n - 1))] = 1
    return Measure(tuple(Fraction(c, sum(counts)) for c in counts))


class TestClearedForms:
    """The integer form each exact input keeps from its validation."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_measures())
    def test_measure_keeps_its_cleared_weights(self, mu):
        (nums,), den = clear_denominators((mu.weights,))
        assert mu.cleared == (tuple(nums), den)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_measures())
    def test_equal_measures_by_other_paths_compare_hash_and_print_alike(self, mu):
        ints = [int(w) if w.denominator == 1 else w for w in mu.weights]
        m = len(mu)
        identity = ActionSystem.deterministic(
            FiniteSpace.discrete(tuple(f"x{i}" for i in range(m))), [range(m)]
        )
        for nu in (
            Measure.from_weights(ints),
            mu.mix(mu, F(1, 3)),
            pushforward(identity, (0,), mu),
        ):
            assert nu == mu and hash(nu) == hash(mu) and repr(nu) == repr(mu)
            assert nu.cleared == mu.cleared
        assert "cleared" not in repr(mu)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(mixed_measures(n), mixed_measures(n))
    ))
    def test_difference_is_the_cleared_pair(self, pair):
        mu, nu = pair
        (a, b), den = clear_denominators((mu.weights, nu.weights))
        assert _difference(mu, nu) == ([x - y for x, y in zip(a, b)], den)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.sampled_from([None, (1, 2), (2, 3, 5)]),
    )
    def test_explicit_space_keeps_its_cleared_metric(self, seed, m, dens):
        space = rand_metric_space(random.Random(seed), m, dens)
        rows, den = clear_denominators(space.metric)
        assert space.cleared == (tuple(map(tuple, rows)), den)
        ints = [[int(d) if d.denominator == 1 else d for d in row] for row in space.metric]
        again = FiniteSpace.from_rows(space.labels, ints)
        assert again == space and hash(again) == hash(space)
        assert repr(again) == repr(space) and again.cleared == space.cleared
        assert "cleared" not in repr(space)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.booleans())
    def test_discrete_space_builds_the_zero_one_form(self, m, read_first):
        labels = tuple(f"x{i}" for i in range(m))
        discrete = FiniteSpace.discrete(labels)
        before = repr(discrete)
        if read_first:
            discrete.metric
        explicit = FiniteSpace.from_rows(
            labels, [[int(i != j) for j in range(m)] for i in range(m)]
        )
        rows, den = clear_denominators(discrete.metric)
        assert discrete.cleared == explicit.cleared == (tuple(map(tuple, rows)), den)
        assert discrete == explicit and hash(discrete) == hash(explicit)
        # reading the lazy forms leaves the repr as it was
        assert repr(discrete) == before == repr(FiniteSpace.discrete(labels))
