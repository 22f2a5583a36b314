"""Actions: pushforward, convolution, contraction coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proxilift import (
    ActionSystem,
    DimensionMismatch,
    FiniteSpace,
    Kind,
    Measure,
    SemigroupTable,
    StochasticMatrix,
    Transformation,
    ValidationError,
    convolution,
    dobrushin,
    pushforward,
    tv_distance,
)
from proxilift.actions import _word_rows
from proxilift.linalg import clear_denominators
from helpers import (
    fault_of,
    fraction_dobrushin,
    fraction_word_matrix,
    rand_det_system,
    rand_measure,
    rand_sparse_stochastic_system,
    rand_stochastic,
    stochastic_fault,
    weight_vectors,
)

F = Fraction


def det_system(*images):
    m = len(images[0])
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.deterministic(space, images)


class TestTransformation:
    def test_composition_is_left_to_right(self):
        # first send everything to 1, then swap: the composite is constant 0.
        const1 = Transformation((1, 1))
        swap = Transformation((1, 0))
        assert const1.then(swap).image == (0, 0)
        assert swap.then(const1).image == (1, 1)

    def test_predicates(self):
        assert Transformation((2, 2, 2)).is_constant()
        assert Transformation((1, 2, 0)).is_permutation()
        assert not Transformation((0, 0, 1)).is_permutation()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Transformation((0, 3, 1))


class TestStochasticMatrix:
    def test_row_sums_enforced(self):
        with pytest.raises(ValidationError):
            StochasticMatrix.from_rows([[F(1, 2), F(1, 3)], [0, 1]])

    def test_float_entries_rejected(self):
        # These floats are exact binary fractions whose rows sum to 1.
        with pytest.raises(ValidationError, match="exact rational"):
            StochasticMatrix.from_rows([[0.5, 0.5], [0.25, 0.75]])

    def test_deterministic_embedding_round_trip(self):
        t = Transformation((2, 0, 1))
        s = StochasticMatrix.from_transformation(t)
        assert s.is_deterministic()
        assert s.to_transformation() == t

    def test_product_matches_composition(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b = rand_stochastic(rng, 3), rand_stochastic(rng, 3)
            mu = rand_measure(rng, 3)
            sp = FiniteSpace.discrete(("x", "y", "z"))
            sys_ab = ActionSystem.stochastic(sp, [a, b])
            via_word = pushforward(sys_ab, (0, 1), mu)
            via_product = pushforward(
                ActionSystem.stochastic(sp, [a.then(b)]), (0,), mu
            )
            assert via_word == via_product


class TestPushforward:
    def test_constant_map_collects_all_mass(self):
        sys = det_system((0, 0))
        mu = Measure.from_weights([F(1, 2), F(1, 2)])
        assert pushforward(sys, (0,), mu) == Measure.from_weights([1, 0])

    def test_empty_word_is_identity(self):
        sys = det_system((1, 0))
        mu = Measure.from_weights([F(2, 7), F(5, 7)])
        assert pushforward(sys, (), mu) == mu

    def test_swap_transposes_weights(self):
        sys = det_system((1, 0))
        mu = Measure.from_weights([F(3, 4), F(1, 4)])
        assert pushforward(sys, (0,), mu) == Measure.from_weights([F(1, 4), F(3, 4)])

    def test_concatenation_composes(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(2, 5)
            sys = rand_det_system(rng, m)
            k = len(sys.generators)
            w1 = tuple(rng.randrange(k) for _ in range(rng.randint(0, 4)))
            w2 = tuple(rng.randrange(k) for _ in range(rng.randint(0, 4)))
            mu = rand_measure(rng, m)
            assert pushforward(sys, w1 + w2, mu) == pushforward(
                sys, w2, pushforward(sys, w1, mu)
            )

    def test_affine_in_the_measure(self):
        rng = random.Random(6)
        for _ in range(30):
            m = rng.randint(2, 4)
            sys = rand_det_system(rng, m)
            k = len(sys.generators)
            w = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
            mu, nu = rand_measure(rng, m), rand_measure(rng, m)
            a = F(rng.randint(0, 6), 6)
            assert pushforward(sys, w, mu.mix(nu, a)) == pushforward(
                sys, w, mu
            ).mix(pushforward(sys, w, nu), a)

    def test_grid_atoms_stay_on_grid(self):
        from proxilift import grid_atoms

        rng = random.Random(7)
        sys = rand_det_system(rng, 3)
        atoms = set(grid_atoms(3, 2))
        for atom in atoms:
            for gi in range(len(sys.generators)):
                assert pushforward(sys, (gi,), atom) in atoms


class TestConvolution:
    def test_left_zero_returns_left_factor(self):
        t = SemigroupTable.left_zero(3)
        rng = random.Random(10)
        for _ in range(10):
            mu, nu = rand_measure(rng, 3), rand_measure(rng, 3)
            assert convolution(t, mu, nu) == mu

    def test_z2_translation(self):
        t = SemigroupTable.cyclic(2)
        d1 = Measure.point_mass(2, 1)
        assert convolution(t, d1, d1) == Measure.point_mass(2, 0)

    def test_z2_uniform_absorbs(self):
        t = SemigroupTable.cyclic(2)
        u = Measure.uniform(2)
        rng = random.Random(11)
        for _ in range(10):
            nu = rand_measure(rng, 2)
            assert convolution(t, u, nu) == u

    def test_associativity_of_convolution(self):
        rng = random.Random(12)
        for table in (SemigroupTable.cyclic(3), SemigroupTable.left_zero(3)):
            for _ in range(10):
                a, b, c = (rand_measure(rng, 3) for _ in range(3))
                assert convolution(table, convolution(table, a, b), c) == (
                    convolution(table, a, convolution(table, b, c))
                )

    def test_rejects_non_associative_table(self):
        # NAND on {0,1}: (0.0).1 = 0 but 0.(0.1) = 1.
        with pytest.raises(ValidationError):
            SemigroupTable(((1, 0), (0, 0)))


@st.composite
def stochastic_inputs(draw):
    """A stochastic matrix on 1-5 points, each row kept or given one fault
    (see ``weight_vectors``), now and then one row of the wrong length."""
    m = draw(st.integers(1, 5))
    short, step = draw(st.integers(0, 3 * m)), draw(st.sampled_from([-1, 1]))
    return tuple(
        draw(weight_vectors(m + step if r == short else m)) for r in range(m)
    )


@st.composite
def stochastic_matrices(draw):
    """A valid stochastic matrix on 1-6 points, rows over mixed
    denominators, dense or with zeros."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    return rand_stochastic(rng, m, draw(st.sampled_from([1, 2, 8, 30])))


class TestDobrushin:
    def test_identity_matrix(self):
        ident = StochasticMatrix.from_rows([[1, 0], [0, 1]])
        assert dobrushin(ident) == 1

    def test_rank_one(self):
        s = StochasticMatrix.from_rows([[1, 0], [1, 0]])
        assert dobrushin(s) == 0

    def test_lazy_chain_half(self):
        s = StochasticMatrix.from_rows(
            [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
        )
        assert dobrushin(s) == F(1, 2)

    def test_contraction_inequality(self):
        rng = random.Random(13)
        sp3 = FiniteSpace.discrete(("a", "b", "c"))
        for _ in range(60):
            s = rand_stochastic(rng, 3)
            mu, nu = rand_measure(rng, 3), rand_measure(rng, 3)
            sys = ActionSystem.stochastic(sp3, [s])
            pushed = tv_distance(
                pushforward(sys, (0,), mu), pushforward(sys, (0,), nu)
            )
            assert pushed <= dobrushin(s) * tv_distance(mu, nu)

    def test_submultiplicative(self):
        rng = random.Random(14)
        for _ in range(60):
            a, b = rand_stochastic(rng, 3), rand_stochastic(rng, 3)
            assert dobrushin(a.then(b)) <= dobrushin(a) * dobrushin(b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stochastic_matrices())
    def test_matches_fraction_loop(self, s):
        assert dobrushin(s) == fraction_dobrushin(s)


@st.composite
def word_systems(draw):
    """A deterministic system on 1-5 points, the same as 0/1 stochastic
    matrices, or a general stochastic system on 2-5 points, sparse or
    dense; with a word of 0-12 letters."""
    kind = draw(st.sampled_from(["det", "zero-one", "sparse", "dense"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1 if kind in ("det", "zero-one") else 2, 5))
    if kind == "sparse":
        sys = rand_sparse_stochastic_system(rng, m)
    elif kind == "dense":
        space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
        gens = [rand_stochastic(rng, m) for _ in range(draw(st.integers(1, 3)))]
        sys = ActionSystem.stochastic(space, gens)
    else:
        sys = rand_det_system(rng, m)
        if kind == "zero-one":
            gens = [StochasticMatrix.from_transformation(g) for g in sys.generators]
            sys = ActionSystem.stochastic(sys.space, gens)
    letter = st.integers(0, len(sys.generators) - 1)
    return sys, tuple(draw(st.lists(letter, max_size=12)))


class TestWordMatrix:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(word_systems())
    def test_matches_fraction_fold(self, drawn):
        sys, word = drawn
        assert sys.word_matrix(word) == fraction_word_matrix(sys, word)


class TestClearedRows:
    """The integer rows a matrix keeps from its validation."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stochastic_matrices())
    def test_cleared_form_is_the_cleared_entries(self, s):
        rows, den = clear_denominators(s.rows)
        assert s.cleared == (tuple(map(tuple, rows)), den)
        assert all(type(a) is int for row in s.cleared[0] for a in row)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stochastic_matrices())
    def test_equal_matrices_by_other_paths_compare_hash_and_print_alike(self, s):
        m = len(s)
        space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
        ints = [[int(p) if p.denominator == 1 else p for p in row] for row in s.rows]
        others = [
            StochasticMatrix.from_rows(ints),
            s.then(StochasticMatrix.from_transformation(Transformation.identity(m))),
            ActionSystem.stochastic(space, [s]).word_matrix((0,)),
        ]
        for t in others:
            assert t == s and hash(t) == hash(s) and repr(t) == repr(s)
            assert t.cleared == s.cleared
        assert "cleared" not in repr(s)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(word_systems())
    def test_word_rows_kernel_matches_fraction_fold(self, drawn):
        sys, word = drawn
        rows, den = _word_rows(sys.generators, len(sys.space), word)
        want = fraction_word_matrix(sys, word).rows
        assert tuple(tuple(F(p, den) for p in row) for row in rows) == want

    def test_a_matrix_over_a_larger_denominator_is_not_deterministic(self):
        lazy = StochasticMatrix.from_rows([[F(1, 2), F(1, 2)], [0, 1]])
        assert not lazy.is_deterministic()
        with pytest.raises(ValidationError, match="non 0/1"):
            lazy.to_transformation()


class TestStochasticValidation:
    """The first fault of a matrix in row order, with its row's message."""

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ((), (ValidationError, "empty stochastic matrix")),
            (
                ((F(1),), (F(1),)),
                (DimensionMismatch, "stochastic matrix must be square (2)"),
            ),
            (
                ((F(1), F(0)), (F(1, 2), F(1, 3))),
                (ValidationError, "weights sum to 5/6, not 1"),
            ),
            (
                ((F(1), F(0)), (F(3, 2), F(-1, 2))),
                (ValidationError, "weight 3/2 outside [0,1]"),
            ),
            (((1, 0), (0, 1)), (ValidationError, "measure weights must be Fractions")),
            # two faults: the row reached first decides the message
            (
                ((F(1, 2), F(1, 3)), (F(1),)),
                (ValidationError, "weights sum to 5/6, not 1"),
            ),
            (
                ((F(1),), (F(1, 2), F(1, 3))),
                (DimensionMismatch, "stochastic matrix must be square (2)"),
            ),
            (
                ((F(1), F(0)), (F(2), F(-1)), (F(1, 2), F(1, 3))),
                (DimensionMismatch, "stochastic matrix must be square (3)"),
            ),
            (
                ((F(1), F(0), F(0)), (F(2), F(-1), F(0)), (F(1, 2), F(1, 3), F(0))),
                (ValidationError, "weight 2 outside [0,1]"),
            ),
        ],
    )
    def test_first_fault_reported(self, rows, fault):
        assert fault_of(StochasticMatrix, rows) == fault

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stochastic_inputs())
    def test_matches_fraction_loop(self, rows):
        assert fault_of(StochasticMatrix, rows) == stochastic_fault(rows)


class TestSystemValidation:
    def test_kind_mismatch_rejected(self):
        sp = FiniteSpace.discrete(("a", "b"))
        with pytest.raises(ValidationError):
            ActionSystem(sp, Kind.DETERMINISTIC, (rand_stochastic(random.Random(0), 2),))

    def test_word_letters_checked(self):
        sys = det_system((0, 1))
        with pytest.raises(ValidationError):
            pushforward(sys, (1,), Measure.uniform(2))
