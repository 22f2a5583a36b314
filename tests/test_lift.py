"""Lifted systems, the barycenter laws, harnesses, invariant meta-measures."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import proxilift.lift as lift_module
import proxilift.transport as transport_module
from proxilift import (
    ActionSystem,
    Budget,
    CorollaryReport,
    FiniteSpace,
    GridSimplex,
    HarnessMode,
    HarnessReport,
    HarnessRow,
    LiftedSystem,
    Measure,
    SemigroupTable,
    Status,
    StochasticMatrix,
    Transformation,
    UnsupportedKind,
    ValidationError,
    Verdict,
    barycenter,
    equivalence_harness,
    invariant_metas,
    lift_system,
    meta_is_vertex_point_mass,
    psi_checks,
    psi_homomorphism_check,
    push_meta,
    pushforward,
    strongly_proximal,
    reset_word,
)
from helpers import (
    brute_force_w1,
    fraction_psi_checks,
    fraction_psi_homomorphism,
    polytope_oracle,
    rand_det_system,
    rand_measure,
    rand_metric_space,
)

F = Fraction
B = Budget()


def det_system(*images):
    m = len(images[0])
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.deterministic(space, images)


def cerny4():
    return det_system((1, 2, 3, 0), (1, 1, 2, 3))


class TestLiftSystem:
    def test_constant_map_lifts_to_constant(self):
        sys = det_system((0, 0))
        lifted = lift_system(sys, 2)
        target = lifted.grid.atom_index(Measure.from_weights([1, 0]))
        assert lifted.generators[0].image == (target,) * 3

    def test_identity_lifts_to_identity(self):
        sys = det_system((0, 1, 2))
        lifted = lift_system(sys, 3)
        n = len(lifted.grid.atoms)
        assert lifted.generators[0].image == tuple(range(n))

    def test_atom_maps_commute_with_pushforward(self):
        rng = random.Random(41)
        for t in range(60):
            m = rng.randint(1, 5)
            if t % 2:
                base = rand_metric_space(rng, m)
            else:
                base = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
            images = [
                tuple(rng.randrange(m) for _ in range(m))
                for _ in range(rng.randint(1, 3))
            ]
            sys = ActionSystem.deterministic(base, images)
            q = rng.randint(1, 4)
            lifted = lift_system(sys, q)
            grid = lifted.grid
            assert grid == GridSimplex.build(base, q)
            assert lifted.generators == tuple(
                Transformation(
                    tuple(
                        grid.atom_index(pushforward(sys, (gi,), atom))
                        for atom in grid.atoms
                    )
                )
                for gi in range(len(images))
            )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_generators_match_push_loop(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        q = data.draw(st.integers(1, 5), label="q")
        point = st.integers(0, m - 1)
        letter = st.one_of(
            point.map(lambda target: (target,) * m),
            st.permutations(range(m)).map(tuple),
            st.lists(point, min_size=m, max_size=m).map(tuple),
        )
        sys = det_system(*data.draw(st.lists(letter, min_size=1, max_size=3)))
        assert lift_system(sys, q).generators == helpers.push_loop_lift(sys, q)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_one_fold_lifts_equal_single_lifts(self, m):
        # The harness lifts {1, 2, 3, q} from one fold with keys in base
        # top + 1; each lift must be the one-resolution lift, and the
        # per-atom push loop, at every q <= 6 (top 3 for q = 1 and 2).
        rng = random.Random(m)
        cycle = tuple((i + 1) % m for i in range(m))
        merge = (min(1, m - 1),) + tuple(range(1, m))
        randoms = tuple(tuple(rng.randrange(m) for _ in range(m)) for _ in range(2))
        for sys in (det_system(cycle, merge), det_system(*randoms)):
            single = {r: lift_system(sys, r) for r in range(1, 7)}
            for r, lifted in single.items():
                assert lifted.generators == helpers.push_loop_lift(sys, r)
            for q in range(1, 7):
                for resolutions in (sorted({1, 2, 3, q}), [q], [q, 1]):
                    lifts = lift_module._lift_systems(sys, resolutions)
                    assert len(lifts) == len(resolutions)
                    for r, lifted in zip(resolutions, lifts):
                        want = single[r]
                        assert lifted.generators == want.generators
                        assert lifted.grid == want.grid == GridSimplex(sys.space, r)
                        assert len(lifted) == len(want) == len(want.grid)
                        assert lifted == want

    @pytest.mark.parametrize("m, q", [(1, 3), (3, 2), (5, 4)])
    def test_atom_labels(self, m, q):
        lifted = lift_system(det_system(tuple(range(m))), q)
        comps = [c for c in product(range(q + 1), repeat=m) if sum(c) == q]
        labels = lifted.atom_space.labels
        assert labels == tuple(f"({','.join(map(str, c))})" for c in comps)
        assert labels[-1] == "(" + ",".join([str(q)] + ["0"] * (m - 1)) + ")"

    def test_sizes_fold_no_compositions(self):
        for m in range(1, 7):
            for q in range(1, 7):
                lifted = lift_system(det_system(tuple(range(1, m)) + (0,)), q)
                grid = lifted.grid
                assert len(grid) == len(lifted) == len(lifted.atom_space)
                assert "compositions" not in vars(grid)
                assert len(grid) == len(grid.compositions), (m, q)

    @pytest.mark.parametrize("m, q", [(1, 3), (3, 2), (5, 4)])
    def test_atom_space_builds_labels_on_first_read(self, m, q, monkeypatch):
        builds = []
        real = lift_module._atom_labels

        def counting(grid):
            builds.append(grid.resolution)
            return real(grid)

        monkeypatch.setattr(lift_module, "_atom_labels", counting)
        lifted = lift_system(det_system(tuple(range(m))), q)
        space = lifted.system.space
        assert space is lifted.atom_space
        assert len(space) == len(lifted) and builds == []
        labels = space.labels
        assert builds == [q]
        assert labels == tuple(real(lifted.grid))
        plain = FiniteSpace.discrete(labels)
        assert space == plain and plain == space
        assert hash(space) == hash(plain)
        assert repr(space) == repr(plain)
        assert space.metric == plain.metric and space.cleared == plain.cleared
        assert space != FiniteSpace.discrete(("other",) + labels[1:])
        assert builds == [q]

    def test_repeated_atom_label_raises_on_read(self, monkeypatch):
        monkeypatch.setattr(
            lift_module, "_atom_labels", lambda grid: ["(0,2)"] * len(grid)
        )
        lifted = lift_system(det_system((1, 0)), 2)
        assert strongly_proximal(lifted.system, B).status is Status.NO
        with pytest.raises(ValidationError, match="point labels must be distinct"):
            lifted.atom_space.labels

    def test_cerny_lift_is_strongly_proximal(self):
        lifted = lift_system(cerny4(), 2)
        assert strongly_proximal(lifted.system, B).status is Status.YES

    def test_metric_table_is_w1(self):
        # The oracle enumerates every transport plan between the atoms, so it
        # shares no code with the table.  Odd trials use rational metrics
        # over mixed denominators, which the table scales to integers once.
        rng = random.Random(43)
        for t in range(20):
            m = rng.randint(1, 4)
            base = rand_metric_space(rng, m, (2, 3, 5, 12) if t % 2 else None)
            sys = ActionSystem.deterministic(
                base, [tuple(rng.randrange(m) for _ in range(m))]
            )
            lifted = lift_system(sys, rng.randint(1, 3))
            atoms = lifted.grid.atoms
            assert lifted.metric == tuple(
                tuple(brute_force_w1(base.metric, a, b) for b in atoms)
                for a in atoms
            )

    def test_metric_table_solves_each_difference_once(self, monkeypatch):
        # m = 5, q = 5 on a line with rational positions: 126 atoms, 7875
        # pairs, 1375 distinct composition differences.
        positions = [F(0), F(7, 2), F(1), F(9), F(16, 3)]
        base = FiniteSpace.from_rows(
            tuple(f"x{i}" for i in range(5)),
            [[abs(a - b) for b in positions] for a in positions],
        )
        lifted = lift_system(ActionSystem.deterministic(base, [(1, 2, 3, 4, 0)]), 5)
        comps = lifted.grid.compositions
        kernel, calls = transport_module._min_cost, []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(transport_module, "_min_cost", counted)
        table = lifted.metric
        monkeypatch.undo()
        pairs = list(combinations(range(len(comps)), 2))
        diffs = {tuple(b - a for a, b in zip(comps[i], comps[j])) for i, j in pairs}
        assert (len(comps), len(pairs), len(diffs)) == (126, 7875, 1375)
        assert len(calls) == len(diffs)
        # Every entry equals one full transport of the two compositions.
        assert all(table[i][i] == 0 for i in range(len(comps)))
        for i, j in pairs:
            want = transport_module.min_cost_transport(comps[i], comps[j], base.metric)
            assert table[i][j] == table[j][i] == want / 5

    def test_stochastic_rejected(self):
        sp = FiniteSpace.discrete(("a", "b"))
        sys = ActionSystem.stochastic(
            sp, [StochasticMatrix.from_rows([[F(1, 2), F(1, 2)], [0, 1]])]
        )
        with pytest.raises(UnsupportedKind):
            lift_system(sys, 2)

    def test_non_integer_resolution_rejected(self):
        with pytest.raises(ValidationError, match="resolution"):
            lift_system(cerny4(), 2.0)


class TestBarycenter:
    def test_delta_section_every_atom(self):
        grid = GridSimplex.build(FiniteSpace.discrete(("a", "b", "c")), 2)
        n = len(grid.atoms)
        for i, atom in enumerate(grid.atoms):
            assert barycenter(grid, Measure.point_mass(n, i)) == atom

    def test_even_vertex_mixture(self):
        grid = GridSimplex.build(FiniteSpace.discrete(("a", "b")), 1)
        rho = Measure.uniform(len(grid.atoms))
        assert barycenter(grid, rho) == Measure.from_weights([F(1, 2), F(1, 2)])

    def test_exact_rational_mixture(self):
        # 1/3 of (3/4,1/4) plus 2/3 of (0,1) averages to (1/4,3/4).
        grid = GridSimplex.build(FiniteSpace.discrete(("a", "b")), 4)
        n = len(grid.atoms)
        i = grid.atom_index(Measure.from_weights([F(3, 4), F(1, 4)]))
        j = grid.atom_index(Measure.from_weights([0, 1]))
        rho = Measure.point_mass(n, i).mix(Measure.point_mass(n, j), F(1, 3))
        assert barycenter(grid, rho) == Measure.from_weights([F(1, 4), F(3, 4)])

    def test_affine_in_rho(self):
        rng = random.Random(43)
        grid = GridSimplex.build(FiniteSpace.discrete(("a", "b", "c")), 2)
        n = len(grid.atoms)
        for _ in range(20):
            r1, r2 = rand_measure(rng, n), rand_measure(rng, n)
            a = F(rng.randint(0, 4), 4)
            assert barycenter(grid, r1.mix(r2, a)) == barycenter(grid, r1).mix(
                barycenter(grid, r2), a
            )


class TestPsiChecks:
    def test_zero_violations_on_swap(self):
        rep = psi_checks(det_system((1, 0)), 2, trials=120, seed=2)
        assert rep.ok, rep.violations

    def test_zero_violations_on_cerny(self):
        rep = psi_checks(cerny4(), 2, trials=120, seed=3)
        assert rep.ok, rep.violations

    def test_equivariance_hand_example(self):
        # swap system, rho half-and-half on the two vertex atoms, word = swap:
        # both orders give the uniform measure.
        sys = det_system((1, 0))
        lifted = lift_system(sys, 2)
        grid = lifted.grid
        n = len(grid.atoms)
        i = grid.vertex_index(0)
        j = grid.vertex_index(1)
        rho = Measure.point_mass(n, i).mix(Measure.point_mass(n, j), F(1, 2))
        lhs = barycenter(grid, push_meta(lifted, (0,), rho))
        rhs = pushforward(sys, (0,), barycenter(grid, rho))
        assert lhs == rhs == Measure.from_weights([F(1, 2), F(1, 2)])

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="at least 1 trial"):
            psi_checks(cerny4(), 2, trials, seed=1)

    def test_non_integer_arguments_rejected(self):
        with pytest.raises(ValidationError, match="resolution"):
            psi_checks(cerny4(), 2.0, 10, seed=1)
        with pytest.raises(ValidationError, match="trials"):
            psi_checks(cerny4(), 2, 10.0, seed=1)


class TestPsiHomomorphism:
    def test_z2(self):
        rep = psi_homomorphism_check(SemigroupTable.cyclic(2), 2, 60, seed=4)
        assert rep.ok, rep.violations

    def test_z3(self):
        rep = psi_homomorphism_check(SemigroupTable.cyclic(3), 2, 40, seed=5)
        assert rep.ok, rep.violations

    def test_left_zero(self):
        rep = psi_homomorphism_check(SemigroupTable.left_zero(3), 2, 40, seed=6)
        assert rep.ok, rep.violations

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="at least 1 trial"):
            psi_homomorphism_check(SemigroupTable.cyclic(2), 2, trials, seed=1)

    def test_non_integer_arguments_rejected(self):
        table = SemigroupTable.cyclic(2)
        with pytest.raises(ValidationError, match="resolution"):
            psi_homomorphism_check(table, 2.0, 10, seed=1)
        with pytest.raises(ValidationError, match="trials"):
            psi_homomorphism_check(table, 2, 10.0, seed=1)

    def test_unit_law_point_mass_at_identity(self):
        table = SemigroupTable.cyclic(3)
        base = FiniteSpace.discrete(("e", "g", "h"))
        grid = GridSimplex.build(base, 2)
        fine = GridSimplex.build(base, 4)
        rng = random.Random(7)
        from proxilift import convolution

        for _ in range(10):
            rho1 = rand_measure(rng, len(grid.atoms))
            mu = barycenter(grid, rho1)
            # convolving with the identity point mass changes nothing
            assert convolution(table, mu, Measure.point_mass(3, 0)) == mu


@st.composite
def small_det_systems(draw):
    """A deterministic system on 1-4 points with 1-3 generators."""
    m = draw(st.integers(1, 4))
    point = st.integers(0, m - 1)
    return det_system(
        *draw(st.lists(st.tuples(*[point] * m), min_size=1, max_size=3))
    )


SEEDS = st.integers(0, 2**32 - 1)
TABLES = st.one_of(
    st.builds(SemigroupTable.cyclic, st.integers(2, 4)),
    st.builds(SemigroupTable.left_zero, st.integers(2, 3)),
)


class TestPsiOracle:
    """The integer law checks against the Fraction oracle in ``helpers``."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_det_systems(), st.integers(1, 3), SEEDS)
    def test_psi_checks_match_oracle(self, sys, q, seed):
        assert psi_checks(sys, q, 12, seed) == fraction_psi_checks(sys, q, 12, seed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(TABLES, st.integers(1, 3), SEEDS)
    def test_homomorphism_matches_oracle(self, table, q, seed):
        assert psi_homomorphism_check(
            table, q, 6, seed
        ) == fraction_psi_homomorphism(table, q, 6, seed)

    def test_redirected_atom_image_breaks_equivariance(self, monkeypatch):
        sys = cerny4()
        good = lift_system(sys, 2)
        image = list(good.generators[0].image)
        image[0] = (image[0] + 1) % len(image)
        bad = LiftedSystem(
            good.grid, (Transformation(tuple(image)),) + good.generators[1:]
        )
        monkeypatch.setattr(lift_module, "lift_system", lambda s, q: bad)
        monkeypatch.setattr(helpers, "lift_system", lambda s, q: bad)
        rep = psi_checks(sys, 2, 40, seed=8)
        assert rep == fraction_psi_checks(sys, 2, 40, seed=8)
        failed = [v for v in rep.violations if v.startswith("equivariance fails")]
        assert failed and len(failed) == len(rep.violations)

    def test_corrupted_fine_index_breaks_homomorphism(self, monkeypatch):
        # The q^2-grid atom of (2,2,0) = (2,0,0) conv (1,1,0) in Z_3 is
        # redirected to the atom of (4,0,0).
        table = SemigroupTable.cyclic(3)
        build_index = GridSimplex.index.func

        def index(grid):
            out = build_index(grid)
            if grid.resolution == 4:
                out = dict(out)
                out[(2, 2, 0)] = out[(4, 0, 0)]
            return out

        monkeypatch.setattr(GridSimplex, "index", property(index))
        rep = psi_homomorphism_check(table, 2, 20, seed=9)
        assert rep.violations
        assert rep == fraction_psi_homomorphism(table, 2, 20, seed=9)


class TestEquivalenceHarness:
    def test_swap_passes_with_both_no(self):
        rep = equivalence_harness(det_system((1, 0)), 2, B, HarnessMode.LIFT_PROXIMAL)
        assert rep.outcome == "PASS"
        assert all(row.base.status is Status.NO for row in rep.rows)
        assert all(row.lift.status is Status.NO for row in rep.rows)

    def test_constant_passes_with_both_yes(self):
        rep = equivalence_harness(
            det_system((0, 0, 0), (1, 2, 0)), 2, B, HarnessMode.LIFT_STRONG
        )
        assert rep.outcome == "PASS"
        assert all(row.base.status is Status.YES for row in rep.rows)
        assert all(row.lift.status is Status.YES for row in rep.rows)

    def test_requested_resolution_included(self):
        rep = equivalence_harness(det_system((1, 0)), 5, B, HarnessMode.LIFT_STRONG)
        assert [row.q for row in rep.rows] == [1, 2, 3, 5]
        assert rep.consistent_across_q

    def test_random_batch_both_modes(self):
        rng = random.Random(47)
        for _ in range(20):
            sys = rand_det_system(rng, rng.randint(2, 4))
            for mode in HarnessMode:
                rep = equivalence_harness(sys, 2, B, mode)
                assert rep.outcome == "PASS", (sys, mode, rep)
                assert rep.consistent_across_q

    def test_outcome_rule(self):
        # one rule for rows, harness reports and the affine corollary: a
        # decided disagreement outranks an UNKNOWN; the lift is not compared
        yes = Verdict(Status.YES, ())
        no = Verdict(Status.NO, None, "no")
        unk = Verdict(Status.UNKNOWN, None, "budget")
        lifted = lift_system(det_system((0, 0)), 1)

        def outcome(*pairs):
            rows = tuple(HarnessRow(1, a, b, lifted) for a, b in pairs)
            return HarnessReport(HarnessMode.LIFT_STRONG, rows).outcome

        pairs = [(yes, yes), (yes, no), (unk, no)]
        rows = [HarnessRow(1, a, b, lifted) for a, b in pairs]
        assert [row.agree for row in rows] == [True, False, None]
        assert rows[0] == HarnessRow(1, yes, yes, lift_system(det_system((0, 0)), 2))
        assert outcome((yes, yes), (no, no)) == "PASS"
        assert outcome((yes, yes), (unk, yes)) == "INCONCLUSIVE"
        assert outcome((unk, yes), (yes, no)) == "FAIL"
        assert outcome((yes, no), (yes, unk)) == "FAIL"
        cases = [(yes, yes, "PASS"), (no, yes, "FAIL"), (yes, unk, "INCONCLUSIVE")]
        for a, b, want in cases:
            assert CorollaryReport(False, a, b, lifted).outcome == want


class TestInvariantMetas:
    def test_identity_system_full_simplex(self):
        sys = det_system((0, 1))
        metas = invariant_metas(lift_system(sys, 2))
        n = len(lift_system(sys, 2).grid.atoms)
        assert len(metas) == n
        assert all(m.is_point_mass() for m in metas)

    def test_constant_plus_identity_unique(self):
        sys = det_system((0, 0, 0), (0, 1, 2))
        metas = invariant_metas(lift_system(sys, 2))
        grid = lift_system(sys, 2).grid
        assert len(metas) == 1
        assert metas[0].is_point_mass()
        assert grid.atoms[metas[0].point_of_mass()] == Measure.point_mass(3, 0)

    def test_swap_has_non_point_mass_invariant(self):
        sys = det_system((1, 0))
        metas = invariant_metas(lift_system(sys, 1))
        assert metas == [Measure.from_weights([F(1, 2), F(1, 2)])]

    def test_matches_polytope_oracle(self):
        # every (m, q) whose lift has at most 10 atoms; odd draws use
        # permutations only, even draws arbitrary maps, which exercises the
        # pruning down to the largest set every generator maps bijectively
        shapes = [(2, q) for q in range(1, 10)]
        shapes += [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
        rng = random.Random(61)
        pruned = 0
        for k in range(160):
            m, q = rng.choice(shapes)
            gens = [
                tuple(rng.sample(range(m), m))
                if k % 2
                else tuple(rng.randrange(m) for _ in range(m))
                for _ in range(rng.randint(1, 3))
            ]
            sys = det_system(*gens)
            metas = invariant_metas(lift_system(sys, q))
            assert metas == polytope_oracle(sys, q), (gens, q)
            covered = sum(len(meta.support()) for meta in metas)
            pruned += 0 < covered < len(lift_system(sys, q))
        assert pruned >= 20, "batch too degenerate to exercise the pruning"

    @pytest.mark.parametrize("n, q, extremes", [(4, 4, 10), (5, 3, 7)])
    def test_cycle_orbits_match_burnside(self, n, q, extremes):
        # Burnside's lemma over the rotations, on compositions of q into n
        # parts enumerated here: the orbit count, independent of the library
        comps = [c for c in product(range(q + 1), repeat=n) if sum(c) == q]
        fixed = sum(c[k:] + c[:k] == c for c in comps for k in range(n))
        assert fixed == extremes * n
        sys = det_system(tuple((i + 1) % n for i in range(n)))
        metas = invariant_metas(lift_system(sys, q))
        assert len(metas) == extremes
        supports = [set(meta.support()) for meta in metas]
        assert sum(map(len, supports)) == len(comps)
        assert set().union(*supports) == set(range(len(comps)))
        lifted = lift_system(sys, q)
        for meta in metas:
            assert push_meta(lifted, (0,), meta) == meta

    def test_invariance_replays(self):
        rng = random.Random(53)
        for _ in range(10):
            sys = rand_det_system(rng, rng.randint(2, 3))
            lifted = lift_system(sys, 2)
            for meta in invariant_metas(lift_system(sys, 2)):
                for gi in range(len(sys.generators)):
                    assert push_meta(lifted, (gi,), meta) == meta

    def test_strongly_proximal_forces_vertex_point_masses(self):
        # a common invariant meta may not exist (two distinct constant maps
        # have none), but whatever comes back must sit on a vertex atom
        rng = random.Random(59)
        found = nonempty = 0
        while found < 10:
            sys = rand_det_system(rng, rng.randint(2, 4))
            if reset_word(sys, B).status is not Status.YES:
                continue
            found += 1
            grid = lift_system(sys, 2).grid
            metas = invariant_metas(lift_system(sys, 2))
            nonempty += bool(metas)
            for meta in metas:
                assert meta_is_vertex_point_mass(grid, meta)
        assert nonempty >= 3, "batch too degenerate to exercise the claim"
