"""Simplex model: embedding, extraction, equivariance, the affine harness."""

import pathlib
import random
from fractions import Fraction

import pytest

from proxilift import affine, proximality
from proxilift import (
    AffineVertexMap,
    Budget,
    Kind,
    NotInHull,
    SimplexModel,
    Status,
    UnsupportedKind,
    ValidationError,
    apply_map,
    corollary_harness,
    embed,
    extract,
    f_equivariance_check,
    is_proximal,
    strongly_proximal,
    tv_distance,
    vertex_system,
)
from proxilift.cli import load_spec
from helpers import rand_measure

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

F = Fraction
B = Budget()


def basis3():
    return SimplexModel.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def wedge2():
    return SimplexModel.from_rows([[1, 0], [1, 1]])


class TestSimplexModel:
    def test_dependent_vertices_rejected(self):
        with pytest.raises(ValidationError):
            SimplexModel.from_rows([[1, 0], [2, 0]])

    def test_too_many_vertices_rejected(self):
        with pytest.raises(ValidationError):
            SimplexModel.from_rows([[1, 0], [0, 1], [1, 1]])

    def test_ragged_rejected(self):
        from proxilift import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            SimplexModel.from_rows([[1, 0], [0, 1, 0]])

    def test_float_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="exact rational"):
            SimplexModel.from_rows([[0.5, 0], [0, 1]])


class TestEmbedExtract:
    def test_vertex_goes_to_vertex(self):
        model = wedge2()
        from proxilift import Measure

        for i in range(model.n):
            assert embed(model, Measure.point_mass(model.n, i)) == model.vertices[i]

    def test_standard_basis_is_identity(self):
        from proxilift import Measure

        lam = Measure.from_weights([F(1, 2), F(1, 2), 0])
        assert embed(basis3(), lam) == (F(1, 2), F(1, 2), F(0))

    def test_wedge_example(self):
        from proxilift import Measure

        lam = Measure.from_weights([F(1, 3), F(2, 3)])
        assert embed(wedge2(), lam) == (F(1), F(2, 3))

    def test_extract_example(self):
        assert extract(wedge2(), (F(1), F(1, 4))).weights == (F(3, 4), F(1, 4))

    def test_round_trip(self):
        rng = random.Random(61)
        model = SimplexModel.from_rows([[2, 1, 0], [0, 3, 0], [1, 1, 5]])
        for _ in range(25):
            lam = rand_measure(rng, model.n)
            assert extract(model, embed(model, lam)) == lam

    def test_outside_hull_rejected(self):
        with pytest.raises(NotInHull):
            extract(wedge2(), (F(2), F(0)))
        with pytest.raises(NotInHull):
            # off the span entirely
            extract(basis3(), (F(1, 2), F(1, 2), F(1, 2)))

    def test_negative_coefficient_rejected(self):
        # on the affine line through the vertices but outside the segment
        with pytest.raises(NotInHull):
            extract(wedge2(), (F(1), F(2)))


class TestApplyMap:
    def test_constant_map_sends_everything_to_vertex(self):
        model = wedge2()
        amap = AffineVertexMap.from_vertex_images([0, 0], 2)
        assert apply_map(model, amap, (F(1), F(1, 2))) == model.vertices[0]

    def test_lipschitz_in_l1(self):
        # affine maps of the hull never expand L1 distance by more than the
        # vertex diameter over the measure tv gap
        rng = random.Random(67)
        model = SimplexModel.from_rows([[1, 0, 0], [1, 2, 0], [0, 1, 3]])
        diam = max(
            sum(abs(a - b) for a, b in zip(u, v))
            for u in model.vertices
            for v in model.vertices
        )
        amap = AffineVertexMap.from_vertex_images([1, 1, 2], 3)
        for _ in range(20):
            lam, nu = rand_measure(rng, 3), rand_measure(rng, 3)
            x, y = embed(model, lam), embed(model, nu)
            fx = apply_map(model, amap, x)
            fy = apply_map(model, amap, y)
            gap = sum(abs(a - b) for a, b in zip(fx, fy))
            assert gap <= 2 * tv_distance(lam, nu) * diam


class TestVertexSystem:
    def test_deterministic_kind(self):
        sys = vertex_system(
            wedge2(), [AffineVertexMap.from_vertex_images([1, 0], 2)]
        )
        assert sys.kind is Kind.DETERMINISTIC
        assert sys.space.metric[0][1] == 1

    def test_general_rows_route_to_stochastic(self):
        amap = AffineVertexMap(((F(1, 2), F(1, 2)), (F(0), F(1))))
        sys = vertex_system(wedge2(), [amap])
        assert sys.kind is Kind.STOCHASTIC
        assert sys.generators == (amap,)

    def test_bad_rows_rejected(self):
        with pytest.raises(ValidationError):
            AffineVertexMap(((F(1, 2), F(1, 4)), (F(0), F(1))))


class TestEquivariance:
    def test_identity_and_constant(self):
        model = basis3()
        maps = [
            AffineVertexMap.from_vertex_images([0, 1, 2], 3),
            AffineVertexMap.from_vertex_images([1, 1, 1], 3),
        ]
        rep = f_equivariance_check(model, maps, trials=60, seed=8)
        assert rep.ok, rep.violations

    def test_permutation(self):
        model = SimplexModel.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        maps = [AffineVertexMap.from_vertex_images([1, 2, 0], 3)]
        rep = f_equivariance_check(model, maps, trials=60, seed=9)
        assert rep.ok, rep.violations

    def test_general_rows_unsupported(self):
        # General rows push by the stochastic pushforward, which agrees
        # exactly with the affine hull map.
        amap = AffineVertexMap(((F(1, 2), F(1, 2)), (F(0), F(1))))
        rep = f_equivariance_check(wedge2(), [amap], trials=60, seed=1)
        assert rep.ok, rep.violations

    def test_general_rows_with_a_permutation(self):
        model = SimplexModel.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        maps = [
            AffineVertexMap.from_rows(
                [[F(1, 3), F(1, 3), F(1, 3)], [0, F(1, 2), F(1, 2)], [0, 0, 1]]
            ),
            AffineVertexMap.from_vertex_images([1, 2, 0], 3),
        ]
        rep = f_equivariance_check(model, maps, trials=60, seed=2)
        assert rep.ok, rep.violations

    def test_wrong_hull_map_is_caught(self, monkeypatch):
        amap = AffineVertexMap(((F(1, 2), F(1, 2)), (F(0), F(1))))
        swap = AffineVertexMap.from_vertex_images([1, 0], 2)
        real = affine.apply_map
        monkeypatch.setattr(
            affine, "apply_map", lambda model, _, x: real(model, swap, x)
        )
        rep = f_equivariance_check(wedge2(), [amap], trials=30, seed=1)
        assert rep.violations


class TestCorollaryHarness:
    def test_permutations_pass_with_no(self):
        model = basis3()
        maps = [AffineVertexMap.from_vertex_images([1, 2, 0], 3)]
        rep = corollary_harness(model, maps, 2, B)
        assert rep.outcome == "PASS"
        assert rep.proximal.status is Status.NO
        assert rep.strong.status is Status.NO
        assert not rep.extended

    def test_constant_passes_with_yes(self):
        model = wedge2()
        maps = [AffineVertexMap.from_vertex_images([0, 0], 2)]
        rep = corollary_harness(model, maps, 2, B)
        assert rep.outcome == "PASS"
        assert rep.proximal.status is Status.YES
        assert rep.strong.status is Status.YES
        assert rep.extended

    def test_extended_label_only_for_non_surjective(self):
        model = wedge2()
        rep = corollary_harness(
            model, [AffineVertexMap.from_vertex_images([1, 0], 2)], 1, B
        )
        assert not rep.extended

    def test_general_rows_unsupported(self):
        amap = AffineVertexMap(((F(1, 2), F(1, 2)), (F(0), F(1))))
        with pytest.raises(UnsupportedKind):
            corollary_harness(wedge2(), [amap], 2, B)

    def test_decides_the_lift_with_one_greedy_merge(self, monkeypatch):
        spec = load_spec(str(SPECS / "affine_wedge.json"))
        tests = []
        real = proximality._synchronizes

        def counting(maps, m):
            tests.append(m)
            return real(maps, m)

        monkeypatch.setattr(proximality, "_synchronizes", counting)
        rep = corollary_harness(spec.simplex, spec.maps, 3, B)
        # One synchronization test of the 10-atom lift answers both questions.
        assert tests == [10]
        monkeypatch.undo()
        lifted = rep.lifted.system
        assert rep.proximal == is_proximal(lifted, B)
        assert rep.strong == strongly_proximal(lifted, B)
