"""The affine simplex model: a convex hull of independent vertices.

With linearly independent vertices v_1..v_n, the hull is a simplex and the
correspondence f(lam) = sum lam(v_i) v_i identifies measures on the vertex
set with hull points, uniquely and affinely.  Vertex selfmaps of the hull
are exactly the selfmaps of that measure space, so the lifted-grid machinery
applies verbatim: the action on measures over the vertex set IS the affine
action on the hull, and proximality of it coincides with strong proximality.

Vertex maps whose images form a permutation are the surjective affine maps;
anything else is admitted too but labeled EXTENDED, since it falls outside
the narrow surjectivity hypothesis while all machinery still applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .actions import (
    ActionSystem,
    Kind,
    StochasticMatrix,
    Transformation,
    pushforward,
)
from .errors import (
    DimensionMismatch,
    NotInHull,
    UnsupportedKind,
    ValidationError,
)
from .lift import CheckReport, LiftedSystem, _outcome, lift_system
from .linalg import _fraction_rows, rank, solve_affine
from .proximality import Budget, Verdict, decide
from .spaces import ZERO, FiniteSpace, Measure, random_measure


@dataclass(frozen=True)
class SimplexModel:
    """n linearly independent vertices in dimension d >= n."""

    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n == 0:
            raise ValidationError("a simplex model needs at least one vertex")
        d = len(self.vertices[0])
        if any(len(v) != d for v in self.vertices):
            raise DimensionMismatch("vertices differ in coordinate dimension", d)
        if n > d:
            raise ValidationError(f"{n} vertices cannot be independent in R^{d}")
        if rank(_fraction_rows(self.vertices)) != n:
            raise ValidationError("vertices are linearly dependent")

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int | Fraction]]
    ) -> "SimplexModel":
        return cls(_fraction_rows(rows))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


class AffineVertexMap(StochasticMatrix):
    """Images of the vertices, as convex-coefficient rows over the vertices.

    The rows form a stochastic matrix on the vertex set.  A deterministic
    vertex map is the 0/1 special case; those are the maps the exact harness
    accepts.  General rows are valid affine selfmaps of the hull and route to
    the stochastic engine instead.
    """

    @classmethod
    def from_vertex_images(
        cls, images: Sequence[int], n: int
    ) -> "AffineVertexMap":
        if len(images) != n:
            raise ValidationError("vertex images must map 0..n-1 into itself")
        return cls.from_transformation(Transformation(tuple(images)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def vertex_images(self) -> tuple[int, ...]:
        return self.to_transformation().image

    def is_surjective(self) -> bool:
        """Vertex images form a permutation (the surjective affine selfmaps
        of a simplex are exactly the vertex permutations)."""
        return self.is_deterministic() and self.to_transformation().is_permutation()


def embed(model: SimplexModel, lam: Measure) -> tuple[Fraction, ...]:
    """Hull point of a vertex measure: f(lam) = sum lam(v_i) v_i."""
    if len(lam) != model.n:
        raise DimensionMismatch("measure size does not match vertex count", model.n)
    point = [ZERO] * model.dim
    for w, v in zip(lam.weights, model.vertices):
        if w == 0:
            continue
        for k in range(model.dim):
            point[k] += w * v[k]
    return tuple(point)


def extract(model: SimplexModel, x: Sequence[Fraction]) -> Measure:
    """The unique vertex measure embedding to x; errors if x is not in the hull."""
    if len(x) != model.dim:
        raise DimensionMismatch("point dimension does not match model", model.dim)
    rows = [
        [model.vertices[i][k] for i in range(model.n)] for k in range(model.dim)
    ]
    solved = solve_affine(rows, [Fraction(c) for c in x])
    if solved is None:
        raise NotInHull("point lies outside the span of the vertices")
    lam, basis = solved
    if basis:
        raise ValidationError("independent vertices cannot give a free solution")
    if any(c < 0 for c in lam) or sum(lam) != 1:
        raise NotInHull("coefficients are not a probability vector")
    return Measure(tuple(lam))


def apply_map(
    model: SimplexModel, amap: AffineVertexMap, x: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Image of a hull point under the affine extension of the vertex map."""
    lam = extract(model, x)
    n = model.n
    out = [ZERO] * n
    for w, row in zip(lam.weights, amap.rows):
        if w == 0:
            continue
        for j in range(n):
            out[j] += w * row[j]
    return embed(model, Measure(tuple(out)))


def vertex_system(
    model: SimplexModel, maps: Sequence[AffineVertexMap]
) -> ActionSystem:
    """The action on the vertex set, deterministic when every map is.

    The vertex space carries the L1 metric inherited from the coordinates
    (exact rationals, positive between distinct independent vertices).
    """
    if not maps:
        raise ValidationError("need at least one map")
    if any(m.n != model.n for m in maps):
        raise DimensionMismatch("map size does not match vertex count", model.n)
    n, d = model.n, model.dim
    metric = tuple(
        tuple(
            sum(
                (abs(model.vertices[i][k] - model.vertices[j][k]) for k in range(d)),
                ZERO,
            )
            for j in range(n)
        )
        for i in range(n)
    )
    space = FiniteSpace(tuple(f"v{i}" for i in range(n)), metric)
    if all(m.is_deterministic() for m in maps):
        gens: tuple = tuple(m.to_transformation() for m in maps)
        return ActionSystem(space, Kind.DETERMINISTIC, gens)
    return ActionSystem(space, Kind.STOCHASTIC, tuple(maps))


def f_equivariance_check(
    model: SimplexModel,
    maps: Sequence[AffineVertexMap],
    trials: int,
    seed: int,
) -> CheckReport:
    """Exact check of f(t lam) = t f(lam) for random measures and words;
    general rows push by the stochastic pushforward."""
    fsys = vertex_system(model, maps)
    rng = random.Random(seed)
    violations: list[str] = []
    for t in range(trials):
        lam = random_measure(rng, model.n)
        w = tuple(
            rng.randrange(len(maps)) for _ in range(rng.randint(0, 5))
        )
        lhs = embed(model, pushforward(fsys, w, lam))
        point = embed(model, lam)
        for a in w:
            point = apply_map(model, maps[a], point)
        if lhs != point:
            violations.append(f"equivariance fails on trial {t}, word {w}")
    return CheckReport("f_equivariance", trials, tuple(violations))


@dataclass(frozen=True)
class CorollaryReport:
    """Proximal vs strongly proximal verdicts for the hull action; ``lifted``
    is the lift both were decided on, kept for replay and left out of equality
    and repr."""

    extended: bool
    proximal: Verdict
    strong: Verdict
    lifted: LiftedSystem = field(compare=False, repr=False)

    @property
    def outcome(self) -> str:
        return _outcome([(self.proximal, self.strong)])


def corollary_harness(
    model: SimplexModel,
    maps: Sequence[AffineVertexMap],
    q: int,
    b: Budget,
) -> CorollaryReport:
    """Assert proximal iff strongly proximal for the affine hull action.

    The hull action is the lifted grid system of the vertex action (the
    embedding f carries grid measures to hull points), so both verdicts are
    computed there.  Runs with a non-surjective map are labeled EXTENDED:
    valid, but outside the narrow surjectivity hypothesis.
    """
    if any(not m.is_deterministic() for m in maps):
        raise UnsupportedKind(
            "the exact harness needs deterministic vertex maps"
        )
    fsys = vertex_system(model, maps)
    lifted = lift_system(fsys, q)
    proximal, strong, _ = decide(lifted.system, b)
    return CorollaryReport(
        extended=not all(m.is_surjective() for m in maps),
        proximal=proximal,
        strong=strong,
        lifted=lifted,
    )
