"""The lifted action on the grid-discretized probability simplex.

Deterministic pushforward keeps denominators, so the resolution-q grid is an
invariant finite subset of the probability simplex and every generator
induces a transformation of its atoms.  That lifted system is analyzed with
the same exact decision procedures as the base system, which turns the two
equivalences under study into executable checks:

  * the base system is strongly proximal iff the lifted system is proximal;
  * the base system is strongly proximal iff the lifted system is.

The barycenter map sends a measure on measures to its mean measure.  Its four
laws (equivariance, the delta section, point-mass pullback, and the semigroup
homomorphism law under convolution) are asserted over randomized trials drawn
with ``random_measure``'s RNG sequence.  Each trial keeps the integer masses
of its draws, and both sides of a law are integer numerator vectors over one
common denominator, so comparing them is the exact rational identity.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from operator import mul, sub
from typing import Iterable, Optional, Sequence

from .actions import (
    ActionSystem,
    Kind,
    SemigroupTable,
    Transformation,
    Word,
    _convolve,
    _push,
    pushforward,
)
from .errors import DimensionMismatch, UnsupportedKind, ValidationError
from .linalg import _as_int
from .proximality import (
    Budget,
    Status,
    Verdict,
    is_proximal,
    strongly_proximal,
)
from .spaces import (
    ZERO,
    DeferredLabelSpace,
    FiniteSpace,
    GridSimplex,
    Measure,
    _grid_fold,
    _random_counts,
)
from .transport import _w1_cost

# A meta-measure is a probability vector over grid atoms: same validation,
# different index set, so the measure type is reused as-is.
MetaMeasure = Measure


def _atom_labels(grid: GridSimplex) -> list[str]:
    """Atom c's label "(c_0,c_1,...)", for every atom of the grid in order.

    The labels are the grid fold of string pieces "a," per part, with "("
    put before those of the first part and the last part's "," turned into
    ")"; with one point that gives "(a)".
    """
    q = grid.resolution
    parts = [[f"{a}," for a in range(q + 1)] for _ in range(len(grid.base))]
    parts[0] = ["(" + p for p in parts[0]]
    parts[-1] = [p[:-1] + ")" for p in parts[-1]]
    return _grid_fold(parts, (q,))[0]


@dataclass(frozen=True)
class LiftedSystem:
    """Grid atoms as points, with the generator-induced atom maps.

    ``len`` reads the atom count off the generators; the atom labels and the
    W1 table are built only when something reads them.
    """

    grid: GridSimplex
    generators: tuple[Transformation, ...]

    @cached_property
    def atom_space(self) -> FiniteSpace:
        """The atoms as a discrete space, atom c labelled "(c_0,c_1,...)"
        (``_atom_labels``).

        The space is sized by the grid, and its labels are folded, and
        checked distinct, only when something reads them: no decision,
        replay or report does.  Once read, it equals, hashes and prints as
        ``FiniteSpace.discrete`` of those labels.
        """
        return DeferredLabelSpace(len(self.grid), partial(_atom_labels, self.grid))

    @cached_property
    def system(self) -> ActionSystem:
        """The lifted dynamics as a plain deterministic action system."""
        return ActionSystem(self.atom_space, Kind.DETERMINISTIC, self.generators)

    @cached_property
    def metric(self) -> tuple[tuple[Fraction, ...], ...]:
        """Pairwise Wasserstein-1 distances between atoms (built on demand;
        the exact decision procedures only use the discrete topology).

        The distance between atoms a / q and b / q is the optimal cost of
        transporting the integer masses a onto b under the base metric,
        divided by q.  The base metric is validated (zero diagonal, triangle
        inequality), so that cost depends on b - a alone: the shared mass
        stays put (``transport._w1_cost``).  The metric is read as the base
        space's cleared integer rows, each pair i < j is keyed by
        ``comps[j] - comps[i]`` (its first nonzero entry is positive, since
        compositions are in lex order), and each distinct difference is
        solved once, with its ``Fraction`` built once.  The metric is
        symmetric, so the table is too.
        """
        comps, q = self.grid.compositions, self.grid.resolution
        cost, scale = self.grid.base.cleared
        den = q * scale
        solved: dict[tuple[int, ...], Fraction] = {}
        rows = [[ZERO] * len(comps) for _ in comps]
        for i, j in combinations(range(len(comps)), 2):
            diff = tuple(map(sub, comps[j], comps[i]))
            w = solved.get(diff)
            if w is None:
                w = solved[diff] = Fraction(_w1_cost(diff, cost), den)
            rows[i][j] = rows[j][i] = w
        return tuple(map(tuple, rows))

    def __len__(self) -> int:
        return len(self.generators[0])


def lift_system(sys: ActionSystem, q: int) -> LiftedSystem:
    """Lift a deterministic system to its resolution-q grid simplex: the
    one-resolution case of ``_lift_systems``.

    Lifts are not memoized: each call builds a new one, and callers keep
    the ``LiftedSystem`` they need again.
    """
    return _lift_systems(sys, (q,))[0]


def _lift_systems(
    sys: ActionSystem, resolutions: Sequence[int]
) -> list[LiftedSystem]:
    """The lifts of a deterministic system to the grid at each resolution,
    in the order given.

    Atoms are the grid's integer compositions c of q (atom = c / q).  A
    generator g pushes c to the composition that adds c_x into g(x) for
    every point x, the numerator vector of the pushforward.  With top the
    largest resolution, each composition c has the integer key
    sum_x c_x (top + 1)^x, unique at every resolution since no part
    exceeds top, and its push by g has the key sum_x c_x (top + 1)^g(x).
    Both key lists are one grid fold (``_grid_fold``) of the multiples of
    those weights, which shares the levels of all points but the first
    between the resolutions.  So all the lifts cost one fold of the atom
    keys, one fold per generator and one dict lookup per atom.
    """
    if sys.kind is not Kind.DETERMINISTIC:
        raise UnsupportedKind("only deterministic systems lift to the grid")
    grids = [GridSimplex.build(sys.space, q) for q in resolutions]
    base = max(resolutions) + 1
    weights = [base**x for x in range(len(sys.space))]

    def keys(point_weights: Iterable[int]) -> list[list[int]]:
        parts = [range(0, base * w, w) for w in point_weights]
        return _grid_fold(parts, resolutions)

    atoms = [{k: i for i, k in enumerate(level)} for level in keys(weights)]
    # Per resolution, the pushed keys of every generator.
    pushed = zip(*(keys([weights[y] for y in g.image]) for g in sys.generators))
    return [
        LiftedSystem(
            grid,
            tuple(
                Transformation(tuple(map(atom.__getitem__, images)))
                for images in level
            ),
        )
        for grid, atom, level in zip(grids, atoms, pushed)
    ]


def _barycenter_numerators(
    columns: Iterable[Sequence[int]], counts: Sequence[int]
) -> list[int]:
    """Base numerators of the barycenter of integer masses over grid atoms.

    Atom k has composition c_k and mass counts[k]; ``columns`` is the
    transpose of the c_k, so columns[j][k] = c_k[j].  Entry j is the sum of
    counts[k] * c_k[j], and the barycenter is these over q * sum(counts).
    The atoms may be the whole grid or any list of them, such as a support.
    """
    return [sum(map(mul, column, counts)) for column in columns]


def barycenter(grid: GridSimplex, rho: MetaMeasure) -> Measure:
    """Mean measure of rho: sum over atoms c / q of rho(c / q) * c / q, exact,
    summed on rho's cleared integer masses."""
    if len(rho) != len(grid):
        raise DimensionMismatch("meta-measure size does not match grid", len(grid))
    counts, den = rho.cleared
    total = den * grid.resolution
    return Measure(
        tuple(
            Fraction(a, total)
            for a in _barycenter_numerators(zip(*grid.compositions), counts)
        )
    )


def push_meta(lifted: LiftedSystem, w: Word, rho: MetaMeasure) -> MetaMeasure:
    """Pushforward of a meta-measure along the lifted atom maps."""
    return pushforward(lifted.system, w, rho)


def meta_is_vertex_point_mass(grid: GridSimplex, rho: MetaMeasure) -> bool:
    """Whether rho is a point mass at an atom that is itself a point mass."""
    return (
        rho.is_point_mass()
        and grid.resolution in grid.compositions[rho.point_of_mass()]
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized law check; empty violations means it held."""

    name: str
    trials: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_word(rng: random.Random, gen_count: int, max_len: int = 6) -> Word:
    return tuple(rng.randrange(gen_count) for _ in range(rng.randint(0, max_len)))


def _check_trials(trials: int) -> None:
    if _as_int(trials, "trials") < 1:
        raise ValidationError("a randomized law check needs at least 1 trial")


def psi_checks(
    sys: ActionSystem, q: int, trials: int, seed: int
) -> CheckReport:
    """Exact randomized checks of the barycenter laws on the q-grid.

    (a) equivariance: pushing the meta-measure and then taking barycenters
        equals taking the barycenter and then pushing, for random words;
    (b) delta section: the barycenter of a point mass at an atom is the atom;
    (c) point-mass pullback: a meta-measure whose barycenter is a vertex
        point mass puts all its mass on that single vertex atom.

    Trial t draws rho as ``random_measure`` would, from the same RNG calls,
    and keeps its integer masses (total T).  Both sides of (a) and (c) are
    then integer numerators over q * T, and the mixture of (c) has masses k
    and 6 - k, so every identity is an exact integer identity over one
    common denominator.
    """
    _check_trials(trials)
    lifted = lift_system(sys, q)
    grid = lifted.grid
    comps = grid.compositions
    n = len(grid)
    rng = random.Random(seed)
    violations: list[str] = []

    m = len(grid.base)
    vertices = [0] * m  # the atom index of the point mass at each point
    for i, c in enumerate(comps):
        # The point mass at atom i: its one atom c, with mass 1.
        if tuple(_barycenter_numerators(zip(c), (1,))) != c:
            violations.append(f"delta section fails at atom {i}")
        if q in c:
            vertices[c.index(q)] = i

    # Numerators over 6q of the vertex point mass at each vertex atom.
    vertex_mass = {
        v: [6 * q if j == x else 0 for j in range(m)]
        for x, v in enumerate(vertices)
    }
    columns = list(zip(*comps))
    lifted_maps = [t.image for t in lifted.generators]
    base_maps = [t.image for t in sys.generators]
    for t in range(trials):
        counts = _random_counts(rng, n)
        w = _random_word(rng, len(base_maps))
        pushed = counts
        bc = _barycenter_numerators(columns, counts)
        rhs = bc
        for a in w:
            pushed = _push(lifted_maps[a], pushed)
            rhs = _push(base_maps[a], rhs)
        if _barycenter_numerators(columns, pushed) != rhs:
            violations.append(f"equivariance fails on trial {t}, word {w}")
        total = sum(counts)
        if q * total in bc:
            # The barycenter is the point mass at x, so all of rho's mass
            # must sit on the vertex atom of x.
            if counts[vertices[bc.index(q * total)]] != total:
                violations.append(f"point-mass pullback fails on trial {t}")
        # Adversarial direction for (c): mass split between a vertex atom and
        # any other atom must never average back to the vertex.
        vi = rng.choice(vertices)
        other = rng.randrange(n)
        if other != vi:
            k = rng.randint(1, 5)
            mix = _barycenter_numerators(zip(comps[vi], comps[other]), (k, 6 - k))
            if mix == vertex_mass[vi]:
                violations.append(
                    f"point-mass pullback fails on mixture trial {t}"
                )
    return CheckReport("psi_laws", trials, tuple(violations))


def psi_homomorphism_check(
    table: SemigroupTable, q: int, trials: int, seed: int
) -> CheckReport:
    """Check that the barycenter respects convolution exactly.

    Meta-level convolution pushes the product of two q-grid meta-measures
    through the semigroup product of atoms; the results live on the q^2 grid
    (no rounding), where the identity barycenter(rho1 conv rho2) =
    barycenter(rho1) * barycenter(rho2) is asserted exactly.  Atoms a / q and
    b / q convolve to the q^2-grid atom whose composition is the integer
    convolution of a and b.

    Trial t draws rho1 and rho2 as ``random_measure`` would, from the same
    RNG calls, and keeps their integer masses (totals T1 and T2).  Both sides
    are then integer numerators over T1 * T2 * q^2, so the identity is an
    exact integer identity over one common denominator.
    """
    _check_trials(trials)
    m = len(table)
    base = FiniteSpace.discrete(tuple(f"s{i}" for i in range(m)))
    grid = GridSimplex.build(base, q)
    fine = GridSimplex.build(base, q * q)
    comps = grid.compositions
    n = len(grid)
    columns = list(zip(*comps))
    fine_columns = list(zip(*fine.compositions))
    # The fine-grid atom that each pair of atoms convolves to.
    product_atom = [
        [fine.index[tuple(_convolve(table, a, b))] for b in comps] for a in comps
    ]
    rng = random.Random(seed)
    violations: list[str] = []
    for t in range(trials):
        counts1 = _random_counts(rng, n)
        counts2 = _random_counts(rng, n)
        fine_counts = [0] * len(fine)
        for k1, row in zip(counts1, product_atom):
            if k1:
                for k2, f in zip(counts2, row):
                    if k2:
                        fine_counts[f] += k1 * k2
        lhs = _barycenter_numerators(fine_columns, fine_counts)
        rhs = _convolve(
            table,
            _barycenter_numerators(columns, counts1),
            _barycenter_numerators(columns, counts2),
        )
        if lhs != rhs:
            violations.append(f"homomorphism law fails on trial {t}")
    return CheckReport("psi_homomorphism", trials, tuple(violations))


class HarnessMode(enum.Enum):
    LIFT_PROXIMAL = "prop1"
    LIFT_STRONG = "thm"


def _outcome(pairs: Iterable[tuple[Verdict, Verdict]]) -> str:
    """FAIL if some decided pair of verdicts disagrees, else INCONCLUSIVE if
    some pair has an UNKNOWN side, else PASS."""
    outcome = "PASS"
    for a, b in pairs:
        if Status.UNKNOWN in (a.status, b.status):
            outcome = "INCONCLUSIVE"
        elif a.status is not b.status:
            return "FAIL"
    return outcome


@dataclass(frozen=True)
class HarnessRow:
    """Verdict pair at one grid resolution; ``lifted`` is the lift the lift
    verdict was decided on, kept for replay and left out of equality and repr."""

    q: int
    base: Verdict
    lift: Verdict
    lifted: LiftedSystem = field(compare=False, repr=False)

    @property
    def agree(self) -> Optional[bool]:
        return {"PASS": True, "FAIL": False}.get(_outcome([(self.base, self.lift)]))


@dataclass(frozen=True)
class HarnessReport:
    mode: HarnessMode
    rows: tuple[HarnessRow, ...]

    @property
    def outcome(self) -> str:
        return _outcome((row.base, row.lift) for row in self.rows)

    @property
    def consistent_across_q(self) -> bool:
        """Decided lift statuses agree between all tested resolutions."""
        decided = {
            row.lift.status for row in self.rows
            if row.lift.status is not Status.UNKNOWN
        }
        return len(decided) <= 1


def equivalence_harness(
    sys: ActionSystem, q: int, b: Budget, mode: HarnessMode
) -> HarnessReport:
    """Compare the base strong-proximality verdict with the lifted verdict.

    Mode LIFT_PROXIMAL asks whether the lifted system is proximal; mode
    LIFT_STRONG asks whether it is strongly proximal.  Either way the two
    verdicts must agree; UNKNOWN on either side makes the row inconclusive
    rather than failed.  Resolutions 1, 2, 3 are always cross-checked
    alongside the requested q as a stability probe; each row keeps its lift.
    The lifts at all the resolutions come from one ``_lift_systems`` call,
    which folds the grid keys once for all of them.
    """
    base_verdict = strongly_proximal(sys, b)
    rows = []
    resolutions = sorted({1, 2, 3, q})
    for qq, lifted in zip(resolutions, _lift_systems(sys, resolutions)):
        if mode is HarnessMode.LIFT_PROXIMAL:
            lift_verdict = is_proximal(lifted.system, b)
        else:
            lift_verdict = strongly_proximal(lifted.system, b)
        rows.append(HarnessRow(qq, base_verdict, lift_verdict, lifted))
    return HarnessReport(mode, tuple(rows))


def invariant_metas(lifted: LiftedSystem) -> list[MetaMeasure]:
    """Extreme points of the polytope of generator-invariant meta-measures
    on a lift, such as ``lift_system(sys, q)`` for the resolution-q grid.

    Invariance under each generator (hence under the generated semigroup)
    means the pushforward along every lifted atom map reproduces the
    meta-measure.  The support S of an invariant meta-measure is then mapped
    onto itself by every generator, which on a finite set means bijectively.
    So every support lies in the largest set of atoms that all generators
    map bijectively onto itself, the greatest fixed point of
    S -> {x in S : g(x) in S for all g} & (intersection of the g(S)),
    iterated down from all atoms.  There every generator is a permutation,
    and invariance under a permutation means being constant on its cycles;
    the invariant meta-measures are therefore the mixtures of the uniform
    measures on the generator orbits of that set, and those uniform measures
    are the extreme points, returned sorted by weights.

    For a strongly proximal system every extreme point is expected to be a
    point mass at a vertex atom, and a non point-mass extreme certifies
    failure of strong proximality.
    """
    maps = [t.image for t in lifted.generators]
    core = set(range(len(lifted)))
    while True:
        shrunk = {x for x in core if all(g[x] in core for g in maps)}
        for g in maps:
            shrunk &= {g[x] for x in core}
        if shrunk == core:
            break
        core = shrunk

    parent = {x: x for x in core}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in maps:
        for x in core:
            parent[find(x)] = find(g[x])
    orbits: dict[int, list[int]] = {}
    for x in core:
        orbits.setdefault(find(x), []).append(x)

    metas = []
    for orbit in orbits.values():
        weights = [ZERO] * len(lifted)
        for x in orbit:
            weights[x] = Fraction(1, len(orbit))
        metas.append(Measure(tuple(weights)))
    metas.sort(key=lambda mmeas: mmeas.weights)
    return metas
