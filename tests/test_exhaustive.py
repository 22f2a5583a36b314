"""Every small deterministic system, against the brute-force oracles.

Random draws leave gaps; on a few points every system can be checked
instead.  The small scope hypothesis says that most faults show on small
instances (Jackson, *Software Abstractions*, 2006).  The sweeps take every
one- and two-letter system up to letter order: each map alone, and each
unordered pair of maps, a map paired with itself included.
"""

from itertools import combinations_with_replacement, product

from proxilift import (
    ActionSystem,
    Budget,
    FiniteSpace,
    HarnessMode,
    Status,
    equivalence_harness,
    is_proximal,
    lift_system,
    reset_word,
)
from proxilift.proximality import NeverMerges

from helpers import greedy_reset_oracle, mergeable_pairs_oracle, subset_bfs_oracle

B = Budget()


def systems(m: int) -> list[ActionSystem]:
    """The one-letter systems on m points, then the two-letter ones."""
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    maps = list(product(range(m), repeat=m))
    letters = [(g,) for g in maps] + list(combinations_with_replacement(maps, 2))
    return [ActionSystem.deterministic(space, gens) for gens in letters]


SMALL = [sys for m in (1, 2, 3) for sys in systems(m)]


def test_small_sweep_sizes():
    # m^m maps alone, and m^m (m^m + 1) / 2 unordered pairs, for m = 1, 2, 3.
    assert len(SMALL) == (1 + 1) + (4 + 10) + (27 + 378)


def pair_criterion(sys: ActionSystem) -> bool:
    """Whether every pair of points merges under some word."""
    m = len(sys.space)
    return len(mergeable_pairs_oracle(sys)) == m * (m - 1) // 2


def mismatches(sys: ActionSystem) -> list[str]:
    """How ``reset_word`` and ``is_proximal`` differ from the oracles.

    The reset word's status and word must be the subset BFS's.  By Černý's
    pair criterion a reset word exists exactly when every pair merges, and
    on a finite deterministic system proximality is that same criterion; a
    NO must name a pair that never merges.
    """
    status, word, _ = subset_bfs_oracle(sys, B.max_closure)
    v = reset_word(sys, B)
    bad = []
    if (v.status.value, v.witness) != (status, word):
        bad.append(f"reset_word {v.status.value} {v.witness} against "
                   f"{status} {word} on {sys.generators}")
    mergeable = pair_criterion(sys)
    if (status == "YES") != mergeable:
        bad.append(f"the oracles disagree on {sys.generators}")
    prox = is_proximal(sys, B)
    if (prox.status is Status.YES) != mergeable:
        bad.append(f"is_proximal {prox.status.value} on {sys.generators}")
    elif prox.status is Status.NO:
        pair = prox.evidence.pair if isinstance(prox.evidence, NeverMerges) else None
        if pair is None or tuple(sorted(pair)) in mergeable_pairs_oracle(sys):
            bad.append(f"is_proximal NO names a pair that merges: {prox.evidence}")
    return bad


def test_every_small_system_matches_the_oracles():
    assert [bad for sys in SMALL for bad in mismatches(sys)] == []


def test_small_fallback_is_greedys_word():
    # A budget of one set runs out at the first new image, so every
    # system on 2 or 3 points takes the greedy rerun: a NO where greedy
    # merging stops, or greedy's whole word.  One point needs no search.
    tight = Budget(max_closure=1)
    bad = [
        sys.generators
        for sys in SMALL
        if len(sys.space) > 1 and reset_word(sys, tight) != greedy_reset_oracle(sys)
    ]
    assert bad == []


def test_small_lifts_keep_the_reset_word():
    # A word is constant on the q = 2 grid iff it is constant on the points.
    bad = []
    for sys in SMALL:
        if len(sys.space) < 2:
            continue
        base = reset_word(sys, B)
        lift = reset_word(lift_system(sys, 2).system, B)
        if (lift.status, lift.witness) != (base.status, base.witness):
            bad.append(f"lift {lift.status.value} {lift.witness} against "
                       f"base {base.status.value} {base.witness} on {sys.generators}")
    assert bad == []


def test_small_thm_rows_keep_the_base_word():
    # On the grid at q = 1, 2, 3 the lift is strongly proximal exactly when
    # the base is, and a lift word is constant exactly when the base word
    # is, so each row's least shortest lift word is the base's.  At q = 1
    # the lift is the base relabelled: in lexicographic order atom k is the
    # point mass at m - 1 - k.
    bad = []
    for sys in SMALL:
        m = len(sys.space)
        rep = equivalence_harness(sys, 3, B, HarnessMode.LIFT_STRONG)
        assert [row.q for row in rep.rows] == [1, 2, 3]
        relabelled = tuple(
            tuple(m - 1 - g.image[m - 1 - k] for k in range(m)) for g in sys.generators
        )
        assert tuple(g.image for g in rep.rows[0].lifted.generators) == relabelled
        for row in rep.rows:
            base, lift = row.base, row.lift
            if lift.status is not base.status or (
                base.status is Status.YES and lift.witness != base.witness
            ):
                bad.append(f"q={row.q} lift {lift.status.value} {lift.witness} "
                           f"against base {base.status.value} {base.witness} "
                           f"on {sys.generators}")
    assert bad == []


def test_every_four_point_system_matches_the_oracles():
    four = systems(4)
    assert len(four) == 256 + 256 * 257 // 2
    assert [bad for sys in four for bad in mismatches(sys)] == []


def test_the_small_sweep_meets_both_answers():
    # The oracles say YES and NO on 2 and on 3 points alike.
    for m in (2, 3):
        answers = {pair_criterion(sys) for sys in SMALL if len(sys.space) == m}
        assert answers == {True, False}
