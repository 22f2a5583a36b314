"""Proximality engines: pair decisions, reset words, strong proximality."""

import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from proxilift import proximality
from proxilift.proximality import NeverMerges
from proxilift import (
    ActionSystem,
    Budget,
    FiniteSpace,
    Measure,
    Status,
    StochasticMatrix,
    UnsupportedKind,
    ValidationError,
    Verdict,
    decide,
    is_proximal,
    lift_system,
    measure_pair_proximal,
    proximal_pair,
    pushforward,
    reset_word,
    strongly_proximal,
    tv_distance,
)
from helpers import (
    _fraction_single_generator_obstruction,
    _fraction_vertex_search,
    brute_merge_length,
    brute_reset_length,
    difference_closure_oracle,
    fraction_entry_bound,
    fraction_pair_search,
    fraction_strongly_proximal,
    greedy_reset_oracle,
    is_scrambling,
    loop_nibble_tables,
    largest_entry,
    measure_pair_oracle,
    merge_word_oracle,
    mergeable_pairs_oracle,
    never_merges_no,
    products_within,
    rand_block_stochastic_system,
    rand_det_system,
    rand_measure,
    rand_sparse_stochastic_system,
    rand_spread_stochastic_system,
    rand_stochastic,
    subset_bfs_oracle,
    support_pairs_oracle,
)

F = Fraction
B = Budget()


def det_system(*images):
    m = len(images[0])
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.deterministic(space, images)


def rand_images(rng, m):
    """1-3 random maps on m points, about a third of them permutations."""
    images = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 1 / 3:
            images.append(tuple(rng.sample(range(m), m)))
        else:
            images.append(tuple(rng.randrange(m) for _ in range(m)))
    return images


def rand_permutation_system(rng, m):
    """A permutation of m points followed by 1-2 random maps."""
    maps = [tuple(rng.randrange(m) for _ in range(m)) for _ in range(rng.randint(1, 2))]
    return det_system(tuple(rng.sample(range(m), m)), *maps)


def cerny(n):
    """Cerny's C_n: a cycle and a letter merging points 0 and 1."""
    return det_system(
        tuple((i + 1) % n for i in range(n)), (1,) + tuple(range(1, n))
    )


def cerny4():
    return cerny(4)


def two_sink(n):
    """Points 0 and 1 fixed by every letter beside Cerny's C_(n-2) on the
    rest: the pairs (0, 1), (0, x) and (1, x) never merge."""
    return det_system(
        *((0, 1, *(2 + x for x in g.image)) for g in cerny(n - 2).generators)
    )


@pytest.fixture
def searches(monkeypatch):
    """The start pairs of every pair search, in call order: ``_merge_path``
    on stochastic supports, ``_merge_images`` from one pair on the maps of
    a deterministic system."""
    calls = []
    real_path = proximality._merge_path
    real_images = proximality._merge_images

    def counting_path(succ, m, starts):
        starts = list(starts)
        calls.append(starts)
        return real_path(succ, m, starts)

    def counting_images(maps, m, pair):
        calls.append([pair])
        return real_images(maps, m, pair)

    monkeypatch.setattr(proximality, "_merge_path", counting_path)
    monkeypatch.setattr(proximality, "_merge_images", counting_images)
    return calls


def obstructed_pairs(sys, merged):
    """The pairs x < y of the system's points missing from ``merged``."""
    return sorted(set(combinations(range(len(sys.space)), 2)) - merged)


def want_reset(sys):
    """The reset_word verdict the oracles give with no closure budget:
    greedy merging's NO, or the word of the forward subset BFS, which has
    room for every subset."""
    m = len(sys.space)
    if m == 1:
        return Verdict(Status.YES, (), "single point, identity already constant")
    greedy = greedy_reset_oracle(sys)
    if greedy.status is Status.NO:
        return greedy
    status, witness, _ = subset_bfs_oracle(sys, 2 ** (m + 1))
    assert status == "YES"
    point = sys.word_transformation(witness)(0)
    return Verdict(Status.YES, witness, f"word is constant to point {point}")


def assert_reset(sys, budgets):
    """reset_word under each budget gives the oracles' verdict, or the
    greedy word once the budget stops the search; exactly the oracles'
    verdict under a budget of 2^(m + 1), room for every subset on both
    sides.  Returns what each budget gave: "NO", "found" (the oracles'
    word) or "fallback" (the greedy word where it is not the oracles')."""
    want = want_reset(sys)
    greedy = greedy_reset_oracle(sys)
    outcomes = []
    for b in budgets:
        got = reset_word(sys, b)
        if b.max_closure >= 2 ** (len(sys.space) + 1):
            assert got == want
        else:
            assert got in (want, greedy)
        if got.status is Status.NO:
            outcomes.append("NO")
        else:
            outcomes.append("found" if got == want else "fallback")
    return outcomes


def stoch_system(*rows_list):
    m = len(rows_list[0])
    sp = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(
        sp, [StochasticMatrix.from_rows(rows) for rows in rows_list]
    )


class TestVerdictInvariants:
    def test_yes_needs_evidence(self):
        with pytest.raises(ValidationError):
            Verdict(Status.YES)

    def test_no_needs_certificate(self):
        with pytest.raises(ValidationError):
            Verdict(Status.NO)


class TestProximalPair:
    def test_swap_pair_never_merges(self):
        v = proximal_pair(det_system((1, 0)), 0, 1, B)
        assert v.status is Status.NO

    def test_constant_map_merges_in_one_step(self):
        v = proximal_pair(det_system((0, 0), (0, 1)), 0, 1, B)
        assert v.status is Status.YES and len(v.witness) == 1

    def test_cerny_pair(self):
        sys = cerny4()
        v = proximal_pair(sys, 0, 2, B)
        assert v.status is Status.YES
        t = sys.word_transformation(v.witness)
        assert t(0) == t(2)

    def test_same_point_trivially_proximal(self):
        v = proximal_pair(det_system((1, 0)), 1, 1, B)
        assert v.status is Status.YES and v.witness == ()

    def test_same_point_builds_no_merge_table(self, searches):
        det = proximal_pair(cerny(7), 5, 5, B)
        half = F(1, 2)
        stoch = proximal_pair(
            stoch_system([[half, half, 0], [0, half, half], [half, 0, half]]), 2, 2, B
        )
        assert searches == []
        assert det == Verdict(Status.YES, (), "word merges 5 and 5 exactly")
        assert stoch == Verdict(Status.YES, (), "tv already below epsilon for (2,2)")

    def test_lifted_pair_witness_builds_no_table(self, searches):
        # One forward search from the pair, nothing over all pairs.
        lifted = lift_system(cerny(7), 6).system
        assert len(lifted.space) == 924
        word = merge_word_oracle(lifted, 3, 900)
        assert proximal_pair(lifted, 900, 3, B) == Verdict(
            Status.YES, word, "word merges 900 and 3 exactly"
        )
        assert searches == [[(3, 900)]]

    def test_witness_is_shortest(self):
        rng = random.Random(21)
        for _ in range(25):
            m = rng.randint(2, 4)
            sys = rand_det_system(rng, m)
            x, y = rng.randrange(m), rng.randrange(m)
            v = proximal_pair(sys, x, y, B)
            oracle = brute_merge_length(sys, x, y, 8)
            if v.status is Status.YES:
                assert oracle == len(v.witness)
            else:
                assert oracle is None

    def test_matches_merge_word_oracle(self):
        rng = random.Random(47)
        systems = [det_system(*rand_images(rng, rng.randint(2, 9))) for _ in range(200)]
        small = [sys for sys in systems if len(sys.space) <= 4]
        systems += [lift_system(sys, 3).system for sys in small]
        outcomes = Counter()
        for sys in systems:
            m = len(sys.space)
            for x in range(m):
                for y in range(m):
                    word = merge_word_oracle(sys, x, y)
                    if word is None:
                        want = never_merges_no(sys, (min(x, y), max(x, y)))
                    else:
                        want = Verdict(
                            Status.YES, word, f"word merges {x} and {y} exactly"
                        )
                    assert proximal_pair(sys, x, y, B) == want
                    outcomes[want.status] += 1
        assert min(outcomes.values()) >= 1000

    def test_many_generators(self):
        # 300 letters: more first-letter values than one byte holds.
        shifts = [tuple((i + 1) % 5 for i in range(5))] * 299
        sys = det_system(*shifts, (0, 0, 2, 3, 4))
        v = proximal_pair(sys, 2, 3, B)
        assert v.witness == merge_word_oracle(sys, 2, 3) == (0, 0, 0, 299)
        assert is_proximal(sys, B).status is Status.YES
        for b in (B, Budget(max_closure=2)):
            v = reset_word(sys, b)
            assert v.status is Status.YES
            assert sys.word_transformation(v.witness).is_constant()

    def test_invalid_points_rejected(self):
        with pytest.raises(ValidationError):
            proximal_pair(det_system((0, 1)), 0, 5, B)

    @pytest.mark.parametrize("x, y", [(0, 1.0), (0.0, 1), (F(0), 1)])
    def test_non_integer_points_rejected(self, x, y):
        with pytest.raises(ValidationError, match="integers"):
            proximal_pair(det_system((0, 1)), x, y, B)

    def test_stochastic_pair_contracts(self):
        sys = stoch_system([[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])
        v = proximal_pair(sys, 0, 1, B)
        assert v.status is Status.YES
        a = pushforward(sys, v.witness, Measure.point_mass(2, 0))
        b = pushforward(sys, v.witness, Measure.point_mass(2, 1))
        assert tv_distance(a, b) < B.epsilon


class TestMergeImages:
    def test_matches_merge_path_on_singleton_successors(self):
        # The deterministic search against the generic one on successor
        # tuples (p,): the same word and pairs reached from every start.
        rng = random.Random(53)
        systems = [det_system(*rand_images(rng, rng.randint(2, 9))) for _ in range(150)]
        systems += [
            lift_system(sys, 2).system for sys in systems[:40] if len(sys.space) <= 5
        ]
        outcomes = Counter()
        for sys in systems:
            m = len(sys.space)
            maps = [g.image for g in sys.generators]
            succ = [tuple((p,) for p in image) for image in maps]
            for pair in combinations(range(m), 2):
                got = proximality._merge_images(maps, m, pair)
                assert got == proximality._merge_path(succ, m, [pair])
                outcomes[got[0] is None] += 1
        assert min(outcomes.values()) >= 500


class TestIsProximal:
    def test_permutations_not_proximal(self):
        assert is_proximal(det_system((1, 0)), B).status is Status.NO
        assert is_proximal(det_system((1, 2, 0), (0, 2, 1)), B).status is Status.NO

    def test_constant_generator_proximal(self):
        assert is_proximal(det_system((2, 2, 2), (0, 1, 2)), B).status is Status.YES

    def test_cerny_proximal(self):
        assert is_proximal(cerny4(), B).status is Status.YES

    def test_matches_reset_word_on_random_systems(self):
        rng = random.Random(23)
        for _ in range(60):
            sys = rand_det_system(rng, rng.randint(2, 5))
            assert (is_proximal(sys, B).status is Status.YES) == (
                reset_word(sys, B).status is Status.YES
            )

    def test_deterministic_yes_builds_no_table(self, searches):
        # Greedy merging: at most m - 1 searches, each from one pair.  C_7
        # then reads synchronization from its pair table, which the lift
        # never builds (``TestPairTable``).
        for sys in (cerny(7), lift_system(cerny(7), 4).system):
            m = len(sys.space)
            searches.clear()
            assert is_proximal(sys, B) == Verdict(
                Status.YES,
                None,
                f"all {m * (m - 1) // 2} point pairs reach the diagonal",
            )
            assert 1 <= len(searches) <= m - 1
            assert all(len(starts) == 1 for starts in searches)

    def test_no_builds_one_table(self, searches):
        # The NO names the pair where greedy merging stops, after one
        # search from it; the sinks 0 and 1 are fixed, so the closure of
        # (0, 1) is that pair alone.
        sys = two_sink(8)
        want = Verdict(
            Status.NO,
            None,
            "pair (0, 1) never merges: the 1 pairs reachable from it avoid "
            "the diagonal",
            NeverMerges((0, 1), 1),
        )
        assert is_proximal(sys, B) == want == greedy_reset_oracle(sys)
        assert searches == [[(0, 1)]]

    def test_matches_forward_fixed_point_oracle(self):
        rng = random.Random(31)
        systems = []
        for _ in range(240):
            systems.append(det_system(*rand_images(rng, rng.randint(2, 9))))
        lifted = [lift_system(sys, 2).system for sys in systems[:30]]
        verdicts = {"YES": 0, "NO": 0}
        for sys in systems + lifted:
            obstructed = obstructed_pairs(sys, mergeable_pairs_oracle(sys))
            v = is_proximal(sys, B)
            verdicts[v.status.value] += 1
            if not obstructed:
                assert v.status is Status.YES
                continue
            assert v.evidence.pair in obstructed
            assert v == greedy_reset_oracle(sys)
        assert min(verdicts.values()) >= 50

    def test_stochastic_contraction_yes(self):
        sys = stoch_system([[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])
        assert is_proximal(sys, B) == Verdict(
            Status.YES,
            (0,),
            "every two rows of S_w share a column, so dobrushin(S_w) < 1 and "
            "powers of the word contract every pair of measures",
        )

    def test_stochastic_block_system_unknown(self):
        """Two closed classes: no word is scrambling, and the row supports
        decide NO."""
        half = F(1, 2)
        sys = stoch_system(
            [
                [half, half, 0, 0],
                [half, half, 0, 0],
                [0, 0, half, half],
                [0, 0, half, half],
            ]
        )
        assert is_proximal(sys, B) == Verdict(
            Status.NO,
            None,
            "pair (0, 2) never merges: the 4 pairs reachable from it avoid "
            "the diagonal",
            NeverMerges((0, 2), 4),
        )

    def test_doubly_deterministic_delegates(self):
        sys = stoch_system([[0, 1], [1, 0]])
        assert is_proximal(sys, B).status is Status.NO


class TestResetWord:
    def test_single_constant(self):
        v = reset_word(det_system((0, 0), (1, 0)), B)
        assert v.status is Status.YES and len(v.witness) == 1

    def test_permutation_group_has_no_reset(self):
        v = reset_word(det_system((1, 2, 0), (1, 0, 2)), B)
        assert v.status is Status.NO

    def test_cerny_shortest_is_nine(self):
        sys = cerny4()
        v = reset_word(sys, B)
        assert v.status is Status.YES
        assert len(v.witness) == 9
        assert sys.word_transformation(v.witness).is_constant()
        assert brute_reset_length(sys, 9) == 9

    def test_minimal_length_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(30):
            sys = rand_det_system(rng, rng.randint(2, 4))
            v = reset_word(sys, B)
            oracle = brute_reset_length(sys, 7)
            if v.status is Status.YES and len(v.witness) <= 7:
                assert len(v.witness) == oracle
            elif v.status is Status.NO:
                assert oracle is None

    def test_deterministic_tie_break(self):
        sys = cerny4()
        assert reset_word(sys, B).witness == reset_word(sys, B).witness

    def test_greedy_fallback_under_tiny_closure_budget(self):
        sys = cerny4()
        tight = Budget(max_word_len=64, max_closure=3)
        v = reset_word(sys, tight)
        assert v.status is Status.YES
        assert sys.word_transformation(v.witness).is_constant()

    def test_fallback_obstruction_is_exact(self):
        # 0 and 1 merge, but 2 and 3 stay fixed forever; the subset budget
        # of 2 would stop the subset search, and greedy merging decides first:
        # from (0, 2) it reaches (1, 2) and no other pair.
        sys = det_system((0, 0, 2, 3), (1, 1, 2, 3))
        tight = Budget(max_word_len=64, max_closure=2)
        assert reset_word(sys, tight) == reset_word(sys, B) == Verdict(
            Status.NO,
            None,
            "pair (0, 2) never merges: the 2 pairs reachable from it avoid "
            "the diagonal",
            NeverMerges((0, 2), 2),
        )

    def test_no_skips_the_subset_search(self, searches, monkeypatch):
        # The NO is greedy merging's at any closure budget, and the subset
        # search, which starts by building nibble tables, never runs.
        nibbles = []
        monkeypatch.setattr(
            proximality, "_nibble_tables", lambda *args: nibbles.append(args)
        )
        sys = two_sink(8)
        assert reset_word(sys, Budget(max_closure=1)) == greedy_reset_oracle(sys)
        assert searches == [[(0, 1)]] and nibbles == []

    def test_cerny_words_have_cerny_length(self):
        # C_n's shortest reset word has (n - 1)^2 letters (Cerny 1964).
        for n in range(2, 31):
            sys = cerny(n)
            v = reset_word(sys, B)
            assert len(v.witness) == (n - 1) ** 2
            assert v.certificate.startswith("word is constant to point ")
            assert sys.word_transformation(v.witness).is_constant()

    def test_both_sides_fit_a_small_budget(self):
        # The forward BFS alone runs out of 2000 subsets on C_20 (and of
        # 100000); the two sides meet well inside them.
        sys = cerny(20)
        tight = Budget(max_closure=2000)
        assert subset_bfs_oracle(sys, tight.max_closure)[0] == "BUDGET"
        v = reset_word(sys, tight)
        assert len(v.witness) == 361 and v != greedy_reset_oracle(sys)
        assert sys.word_transformation(v.witness).is_constant()

    def test_lift_builds_no_preimage_table(self, monkeypatch):
        # The forward side finds the 924-atom lift's word alone, so only
        # the image tables, one per letter, are built.
        nibbles = []
        real = proximality._nibble_tables

        def counting(masks, m):
            nibbles.append(masks)
            return real(masks, m)

        monkeypatch.setattr(proximality, "_nibble_tables", counting)
        lifted = lift_system(cerny(7), 6).system
        v = reset_word(lifted, B)
        assert len(lifted.space) == 924
        assert lifted.word_transformation(v.witness).is_constant()
        assert nibbles == [[1 << y for y in g.image] for g in lifted.generators]

    def test_greedy_fallback_needs_no_word_budget(self):
        sys = cerny(8)
        tight = Budget(max_word_len=1, max_closure=2)
        v = reset_word(sys, tight)
        assert v == greedy_reset_oracle(sys)
        assert sys.word_transformation(v.witness).is_constant()
        assert strongly_proximal(sys, tight).witness == v.witness

    def test_matches_subset_bfs_oracle(self):
        # Sizes 7-9 and 15-17 put the last point on either side of a byte
        # (and a nibble) boundary of the subset mask.
        rng = random.Random(41)
        sizes = [7, 8, 9, 15, 16, 17] * 5 + [rng.randint(1, 20) for _ in range(190)]
        systems = [det_system(*rand_images(rng, m)) for m in sizes]
        small = [sys for sys in systems if len(sys.space) <= 5]
        systems += [lift_system(sys, 3).system for sys in small[:30]]
        outcomes = Counter()
        for sys in systems:
            exact = Budget(max_closure=2 ** (len(sys.space) + 1))
            outcomes.update(assert_reset(sys, [B, Budget(max_closure=50), exact]))
        assert all(outcomes[k] >= 30 for k in ("NO", "found", "fallback"))

    def test_meets_at_the_widest_size(self, monkeypatch):
        # A set lies inside a backward set only if it is no larger, so the
        # search tests a set only when its size is at most the largest size
        # of the backward level.  Here the first meet of each system is a
        # forward set as large as the widest set of its level, singletons
        # aside, which needs the bound to be inclusive.
        first = []  # the sizes at the first meet of one search
        real = proximality._inside

        def spying(mask, level):
            inside = real(mask, level)
            if inside and not first:
                widest = 1 if level is None else max(map(int.bit_count, level))
                first.append((mask.bit_count(), widest, level is None))
            return inside

        monkeypatch.setattr(proximality, "_inside", spying)
        rng = random.Random(53)
        equal = 0
        for _ in range(400):
            sys = rand_permutation_system(rng, rng.randint(2, 12))
            first.clear()
            assert reset_word(sys, B) == want_reset(sys)
            if first:
                size, widest, singletons = first[0]
                assert size <= widest
                equal += size == widest and not singletons
        assert equal >= 20

    def test_empty_frontier_raises(self, monkeypatch):
        # A forged synchronization test on the swap, which has no reset
        # word: it reports that one exists, so the subset search runs, and
        # the full set is the only image, so the forward side runs empty
        # before any meet.  The search must raise instead of looping; the
        # alarm turns a hang into a failure.
        monkeypatch.setattr(proximality, "_synchronizes", lambda maps, m: None)

        def hang(signum, frame):
            raise TimeoutError("reset_word did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(RuntimeError, match="reset_word subset search"):
                reset_word(det_system((1, 0)), B)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_stochastic_rejected(self):
        sys = stoch_system([[F(1, 2), F(1, 2)], [0, 1]])
        with pytest.raises(UnsupportedKind):
            reset_word(sys, B)

    def test_zero_one_stochastic_matches_deterministic(self):
        # A closure budget of 2 sends the 0/1 matrices through the greedy
        # fallback, which must compose them as transformations too.
        det = cerny4()
        sto = ActionSystem.stochastic(
            det.space,
            [StochasticMatrix.from_transformation(g) for g in det.generators],
        )
        for b in (B, Budget(max_closure=2)):
            assert reset_word(sto, b) == reset_word(det, b)
            assert strongly_proximal(sto, b) == strongly_proximal(det, b)


class TestStronglyProximal:
    def test_deterministic_matches_reset(self):
        rng = random.Random(31)
        for _ in range(40):
            sys = rand_det_system(rng, rng.randint(2, 5))
            assert strongly_proximal(sys, B).status is reset_word(sys, B).status

    def test_witness_collapses_grid(self):
        from proxilift import grid_atoms

        sys = cerny4()
        v = strongly_proximal(sys, B)
        assert v.status is Status.YES
        for atom in grid_atoms(4, 2):
            assert pushforward(sys, v.witness, atom).is_point_mass()

    def test_stochastic_rank_one_projection(self):
        sys = stoch_system([[1, 0], [1, 0]])
        v = strongly_proximal(sys, B)
        assert v.status is Status.YES and v.witness == (0,)

    def test_lazy_chain_is_not_strongly_proximal(self):
        sys = stoch_system([[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])
        v = strongly_proximal(sys, B)
        assert v.status is Status.NO
        assert "stationary" in v.certificate

    @pytest.mark.parametrize(
        "epsilon, status", [(F(1, 4), Status.NO), (F(1, 3), Status.UNKNOWN)]
    )
    def test_entry_bound_meets_epsilon(self, epsilon, status):
        # The largest entry 3/4 is at most 1 - 1/4 but not 1 - 1/3; without
        # the bound the vertex search runs out of words.
        sys = stoch_system(
            [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]],
            [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]],
        )
        v = strongly_proximal(sys, Budget(epsilon=epsilon))
        assert v.status is status
        if status is Status.NO:
            assert v.certificate == (
                "every generator entry is at most 3/4 <= 1 - epsilon, so every "
                "row of every nonempty word stays tv >= 1/4 from every vertex"
            )

    def test_block_system_unknown(self):
        """Two closed classes: no word crowds a vertex, and the row supports
        decide NO."""
        half = F(1, 2)
        sys = stoch_system(
            [
                [half, half, 0, 0],
                [half, half, 0, 0],
                [0, 0, half, half],
                [0, 0, half, half],
            ]
        )
        assert strongly_proximal(sys, B) == Verdict(
            Status.NO,
            None,
            "no word crowds all rows near one vertex (pair (0, 2) never "
            "merges: the 4 pairs reachable from it avoid the diagonal)",
            NeverMerges((0, 2), 4),
        )

    def test_doubly_deterministic_delegates(self):
        sys = stoch_system([[0, 1], [1, 0]])
        assert strongly_proximal(sys, B).status is Status.NO


class TestStochasticSearches:
    def test_match_fraction_oracle(self):
        # A pair of row supports that never merges decides NO; is_proximal
        # names one and otherwise answers with a scrambling word.  Every
        # other verdict is a greedy search's, which the oracle runs on
        # Fraction matrices, so the long budget and the general measure pair
        # run on a quarter of the systems each.  A third of the systems keep
        # two classes closed.
        rng = random.Random(43)
        outcomes = Counter()
        for i in range(200):
            if i % 3 == 2:
                m = rng.randint(3, 6)
                sys = rand_block_stochastic_system(rng, m)
            else:
                m = rng.randint(2, 6)
                sys = rand_sparse_stochastic_system(rng, m)
            b = Budget(max_word_len=(64, 16, 16, 16)[i % 4])
            x, y = rng.sample(range(m), 2)
            mu, nu = rand_measure(rng, m, 6), rand_measure(rng, m, 6)
            obstructed = obstructed_pairs(sys, support_pairs_oracle(sys))
            prox = is_proximal(sys, b)
            if obstructed:
                assert prox.evidence.pair in obstructed
                want = never_merges_no(sys, prox.evidence.pair)
                strong = never_merges_no(
                    sys,
                    prox.evidence.pair,
                    "no word crowds all rows near one vertex ({})",
                )
            else:
                assert prox.status is Status.YES
                assert is_scrambling(sys, prox.witness)
                want = prox
                strong = fraction_strongly_proximal(sys, b)
            pair = (min(x, y), max(x, y))
            if pair in obstructed:
                pair_want = never_merges_no(sys, pair)
            else:
                pair_want = fraction_pair_search(
                    sys,
                    Measure.point_mass(m, x),
                    Measure.point_mass(m, y),
                    b,
                    f"({x},{y})",
                )
            pairs = [
                (prox, want),
                (strongly_proximal(sys, b), strong),
                (proximal_pair(sys, x, y, b), pair_want),
            ]
            if i % 4 == 1:
                pairs.append(
                    (
                        measure_pair_proximal(sys, mu, nu, b),
                        fraction_pair_search(sys, mu, nu, b, "(mu,nu)"),
                    )
                )
            for got, want in pairs:
                assert got == want
                outcomes[want.status] += 1
        assert min(outcomes.values()) >= 15


class TestMeasurePairProximal:
    def test_constant_map_pushes_together(self):
        sys = det_system((0, 0, 0), (1, 2, 0))
        mu = Measure.from_weights([F(1, 2), F(1, 4), F(1, 4)])
        nu = Measure.uniform(3)
        v = measure_pair_proximal(sys, mu, nu, B)
        assert v.status is Status.YES
        assert pushforward(sys, v.witness, mu) == pushforward(sys, v.witness, nu)

    def test_swap_separates_vertex_masses(self):
        # delta_0 - delta_1 = (1, -1) and the swap alternates it with
        # (-1, 1): two differences, neither zero.
        sys = det_system((1, 0))
        v = measure_pair_proximal(
            sys, Measure.point_mass(2, 0), Measure.point_mass(2, 1), B
        )
        assert v == Verdict(
            Status.NO,
            None,
            "the 2 differences reachable from mu - nu are all nonzero",
        )

    def test_half_sum_device_on_strongly_proximal_systems(self):
        # mu and nu are recovered as the two halves of (mu + nu)/2; on a
        # strongly proximal system the pair must merge, and the reset word
        # is itself a common witness.
        rng = random.Random(37)
        found = 0
        while found < 12:
            sys = rand_det_system(rng, rng.randint(2, 4))
            r = reset_word(sys, B)
            if r.status is not Status.YES:
                continue
            found += 1
            m = len(sys.space)
            mu, nu = rand_measure(rng, m), rand_measure(rng, m)
            v = measure_pair_proximal(sys, mu, nu, B)
            assert v.status is Status.YES
            assert pushforward(sys, r.witness, mu) == pushforward(
                sys, r.witness, nu
            )

    def test_stochastic_descent(self):
        sys = stoch_system([[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])
        rng = random.Random(38)
        mu, nu = rand_measure(rng, 2), rand_measure(rng, 2)
        v = measure_pair_proximal(sys, mu, nu, B)
        assert v.status is Status.YES
        a = pushforward(sys, v.witness, mu)
        b = pushforward(sys, v.witness, nu)
        assert tv_distance(a, b) < B.epsilon

    def test_budget_exhaustion_is_unknown(self):
        sys = det_system((1, 2, 3, 0), (1, 1, 2, 3))
        tiny = Budget(max_word_len=64, max_closure=2)
        mu = Measure.point_mass(4, 0)
        nu = Measure.point_mass(4, 2)
        assert measure_pair_proximal(sys, mu, nu, tiny).status is Status.UNKNOWN

    def test_budget_exhaustion_falls_back_to_greedy_reset(self):
        # A budget of 15 holds every point pair of C_6, so greedy merging
        # runs once the differences run out; its constant word pushes both
        # measures to one point mass.
        sys = cerny(6)
        mu = Measure.from_weights([F(1, 2), F(1, 3), 0, 0, F(1, 6), 0])
        nu = Measure.uniform(6)
        v = measure_pair_proximal(sys, mu, nu, Budget(max_closure=15))
        assert v == Verdict(
            Status.YES,
            greedy_reset_oracle(sys).witness,
            "difference budget exhausted (max_closure=15); the greedy constant "
            "word pushes both measures to one point mass (witness may be "
            "non-minimal)",
        )
        assert sys.word_transformation(v.witness).is_constant()
        assert measure_pair_oracle(sys, mu, nu, B).status is Status.YES


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Budget(max_word_len=0)
        with pytest.raises(ValidationError):
            Budget(epsilon=F(3, 2))


@st.composite
def det_systems(draw):
    """A deterministic system on 1-7 points with 1-3 generators, or its
    lift to the grid of resolution 1-3."""
    m = draw(st.integers(1, 7))
    point = st.integers(0, m - 1)
    gens = draw(st.lists(st.tuples(*[point] * m), min_size=1, max_size=3))
    sys = det_system(*gens)
    q = draw(st.integers(0, 3))
    return lift_system(sys, q).system if q else sys


@st.composite
def permutation_systems(draw):
    """A system of ``rand_permutation_system`` on 2-12 points."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rand_permutation_system(rng, rng.randint(2, 12))


@st.composite
def stochastic_systems(draw):
    """A stochastic system on 2-5 points with 1-3 generators, from the
    dense, sparse, spread or block builder of ``helpers``, with some entry
    strictly between 0 and 1.  Spread systems have no point-mass row."""
    kind = draw(st.sampled_from(["dense", "sparse", "spread", "block"]))
    m = draw(st.integers(3 if kind == "block" else 2, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        return rand_sparse_stochastic_system(rng, m)
    if kind == "spread":
        return rand_spread_stochastic_system(rng, m)
    if kind == "block":
        return rand_block_stochastic_system(rng, m)
    gens = [rand_stochastic(rng, m, 4) for _ in range(draw(st.integers(1, 3)))]
    assume(not all(g.is_deterministic() for g in gens))
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(space, gens)


@st.composite
def one_generator_systems(draw):
    """A one-generator stochastic system on 2-7 points: an m-cycle plus
    one random extra entry and a random set of others, so the stationary
    law is unique with full support and sparse rows make the least
    contracting power long; or, one draw in four, a dense matrix of
    ``rand_stochastic``."""
    m = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        gen = rand_stochastic(rng, m, 4)
    else:
        cycle = list(range(m))
        rng.shuffle(cycle)
        spread = rng.choice((0, 0.1, 0.3))
        extra = rng.randrange(m)
        rows = []
        for i in range(m):
            support = {cycle[(cycle.index(i) + 1) % m]}
            support |= {j for j in range(m) if rng.random() < spread}
            if i == extra:
                support.add(rng.randrange(m))
            nums = {j: rng.randint(1, 3) for j in support}
            total = sum(nums.values())
            rows.append([F(nums.get(j, 0), total) for j in range(m)])
        gen = StochasticMatrix.from_rows(rows)
    assume(not gen.is_deterministic())
    space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
    return ActionSystem.stochastic(space, [gen])


@st.composite
def base_systems(draw):
    """A system of ``det_systems``, the same as 0/1 stochastic matrices, or
    one of ``stochastic_systems``; with its deterministic view, or None."""
    kind = draw(st.sampled_from(["det", "zero-one", "stochastic"]))
    if kind == "stochastic":
        return draw(stochastic_systems()), None
    det = draw(det_systems())
    if kind == "det":
        return det, det
    gens = [StochasticMatrix.from_transformation(g) for g in det.generators]
    return ActionSystem.stochastic(det.space, gens), det


@st.composite
def measure_pairs(draw):
    """A system of ``rand_images`` on 1-6 points, as maps or as 0/1
    stochastic matrices, its deterministic view, and two measures of
    ``rand_measure`` (equal in a fifth of the draws)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = rng.randint(1, 6)
    det = det_system(*rand_images(rng, m))
    sys = det
    if draw(st.booleans()):
        gens = [StochasticMatrix.from_transformation(g) for g in det.generators]
        sys = ActionSystem.stochastic(det.space, gens)
    mu = rand_measure(rng, m, 6)
    nu = mu if rng.random() < 0.2 else rand_measure(rng, m, 6)
    return sys, det, mu, nu


class TestDifferential:
    """The fast paths against the brute-force oracles in ``helpers``."""

    @pytest.mark.parametrize("max_word_len", [1, 2, 3, 4, 64])
    def test_single_generator_obstruction_matches_oracle(self, max_word_len):
        # The obstruction reads its power off greedy row merging's word; the
        # oracle tries the powers S, S^2, ... in Fraction arithmetic.  With
        # no scrambling word no power contracts, and no obstruction holds.
        b = Budget(max_word_len=max_word_len)
        outcomes = Counter()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(one_generator_systems())
        def check(sys):
            want = _fraction_single_generator_obstruction(sys, b)
            prox = is_proximal(sys, b)
            if prox.status is Status.YES:
                got = proximality._single_generator_obstruction(sys, b, prox)
                assert got == want
                k = len(prox.witness)
                outcomes[want is None, k > max_word_len, k > 1] += 1
            else:
                assert want is None

        check()
        # NOs at S itself and at higher powers, and past a short budget
        # the None that the power loop gives there too.
        assert outcomes[False, False, False] >= 5
        assert outcomes[False, False, True] >= 5 or max_word_len == 1
        assert outcomes[True, True, True] >= 5 or max_word_len == 64

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(base_systems())
    def test_decide_matches_oracles(self, drawn):
        # Room for every subset on both sides, so the reset word is the
        # oracles'; a short word budget keeps the stochastic searches cheap.
        sys, det = drawn
        b = Budget(max_word_len=8, max_closure=2 ** (len(sys.space) + 1))
        prox, strong, reset = decide(sys, b)
        assert prox == is_proximal(sys, b)
        if det is None:
            assert reset is None
            unmergeable = obstructed_pairs(sys, support_pairs_oracle(sys))
            if unmergeable:
                want = never_merges_no(
                    sys,
                    prox.evidence.pair,
                    "no word crowds all rows near one vertex ({})",
                )
            else:
                want = fraction_strongly_proximal(sys, b)
        else:
            assert reset == want_reset(det) == reset_word(sys, b)
            if reset.status is Status.YES:
                want = Verdict(
                    Status.YES,
                    reset.witness,
                    "reset word collapses every measure to a point mass",
                )
            else:
                want = Verdict(
                    Status.NO,
                    None,
                    f"no constant word exists ({reset.certificate})",
                    reset.evidence,
                )
        assert strong == want == strongly_proximal(sys, b)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(det_systems(), permutation_systems()))
    def test_reset_word_matches_subset_bfs(self, sys):
        # With room for every subset on both sides, the bidirectional search
        # and its size filters give the forward subset BFS's word.
        exact = Budget(max_closure=2 ** (len(sys.space) + 1))
        assert reset_word(sys, exact) == want_reset(sys)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(det_systems(), st.data())
    def test_deterministic_procedures_match_oracles(self, sys, data):
        m = len(sys.space)
        obstructed = obstructed_pairs(sys, mergeable_pairs_oracle(sys))
        if obstructed:
            prox = greedy_reset_oracle(sys)
            assert prox.evidence.pair in obstructed
        elif m == 1:
            prox = Verdict(Status.YES, None, "single point, trivially proximal")
        else:
            prox = Verdict(
                Status.YES,
                None,
                f"all {m * (m - 1) // 2} point pairs reach the diagonal",
            )
        assert is_proximal(sys, B) == prox
        assert_reset(
            sys,
            [Budget(max_closure=c) for c in (500, 2, 2 ** (len(sys.space) + 1))],
        )
        x = data.draw(st.integers(0, m - 1))
        y = data.draw(st.integers(0, m - 1))
        word = merge_word_oracle(sys, x, y)
        if word is None:
            pair = never_merges_no(sys, (min(x, y), max(x, y)))
        else:
            pair = Verdict(Status.YES, word, f"word merges {x} and {y} exactly")
        assert proximal_pair(sys, x, y, B) == pair

    def test_measure_pairs_match_pair_bfs(self):
        # Wherever the BFS over Measure pairs decides within the budget, the
        # search over differences gives its status and word; every NO counts
        # the differences that a fixed point over Fraction vectors reaches.
        # A budget run out falls back to the greedy constant word when the
        # budget holds every point pair (max_closure = 6 does up to m = 4),
        # and otherwise, or when there is no constant word, stays UNKNOWN.
        outcomes = Counter()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(measure_pairs())
        def check(drawn):
            sys, det, mu, nu = drawn
            m = len(sys.space)
            greedy = greedy_reset_oracle(det)
            for closure in (300, 6):
                b = Budget(max_closure=closure)
                got = measure_pair_proximal(sys, mu, nu, b)
                want = measure_pair_oracle(sys, mu, nu, b)
                if want.status is not Status.UNKNOWN:
                    assert (got.status, got.witness) == (want.status, want.witness)
                spent = f"difference budget exhausted (max_closure={closure})"
                fell_back = got.certificate.startswith(spent)
                holds_pairs = m * (m - 1) <= 2 * closure
                may_fall_back = holds_pairs and greedy.status is Status.YES
                if got.status is Status.NO:
                    reached = difference_closure_oracle(det, mu, nu)
                    assert got.certificate == (
                        f"the {reached} differences reachable from mu - nu are "
                        "all nonzero"
                    )
                    # The budget counts exactly the differences stored.
                    exact = Budget(max_closure=reached)
                    assert measure_pair_proximal(sys, mu, nu, exact) == got
                    if reached > 1:
                        short = Budget(max_closure=reached - 1)
                        v = measure_pair_proximal(sys, mu, nu, short)
                        assert v.status is not Status.NO
                elif got.status is Status.UNKNOWN:
                    assert got.certificate == spent
                    assert not may_fall_back
                else:
                    if fell_back:
                        assert may_fall_back
                        assert got.witness == greedy.witness
                    assert pushforward(sys, got.witness, mu) == pushforward(
                        sys, got.witness, nu
                    )
                outcomes[got.status, fell_back] += 1

        check()
        assert outcomes[Status.YES, False] >= 100
        assert outcomes[Status.NO, False] >= 50
        assert outcomes[Status.YES, True] >= 10
        assert outcomes[Status.UNKNOWN, True] >= 20

    def test_entry_bound_no(self):
        # Where no generator entry exceeds 1 - epsilon, every short product
        # keeps its entries at most the largest one, and the vertex search
        # can only run out of words.  The bound must decide at least 20 of
        # the drawn systems.
        decided = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(stochastic_systems())
        def check(sys):
            b = Budget(max_word_len=8)
            bound = fraction_entry_bound(sys, b)
            if bound is None:
                return
            assert products_within(sys, largest_entry(sys), 3)
            assert _fraction_vertex_search(sys, b).status is Status.UNKNOWN
            if strongly_proximal(sys, b) == bound:
                decided.append(sys)

        check()
        assert len(decided) >= 20

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stochastic_systems())
    def test_stochastic_pair_verdicts_match_support_oracle(self, sys):
        # Pair NOs do not depend on the budget; a short one keeps the tv
        # searches of the mergeable pairs cheap.
        b = Budget(max_word_len=8)
        unmergeable = obstructed_pairs(sys, support_pairs_oracle(sys))
        prox = is_proximal(sys, b)
        if unmergeable:
            assert prox.evidence.pair in unmergeable
            assert prox == never_merges_no(sys, prox.evidence.pair)
            assert strongly_proximal(sys, b) == never_merges_no(
                sys,
                prox.evidence.pair,
                "no word crowds all rows near one vertex ({})",
            )
        else:
            assert prox.status is Status.YES
            assert is_scrambling(sys, prox.witness)
        for x, y in combinations(range(len(sys.space)), 2):
            v = proximal_pair(sys, x, y, b)
            if (x, y) in unmergeable:
                assert v == never_merges_no(sys, (x, y))
            else:
                assert v.status is not Status.NO


@st.composite
def pair_table_systems(draw):
    """A deterministic system on 1-7 points with 1-3 generators, or its
    lift at q <= 3, kept to at most 21 points so that the per-pair oracles
    stay cheap."""
    q = draw(st.integers(0, 3))
    m = draw(st.integers(1, {0: 7, 1: 7, 2: 6, 3: 4}[q]))
    point = st.integers(0, m - 1)
    gens = draw(st.lists(st.tuples(*[point] * m), min_size=1, max_size=3))
    sys = det_system(*gens)
    return lift_system(sys, q).system if q else sys


@st.composite
def sunk_cerny(draw):
    """Cerny's C_n on the points 0..n-1, relabelled, beside 1-2 points fixed
    by both letters: never synchronizing, and greedy merging collapses the
    Cerny part before it reaches a pair with a fixed point."""
    n = draw(st.integers(2, 14))
    return relabelled_cerny(draw(st.permutations(range(n))), draw(st.integers(1, 2)))


def relabelled_cerny(perm, sinks=0):
    """Cerny's C_n with point x relabelled perm[x], and ``sinks`` points
    n, n + 1, ... fixed by both letters."""
    n = len(perm)
    images = []
    for g in cerny(n).generators:
        image = list(range(n + sinks))
        for x, y in enumerate(g.image):
            image[perm[x]] = perm[y]
        images.append(tuple(image))
    return det_system(*images)


class TestPairTable:
    """``_pair_distances``, the one backward search over pairs, and greedy
    merging once it switches to walking that table."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair_table_systems())
    def test_walk_matches_merge_images_and_oracle(self, sys):
        m = len(sys.space)
        maps = [g.image for g in sys.generators]
        dist = proximality._pair_distances(maps, m)
        for x, y in combinations(range(m), 2):
            word, _ = proximality._merge_images(maps, m, (x, y))
            assert word == merge_word_oracle(sys, x, y)
            if word is None:
                assert x * m + y not in dist
            else:
                assert dist[x * m + y] == len(word)
                assert proximality._table_word(maps, m, dist, (x, y)) == word

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair_table_systems())
    def test_full_table_exactly_when_every_pair_merges(self, sys):
        m = len(sys.space)
        maps = [g.image for g in sys.generators]
        dist = proximality._pair_distances(maps, m)
        merged = mergeable_pairs_oracle(sys)
        assert {divmod(pid, m) for pid in dist} == merged
        every = merged == set(combinations(range(m), 2))
        assert (len(dist) == m * (m - 1) // 2) == every

    def test_greedy_with_the_switch_matches_oracle(self):
        # Both sides of the switch must occur: greedy merging that ends
        # before its searches reach m(m - 1)/2 pairs, and greedy merging
        # that walks the table to a YES or to the pair where it stops.
        outcomes = Counter()
        builds = []
        real = proximality._pair_distances

        def counting(maps, m):
            builds.append(m)
            return real(maps, m)

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(
            st.one_of(pair_table_systems(), permutation_systems(), sunk_cerny())
        )
        def check(sys):
            m = len(sys.space)
            maps = [g.image for g in sys.generators]
            want = greedy_reset_oracle(sys)
            builds.clear()
            stop = proximality._synchronizes(maps, m)
            # None exactly when a reset word exists, else greedy's NO.
            if want.status is Status.YES:
                assert stop is None
            else:
                assert stop == want
            switched = bool(builds)
            assert proximality._greedy_reset(sys) == want
            outcomes[want.status, switched] += 1

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(proximality, "_pair_distances", counting)
            check()
        assert min(
            outcomes[status, switched]
            for status in (Status.YES, Status.NO)
            for switched in (False, True)
        ) >= 10

    @pytest.mark.parametrize(
        "sys, pairs",
        [
            (cerny(20), [(0, 1), (1, 2)]),
            # C_18 on points 0..17, 18 and 19 fixed: (1, 18) never merges.
            (
                det_system(
                    tuple((i + 1) % 18 for i in range(18)) + (18, 19),
                    (1,) + tuple(range(1, 18)) + (18, 19),
                ),
                [(0, 1), (1, 2), (1, 18)],
            ),
        ],
        ids=["cerny20", "two-sink20"],
    )
    def test_each_distinct_pair_searched_once(self, sys, pairs, searches):
        # Greedy merging comes back to (1, 2) eight or more times on both
        # systems; each pair is searched once, and the verdicts are still
        # those of the oracle, which searches every piece afresh.
        m = len(sys.space)
        want = greedy_reset_oracle(sys)
        stop = proximality._synchronizes([g.image for g in sys.generators], m)
        assert stop == (None if want.status is Status.YES else want)
        assert searches == [[pair] for pair in pairs]
        searches.clear()
        assert proximality._greedy_reset(sys) == want
        assert searches == [[pair] for pair in pairs]

    def test_relabelled_cerny20_builds_the_table(self, monkeypatch):
        builds = []
        real = proximality._pair_distances

        def counting(maps, m):
            builds.append(m)
            return real(maps, m)

        monkeypatch.setattr(proximality, "_pair_distances", counting)
        sys = relabelled_cerny(random.Random(20).sample(range(20), 20))
        prox, strong, reset = decide(sys, B)
        assert builds == [20]
        assert len(reset.witness) == 361 and prox.status is Status.YES
        assert sys.word_transformation(reset.witness).is_constant()

    def test_cerny7_lift_builds_no_table(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            proximality, "_pair_distances", lambda maps, m: builds.append(m)
        )
        lifted = lift_system(cerny(7), 6).system
        assert len(lifted.space) == 924
        prox, strong, reset = decide(lifted, B)
        assert builds == []
        assert prox.status is strong.status is Status.YES
        assert lifted.word_transformation(reset.witness).is_constant()


class TestNibbleTables:
    """``_nibble_tables`` against the per-entry loop, and ``_map_set``
    against images and preimages taken point by point."""

    @pytest.mark.parametrize("m", range(1, 41))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_tables_match_loop_and_map_sets(self, m, data):
        g = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        mask = data.draw(st.integers(0, (1 << m) - 1), label="set")
        image = [1 << y for y in g]
        preimage = [0] * m
        for x, y in enumerate(g):
            preimage[y] |= 1 << x
        raw = mask.to_bytes((m + 7) // 8, "little")
        points = [x for x in range(m) if mask >> x & 1]
        for masks, want in (
            (image, sum({1 << g[x] for x in points})),
            (preimage, sum(1 << x for x in range(m) if g[x] in points)),
        ):
            tables = proximality._nibble_tables(masks, m)
            assert tables == loop_nibble_tables(masks, m)
            assert proximality._map_set(tables, raw) == want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sparse_sets_map_like_every_byte(self, data):
        # Sets of a wide lift are mostly whole zero bytes, which the mapper
        # skips; it must give what the loop tables give on every byte, and
        # the image and preimage taken point by point.
        m = data.draw(st.integers(9, 100).filter(lambda m: m % 8), label="m")
        width = (m + 7) // 8
        g = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        filled = data.draw(
            st.sets(st.integers(0, width - 1), max_size=width // 2), label="bytes"
        )
        mask = 0
        for k in filled:
            mask |= data.draw(st.integers(1, 255)) << 8 * k
        mask &= (1 << m) - 1
        raw = mask.to_bytes(width, "little")
        assert raw.count(0) >= width - len(filled)
        points = [x for x in range(m) if mask >> x & 1]
        preimage = [0] * m
        for x, y in enumerate(g):
            preimage[y] |= 1 << x
        for masks, want in (
            ([1 << y for y in g], sum({1 << g[x] for x in points})),
            (preimage, sum(1 << x for x in range(m) if g[x] in points)),
        ):
            loop = loop_nibble_tables(masks, m)
            every_byte = 0
            for (low, high), byte in zip(loop, raw):
                every_byte |= low[byte & 15] | high[byte >> 4]
            assert every_byte == want
            assert proximality._map_set(proximality._nibble_tables(masks, m), raw) == want
