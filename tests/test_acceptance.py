"""The ten acceptance gates.

Each criterion is one test that prints exactly one `[criterion NN] ...: PASS`
or `: FAIL` line (run with -s or read the captured output).  Expected values
come from independent oracles in helpers.py or from hand-checked examples,
never from the code under test.
"""

import hashlib
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from proxilift import (
    Budget,
    FiniteSpace,
    HarnessMode,
    Kind,
    Measure,
    SemigroupTable,
    SimplexModel,
    AffineVertexMap,
    Status,
    corollary_harness,
    dobrushin,
    equivalence_harness,
    f_equivariance_check,
    invariant_metas,
    is_proximal,
    lift_system,
    meta_is_vertex_point_mass,
    psi_checks,
    psi_homomorphism_check,
    pushforward,
    reset_word,
    tv_distance,
    w1_distance,
)
from proxilift.cli import main
from helpers import (
    brute_force_w1,
    brute_reset_length,
    rand_det_system,
    rand_grid_measure,
    rand_measure,
    rand_metric_space,
    rand_stochastic,
)

F = Fraction
B = Budget()
SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

CORPUS_SIZE = 200


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260814)
    return [
        rand_det_system(rng, rng.randint(2, 5), max_gens=3)
        for _ in range(CORPUS_SIZE)
    ]


def _harness_gate(corpus, mode: HarnessMode, num: int, name: str) -> None:
    started = time.monotonic()
    failures = []
    inconclusive = 0
    for i, sys in enumerate(corpus):
        rep = equivalence_harness(sys, 2, B, mode)
        if rep.outcome == "FAIL":
            failures.append(f"system {i} FAIL: {sys.generators}")
        elif rep.outcome == "INCONCLUSIVE":
            inconclusive += 1
    if inconclusive > CORPUS_SIZE // 100:
        failures.append(f"{inconclusive} INCONCLUSIVE > 1% of {CORPUS_SIZE}")
    elapsed = time.monotonic() - started
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _report(num, name, failures)


def test_criterion_01_proximality_equivalence_harness(corpus):
    _harness_gate(corpus, HarnessMode.LIFT_PROXIMAL, 1, "prop1 harness")


def test_criterion_02_strong_proximality_equivalence_harness(corpus):
    _harness_gate(corpus, HarnessMode.LIFT_STRONG, 2, "thm harness")


def test_criterion_03_barycenter_laws():
    failures = []
    rng = random.Random(3)
    total = 0
    while total < 500:
        m = rng.randint(2, 4)
        q = rng.randint(1, 3)
        sys = rand_det_system(rng, m)
        trials = min(50, 500 - total)
        rep = psi_checks(sys, q, trials=trials, seed=rng.randrange(10**6))
        total += trials
        failures.extend(rep.violations)
    for label, table in (
        ("Z2", SemigroupTable.cyclic(2)),
        ("Z3", SemigroupTable.cyclic(3)),
        ("left-zero-3", SemigroupTable.left_zero(3)),
    ):
        rep = psi_homomorphism_check(table, 2, trials=200, seed=11)
        failures.extend(f"{label}: {v}" for v in rep.violations)
    _report(3, "barycenter laws, 500 + 3x200 trials", failures)


def test_criterion_04_invariant_metas(corpus):
    failures = []
    strongly = [
        sys for sys in corpus if reset_word(sys, B).status is Status.YES
    ]
    if not strongly:
        failures.append("corpus contains no strongly proximal system")
    for sys in strongly:
        grid = lift_system(sys, 2).grid
        for meta in invariant_metas(lift_system(sys, 2)):
            if not meta_is_vertex_point_mass(grid, meta):
                failures.append(f"non-vertex invariant meta for {sys.generators}")
    from proxilift import ActionSystem

    space = FiniteSpace.discrete(("a", "b"))
    swap_sys = ActionSystem.deterministic(space, [(1, 0)])
    metas = invariant_metas(lift_system(swap_sys, 1))
    if not any(not m.is_point_mass() for m in metas):
        failures.append("swap system is missing its non-point-mass invariant")
    _report(
        4,
        f"invariant metas ({len(strongly)} strongly proximal systems)",
        failures,
    )


def test_criterion_05_synchronization_cross_check(corpus):
    failures = []
    from proxilift import ActionSystem

    space = FiniteSpace.discrete(("0", "1", "2", "3"))
    cerny = ActionSystem.deterministic(space, [(1, 2, 3, 0), (1, 1, 2, 3)])
    v = reset_word(cerny, B)
    if v.status is not Status.YES or len(v.witness) != 9:
        failures.append(f"Cerny reset verdict {v.status}, word {v.witness}")
    oracle = brute_reset_length(cerny, 10)
    if oracle != 9:
        failures.append(f"brute-force oracle says {oracle}, expected 9")
    for i, sys in enumerate(corpus):
        a = is_proximal(sys, B).status
        b = reset_word(sys, B).status
        if Status.UNKNOWN in (a, b):
            failures.append(f"system {i} inconclusive: {a} vs {b}")
        elif (a is Status.YES) != (b is Status.YES):
            failures.append(f"system {i}: proximal {a} but reset {b}")
    _report(5, "Cerny length 9 and proximal<=>reset on corpus", failures)


def test_criterion_06_w1_against_coupling_oracle():
    failures = []
    rng = random.Random(6)
    for t in range(100):
        m = rng.randint(2, 4)
        q = rng.randint(1, 4)
        space = rand_metric_space(rng, m)
        mu = rand_grid_measure(rng, m, q)
        nu = rand_grid_measure(rng, m, q)
        got = w1_distance(space, mu, nu)
        want = brute_force_w1(space.metric, mu, nu)
        if got != want:
            failures.append(f"trial {t}: w1 {got} oracle {want}")
    rng = random.Random(66)
    for t in range(1000):
        m = rng.randint(2, 4)
        space = rand_metric_space(rng, m)
        mu, nu, xi = (rand_grid_measure(rng, m, rng.randint(1, 4)) for _ in range(3))
        ab = w1_distance(space, mu, nu)
        if ab < 0 or ab != w1_distance(space, nu, mu):
            failures.append(f"triple {t}: symmetry or sign broken")
        if (ab == 0) != (mu == nu):
            failures.append(f"triple {t}: indiscernibility broken")
        if ab > w1_distance(space, mu, xi) + w1_distance(space, xi, nu):
            failures.append(f"triple {t}: triangle inequality broken")
    _report(6, "w1 vs coupling oracle + metric axioms", failures)


def test_criterion_07_dobrushin_inequalities():
    failures = []
    rng = random.Random(7)
    from proxilift import ActionSystem

    for t in range(1000):
        m = rng.randint(2, 4)
        s = rand_stochastic(rng, m)
        space = FiniteSpace.discrete(tuple(f"x{i}" for i in range(m)))
        sys = ActionSystem.stochastic(space, [s])
        mu, nu = rand_measure(rng, m), rand_measure(rng, m)
        lhs = tv_distance(pushforward(sys, (0,), mu), pushforward(sys, (0,), nu))
        if lhs > dobrushin(s) * tv_distance(mu, nu):
            failures.append(f"trial {t}: contraction inequality broken")
        a, b = rand_stochastic(rng, m), rand_stochastic(rng, m)
        if dobrushin(a.then(b)) > dobrushin(a) * dobrushin(b):
            failures.append(f"trial {t}: submultiplicativity broken")
    _report(7, "Dobrushin contraction and submultiplicativity", failures)


def _rand_simplex_model(rng: random.Random) -> SimplexModel:
    # lower-triangular with nonzero diagonal: independent by construction
    n = rng.randint(2, 4)
    rows = []
    for i in range(n):
        row = [rng.randint(-3, 3) for _ in range(i)]
        row.append(rng.choice([1, 2, 3, -1, -2]))
        row.extend(0 for _ in range(n - i - 1))
        rows.append(row)
    return SimplexModel.from_rows(rows)


def test_criterion_08_affine_corollary():
    failures = []
    rng = random.Random(8)
    for t in range(100):
        model = _rand_simplex_model(rng)
        n = model.n
        maps = [
            AffineVertexMap.from_vertex_images(
                [rng.randrange(n) for _ in range(n)], n
            )
            for _ in range(rng.randint(1, 3))
        ]
        rep = corollary_harness(model, maps, 2, B)
        if rep.outcome != "PASS":
            failures.append(f"system {t}: {rep.outcome}")
    done = 0
    while done < 500:
        model = _rand_simplex_model(rng)
        n = model.n
        maps = [
            AffineVertexMap.from_vertex_images(
                [rng.randrange(n) for _ in range(n)], n
            )
            for _ in range(rng.randint(1, 3))
        ]
        trials = min(50, 500 - done)
        rep = f_equivariance_check(model, maps, trials, seed=rng.randrange(10**6))
        done += trials
        failures.extend(rep.violations)
    _report(8, "affine harness 100 systems + 500 equivariance trials", failures)


def test_criterion_09_sl_demo(tmp_path, capsys):
    failures = []
    started = time.monotonic()
    out = tmp_path / "demo.csv"
    code = main(["demo-sl", "--out", str(out)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"demo exited {code}")
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    ns = [r[0] for r in rows]
    gap0 = rows[0][1]
    for r in rows:
        # %.12g formatting in the CSV leaves ~1e-12 of relative slack
        if not math.isclose(r[1], gap0 / r[0], rel_tol=1e-9):
            failures.append(f"pair gap at n={r[0]:g} is not gap0/n")
    final = rows[-1]
    if final[0] < 2000 or final[1] >= 1e-3 * gap0:
        failures.append(f"gap at n={final[0]:g} is {final[1]:g}, not under 1e-3 of initial")
    density, radius = 1 / 8, 0.1
    bound = density * (4 / 3) * math.pi * radius**3 * 1.05
    for r in rows:
        if r[2] > bound:
            failures.append(f"ball mass {r[2]:g} exceeds {bound:g} at n={r[0]:g}")
    cube_cols = range(3, len(header))
    for ci in cube_cols:
        masses = [r[ci] for r in rows]
        crossing = next((i for i, v in enumerate(masses) if v < 0.9), None)
        if crossing is None:
            failures.append(f"{header[ci]} never falls below 0.9")
        elif any(v >= 0.9 for v in masses[crossing:]):
            failures.append(f"{header[ci]} climbs back above 0.9")
    elapsed = time.monotonic() - started
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _report(9, "SL demo: gap decay, ball mass, escaping cubes", failures)


def test_criterion_10_determinism_and_verify(capsys):
    failures = []
    jobs = [
        (str(SPECS / "cerny4.json"), "thm"),
        (str(SPECS / "swap2.json"), "invariant"),
        (str(SPECS / "affine_wedge.json"), "affine"),
        (str(SPECS / "lazy_chain.json"), "base"),
    ]
    for path, mode in jobs:
        args = ["analyze", path, "--mode", mode, "--seed", "5", "--verify"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        rep1, rep2 = json.loads(first), json.loads(second)
        v1 = {k: v for k, v in rep1.items() if k != "timing"}
        v2 = {k: v for k, v in rep2.items() if k != "timing"}
        blob1 = json.dumps(v1, indent=2, sort_keys=True).encode()
        blob2 = json.dumps(v2, indent=2, sort_keys=True).encode()
        if blob1 != blob2:
            failures.append(f"{mode}: reports differ between runs")
        if rep1["report_digest"] != rep2["report_digest"]:
            failures.append(f"{mode}: digests differ")
        if not rep1.get("verify", {}).get("ok", False):
            failures.append(f"{mode}: verify replays failed: {rep1.get('verify')}")
    _report(10, "byte-stable reports and witness replays", failures)
