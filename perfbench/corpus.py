"""Seeded workload corpora: spec files, CLI arguments and reference checks.

A workload runs passes.  Every pass holds the same ladder of sizes of each of
its families, with freshly drawn instances, so whole passes are comparable
units of work.
Every system gets point labels unique to its pass and position, so no two
analyses in a run share an (action system, q) pair and the lift cache in the
library can only be reused inside one analysis, as a CLI user would see it.

Each item's check returns mismatch descriptions.  The references come from
``oracles`` and from facts about the families (Cerny automata synchronize
with reset length at least (n-1)^2; two fixed sinks never merge; rows in two
closed classes never share a column), never from the library's own output.
Certificate text and report digests are never compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles

# Every budget flag is passed explicitly (these equal the CLI defaults), so
# neither the environment nor a changed default alters the work done.
MAX_WORD_LEN = 64
MAX_CLOSURE = 100_000
EPSILON = Fraction(1, 1000)
PSI_TRIALS = 20

Check = Callable[[Any, bool], list]


@dataclass
class Item:
    """One analysis: a spec file, how to run it, and how to judge it."""

    name: str
    kind: str  # "cli": proxilift analyze; "metric": lift_system(sys, q).metric
    spec: dict
    argv: list[str]
    check: Check
    grid: int = 0
    path: str = ""
    family: str = ""


@dataclass(frozen=True)
class Workload:
    """A pass is one ladder from each family, built in order from the seed."""

    name: str
    why: str
    families: tuple[tuple[str, Callable[[random.Random, str, str], list[Item]]], ...]
    nominal_pass_s: float  # one full-size pass on a shared 2-core x86 VM, Python 3.11

    def build_pass(self, rng: random.Random, tag: str, size: str) -> list[Item]:
        items = []
        for family, build in self.families:
            for item in build(rng, f"{tag}.{family}", size):
                item.family = family
                items.append(item)
        return items


def cli_args(mode: str, q: int, seed: int) -> list[str]:
    return [
        "--mode", mode,
        "--grid", str(q),
        "--max-word-len", str(MAX_WORD_LEN),
        "--max-closure", str(MAX_CLOSURE),
        "--epsilon", str(EPSILON),
        "--seed", str(seed),
        "--trials", str(PSI_TRIALS),
        "--format", "json",
        "--verify",
    ]


# ---------------------------------------------------------------------------
# Spec builders.

def discrete_space(labels: list[str]) -> dict:
    m = len(labels)
    return {
        "labels": labels,
        "metric": [[0 if i == j else 1 for j in range(m)] for i in range(m)],
    }


def labels_for(tag: str, m: int) -> list[str]:
    return [f"{tag}.{i}" for i in range(m)]


def det_spec(tag: str, gens: list[list[int]]) -> dict:
    return {
        "space": discrete_space(labels_for(tag, len(gens[0]))),
        "action": {"kind": "deterministic", "generators": gens},
    }


def relabel(rng: random.Random, gens: list[list[int]]) -> list[list[int]]:
    """Conjugate by a random permutation: same dynamics, other point names."""
    m = len(gens[0])
    perm = list(range(m))
    rng.shuffle(perm)
    out = []
    for g in gens:
        h = [0] * m
        for i in range(m):
            h[perm[i]] = perm[g[i]]
        out.append(h)
    return out


def cerny(n: int) -> list[list[int]]:
    """Cerny's automaton C_n: a cycle and one merge; shortest reset (n-1)^2."""
    return [[(i + 1) % n for i in range(n)], [1 if i == 0 else i for i in range(n)]]


def random_cycle(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    cyc = [0] * n
    for k in range(n):
        cyc[order[k]] = order[(k + 1) % n]
    return cyc


def circular(rng: random.Random, n: int, step: int) -> list[list[int]]:
    """A random n-cycle and a map sending one point ``step`` points along it.

    The merge letter has rank n-1.  Merging changes the cyclic distance of a
    pair by the step and the cycle preserves it, so the automaton
    synchronizes exactly when gcd(step, n) = 1.  Step 1 is Cerny's automaton.
    """
    cyc = random_cycle(rng, n)
    start = rng.randrange(n)
    target = start
    for _ in range(step):
        target = cyc[target]
    merge = list(range(n))
    merge[start] = target
    return [cyc, merge]


def coprime_step(n: int) -> int:
    """The smallest step above 1 that keeps a circular automaton synchronizing.

    The step is a function of n, not of the seed: across steps the subset
    search costs up to twice as much, which the seed must not decide.
    """
    return next((s for s in range(2, n) if math.gcd(s, n) == 1), 1)


def perm_rank(rng: random.Random, n: int) -> list[list[int]]:
    """A synchronizing cycle-plus-rank-(n-1) automaton that is not Cerny's."""
    return circular(rng, n, coprime_step(n))


def two_sink(rng: random.Random, n: int) -> list[list[int]]:
    """Two points fixed by every letter beside a synchronizing part on n-2."""
    part = circular(rng, n - 2, coprime_step(n - 2))
    return relabel(rng, [[0, 1] + [2 + x for x in g] for g in part])


ROW_DENOMINATOR = 12


def stochastic_row(rng: random.Random, m: int, support: list[int]) -> list[Fraction]:
    """A random row with the given support and every entry a multiple of 1/12.

    A fixed denominator keeps the growth of exact products, and so the cost,
    about the same from one seed to the next.
    """
    cuts = sorted(rng.sample(range(1, ROW_DENOMINATOR), len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [ROW_DENOMINATOR])]
    row = [Fraction(0)] * m
    for j, part in zip(support, parts):
        row[j] = Fraction(part, ROW_DENOMINATOR)
    return row


def stochastic_family(
    rng: random.Random, family: str, m: int, k: int
) -> list[list[list[Fraction]]]:
    """k generators of one family on m points.

    dense: every entry positive.  sparse: row i is supported on i and on its
    successor along a random m-cycle, one cycle per generator.  block: two
    closed classes shared by all generators, dense inside each class.
    """
    if family == "block":
        points = list(range(m))
        rng.shuffle(points)
        classes = [points[: m // 2], points[m // 2:]]
        home = {x: c for c in classes for x in c}
    gens = []
    for _ in range(k):
        if family == "dense":
            supports = [list(range(m))] * m
        elif family == "sparse":
            cyc = random_cycle(rng, m)
            supports = [[i, cyc[i]] for i in range(m)]
        else:
            supports = [home[i] for i in range(m)]
        gens.append([stochastic_row(rng, m, sup) for sup in supports])
    return gens


def stochastic_spec(tag: str, gens: list[list[list[Fraction]]]) -> dict:
    m = len(gens[0])
    return {
        "space": discrete_space(labels_for(tag, m)),
        "action": {
            "kind": "stochastic",
            "generators": [[[str(p) for p in row] for row in g] for g in gens],
        },
    }


# ---------------------------------------------------------------------------
# Report reading shared by the checks.

def verify_mismatches(report: dict) -> list[str]:
    verify = report.get("verify")
    if not isinstance(verify, dict) or verify.get("ok") is not True:
        return [f"--verify replay failed: {verify!r}"]
    return []


def status(verdict: dict) -> str:
    return verdict["status"]


def decided(verdict: dict) -> bool:
    return verdict["status"] in ("YES", "NO")


def tally(item: Item, result: Any) -> tuple[int, int, int]:
    """(decided verdicts, verdicts, YES witness letters) of one result."""
    if item.kind == "metric":
        return 1, 1, 0
    results = result["results"]
    if "harness" in results:
        rows = results["harness"]["rows"]
        done = sum(1 for r in rows if r["agree"] is not None)
        letters = 0
        base = rows[0]["base"] if rows else None
        if base is not None and status(base) == "YES":
            letters += len(base["witness"] or ())
        for r in rows:
            if status(r["lift"]) == "YES":
                letters += len(r["lift"]["witness"] or ())
        return done, len(rows), letters
    verdicts = [
        results[key]
        for key in ("is_proximal", "strongly_proximal", "reset_word")
        if key in results
    ]
    if not verdicts:  # invariant and psi results are decided answers
        return 1, 1, 0
    letters = sum(
        len(v["witness"] or ()) for v in verdicts if status(v) == "YES"
    )
    return sum(1 for v in verdicts if decided(v)), len(verdicts), letters


# ---------------------------------------------------------------------------
# Checks.

def check_det_base(gens: list[list[int]], family: str) -> Check:
    n = len(gens[0])

    def check(report: dict, flip: bool) -> list[str]:
        out = verify_mismatches(report)
        sync = oracles.all_pairs_merge(gens, n)
        if family == "cerny" and not sync:
            raise AssertionError("benchmark bug: Cerny automaton judged non-synchronizing")
        if family == "two-sink" and sync:
            raise AssertionError("benchmark bug: two-sink system judged synchronizing")
        want = "NO" if sync == flip else "YES"
        results = report["results"]
        for key in ("is_proximal", "strongly_proximal", "reset_word"):
            v = results[key]
            if decided(v) and status(v) != want:
                out.append(f"{key} is {status(v)}, reference {want}")
            if status(v) == "YES" and v["witness"] is not None:
                w = v["witness"]
                if not oracles.word_is_constant(gens, w, n):
                    out.append(f"{key} witness is not a constant word")
                if family == "cerny" and len(w) < (n - 1) ** 2:
                    out.append(f"{key} witness shorter than (n-1)^2 on C_{n}")
        return out

    return check


def check_harness(gens: list[list[int]], strong: bool, cerny_n: int) -> Check:
    m = len(gens[0])

    def check(report: dict, flip: bool) -> list[str]:
        out = verify_mismatches(report)
        harness = report["results"]["harness"]
        if harness["outcome"] == "FAIL":
            out.append("harness outcome FAIL")
        want = "NO" if strong == flip else "YES"
        for row in harness["rows"]:
            for side in ("base", "lift"):
                v = row[side]
                if decided(v) and status(v) != want:
                    out.append(f"q={row['q']} {side} is {status(v)}, reference {want}")
            base, lift = row["base"], row["lift"]
            if status(base) == "YES" and base["witness"] is not None:
                if not oracles.word_is_constant(gens, base["witness"], m):
                    out.append(f"q={row['q']} base witness is not constant")
                if cerny_n and len(base["witness"]) < (cerny_n - 1) ** 2:
                    out.append(f"q={row['q']} base witness shorter than (n-1)^2")
            if status(lift) == "YES" and lift["witness"] is not None:
                if not oracles.lifted_word_is_constant(gens, lift["witness"], m, row["q"]):
                    out.append(f"q={row['q']} lift witness is not constant on the grid")
        return out

    return check


def check_stochastic(gens: list[list[list[Fraction]]], block: bool) -> Check:
    m = len(gens[0])
    sups = [oracles.supports(g) for g in gens]

    def check(report: dict, flip: bool) -> list[str]:
        out = verify_mismatches(report)
        meet = oracles.all_pairs_meet(sups, m)
        if block and meet:
            raise AssertionError("benchmark bug: block system has meeting pairs")
        if flip:
            meet = not meet
        results = report["results"]
        prox, strong = results["is_proximal"], results["strongly_proximal"]
        # A word crowding every row near one vertex is scrambling, so either
        # YES needs every pair of rows to be able to share a column.
        for key, v in (("is_proximal", prox), ("strongly_proximal", strong)):
            if status(v) == "YES" and not meet:
                out.append(f"{key} is YES, but some pair of rows never shares a column")
        if status(prox) == "YES" and not oracles.word_is_scrambling(sups, prox["witness"], m):
            out.append("is_proximal witness is not scrambling")
        if status(strong) == "YES" and not oracles.word_crowds_vertex(
            gens, strong["witness"], EPSILON
        ):
            out.append("strongly_proximal witness does not crowd a vertex")
        return out

    return check


def check_invariant(gens: list[list[int]], q: int) -> Check:
    m = len(gens[0])

    def check(report: dict, flip: bool) -> list[str]:
        out = verify_mismatches(report)
        orbits = oracles.atom_orbits(gens, m, q)
        want = len(orbits) + (1 if flip else 0)
        metas = report["results"]["invariant_metas"]
        if metas["count"] != want or len(metas["extremes"]) != want:
            out.append(f"{metas['count']} extreme invariant measures, reference {want} orbits")
        found = set()
        for e in metas["extremes"]:
            weights = [Fraction(w) for w in e["weights"]]
            support = frozenset(i for i, w in enumerate(weights) if w)
            if support not in orbits:
                out.append("an extreme is not supported on one orbit")
            elif any(weights[i] != Fraction(1, len(support)) for i in support):
                out.append("an extreme is not uniform on its orbit")
            found.add(support)
        if len(found) != len(metas["extremes"]):
            out.append("two extremes share an orbit")
        return out

    return check


def check_psi(report: dict, flip: bool) -> list[str]:
    out = verify_mismatches(report)
    results = report["results"]
    for key in ("psi_laws", "psi_homomorphism"):
        rep = results.get(key)
        if rep is None:
            out.append(f"{key} missing")
        elif rep["ok"] == flip or rep["trials"] != PSI_TRIALS:
            out.append(f"{key}: ok={rep['ok']} over {rep['trials']} trials, reference ok")
    return out


def check_metric(positions: list[int], q: int) -> Check:
    m = len(positions)

    def check(table: Any, flip: bool) -> list[str]:
        atoms = oracles.compositions(m, q)
        n = len(atoms)
        if len(table) != n or any(len(row) != n for row in table):
            return [f"metric table is not {n}x{n}"]
        for i in range(n):
            for j in range(n):
                want = oracles.w1_on_line(positions, atoms[i], atoms[j], q)
                if flip and (i, j) == (0, n - 1):
                    want += 1
                if table[i][j] != want:
                    return [f"w1 between atoms {i},{j} is {table[i][j]}, reference {want}"]
        return []

    return check


# ---------------------------------------------------------------------------
# Workloads.  A pass is built from the run's RNG; tag makes labels unique.

# Latencies fall into three groups: six analyses under 50 ms, six near
# 150 ms (C_14, the circular automaton on 14 points, two-sink on 16) and seven
# from 0.5 to 1.3 s.  The median lands inside the middle group and the tail
# percentile inside the top one, so neither jumps between sizes from run to
# run.
SYNC_LADDER = (
    [("cerny", n) for n in (8, 10, 12, 14, 14, 16, 18, 20)]
    + [("perm-rank", n) for n in (12, 14, 14, 16, 18)]
    + [("two-sink", n) for n in (12, 14, 16, 16, 18, 20)]
)
MAKERS = {
    "cerny": lambda rng, n: relabel(rng, cerny(n)),
    "perm-rank": lambda rng, n: relabel(rng, perm_rank(rng, n)),
    "two-sink": two_sink,
}


def sync_pass(rng: random.Random, tag: str, size: str) -> list[Item]:
    ladder = [("cerny", 4), ("perm-rank", 7), ("two-sink", 6)] if size == "smoke" else SYNC_LADDER
    items = []
    for k, (family, n) in enumerate(ladder):
        gens = MAKERS[family](rng, n)
        items.append(
            Item(
                f"{family}-{n}",
                "cli",
                det_spec(f"{tag}.{k}", gens),
                cli_args("base", 2, rng.randrange(1 << 30)),
                check_det_base(gens, family),
            )
        )
    return items


# The family's median lands among the 70-250 atom lifts and its tail
# percentile among the 462-atom prop1 harnesses, below C_7 at q = 6 (924
# atoms), which sets peak memory.
LIFT_LADDER = [(5, 4), (5, 5), (5, 6), (6, 4), (6, 5), (7, 4), (7, 5)]


def lift_pass(rng: random.Random, tag: str, size: str) -> list[Item]:
    if size == "smoke":
        plan = [("cerny", 4, 2, "prop1"), ("two-sink", 4, 2, "thm")]
    else:
        plan = [
            (family, m, q, mode)
            for family in ("cerny", "two-sink")
            for m, q in LIFT_LADDER
            for mode in ("prop1", "thm")
        ] + [("cerny", 7, 6, "prop1")]
    items = []
    for k, (family, m, q, mode) in enumerate(plan):
        if family == "cerny":
            gens, strong, cerny_n = relabel(rng, cerny(m)), True, m
        else:
            gens, strong, cerny_n = two_sink(rng, m), False, 0
        items.append(
            Item(
                f"{mode}-{family}-{m}-q{q}",
                "cli",
                det_spec(f"{tag}.{k}", gens),
                cli_args(mode, q, rng.randrange(1 << 30)),
                check_harness(gens, strong, cerny_n),
                grid=q,
            )
        )
    return items


def stochastic_pass(rng: random.Random, tag: str, size: str) -> list[Item]:
    ms, ks = ([3], [1]) if size == "smoke" else ([3, 4, 5, 6], [1, 2, 3])
    items = []
    for family in ("dense", "sparse", "block"):
        for m in ms:
            for k in ks:
                gens = stochastic_family(rng, family, m, k)
                items.append(
                    Item(
                        f"{family}-{m}x{k}",
                        "cli",
                        stochastic_spec(f"{tag}.{len(items)}", gens),
                        cli_args("base", 2, rng.randrange(1 << 30)),
                        check_stochastic(gens, family == "block"),
                    )
                )
    return items


def permutation_family(rng: random.Random, family: str, m: int) -> list[list[int]]:
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    if family == "cycle":
        gens = [random_cycle(rng, m)]
    elif family == "swap":
        gens = [swap]
    else:  # a transposition and an m-cycle generate the full symmetric group
        gens = [swap, [(i + 1) % m for i in range(m)]]
    return relabel(rng, gens)


# The median lands among five analyses of 60-75 ms and the tail percentile
# among the two 4-cycle invariant runs at q = 3.
INVARIANT_LADDER = [
    ("cycle", 2, 9), ("cycle", 2, 11), ("cycle", 3, 3), ("cycle", 3, 4),
    ("cycle", 4, 3), ("cycle", 4, 3), ("swap", 2, 10), ("swap", 3, 3),
    ("symmetric", 3, 4), ("symmetric", 4, 3),
]
PSI_LADDER = [(3, 2), (3, 3), (4, 2), (3, 4)]
METRIC_LADDER = [(3, 4), (4, 3), (5, 2), (4, 4), (5, 3)]


def measures_pass(rng: random.Random, tag: str, size: str) -> list[Item]:
    if size == "smoke":
        inv, psi, met = [("cycle", 3, 2)], [(2, 2)], [(3, 2)]
    else:
        inv, psi, met = INVARIANT_LADDER, PSI_LADDER, METRIC_LADDER
    items = []
    for family, m, q in inv:
        gens = permutation_family(rng, family, m)
        items.append(
            Item(
                f"invariant-{family}-{m}-q{q}",
                "cli",
                det_spec(f"{tag}.{len(items)}", gens),
                cli_args("invariant", q, rng.randrange(1 << 30)),
                check_invariant(gens, q),
                grid=q,
            )
        )
    for m, q in psi:
        # Z_m acting on itself by translation, with its group table.
        perm = list(range(m))
        rng.shuffle(perm)
        spec = det_spec(f"{tag}.{len(items)}", [[perm[(perm.index(i) + 1) % m] for i in range(m)]])
        table = [[0] * m for _ in range(m)]
        for x in range(m):
            for y in range(m):
                table[perm[x]][perm[y]] = perm[(x + y) % m]
        spec["table"] = table
        items.append(
            Item(f"psi-{m}-q{q}", "cli", spec, cli_args("psi", q, rng.randrange(1 << 30)), check_psi, grid=q)
        )
    for m, q in met:
        positions = sorted(rng.sample(range(1, 40), m))
        rng.shuffle(positions)
        spec = det_spec(f"{tag}.{len(items)}", [random_cycle(rng, m)])
        spec["space"]["metric"] = [[abs(a - b) for b in positions] for a in positions]
        items.append(Item(f"metric-{m}-q{q}", "metric", spec, [], check_metric(positions, q), grid=q))
    return items


# Two workloads of four families.  On a small shared machine the run-to-run
# noise is large, so fewer, longer runs measure more steadily than one
# workload per family; every family still reports its own metrics.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decide",
            "base mode: Cerny, circular and two-sink automata (n = 8..20; subset BFS for reset "
            "words) and stochastic systems (exact products, Dobrushin); lift and transport idle",
            (("sync", sync_pass), ("stochastic", stochastic_pass)),
            16.0,
        ),
        Workload(
            "lift",
            "prop1/thm harnesses up to 924 grid atoms, invariant, psi and the exact W1 table: "
            "grid, discrete metric, lifted pair graph, linalg and transport; base searches idle",
            (("lift", lift_pass), ("measures", measures_pass)),
            20.0,
        ),
    )
}
