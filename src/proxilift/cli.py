"""Command line front end: spec files, analysis reports, and the SL demo.

Spec files are JSON with every rational given exactly (integers or "p/q"
strings; floats are rejected), so any system can round-trip through the
format without loss.  Reports are JSON with stable key order and a content
digest over everything except timing, which makes equal inputs produce
byte-identical reports up to the timing block.  The timing block gives the
whole run in ``seconds`` and its stages in ``load_s`` (reading the spec),
``mode_s`` (the analysis) and ``verify_s`` (the replays and the report).
Both digests, ``input.sha256`` and ``report_digest``, are SHA-256 from
CPython's built-in module (``_sha2``, or ``_sha256`` before Python 3.12),
with ``hashlib`` as the fallback, so a run does not load OpenSSL.

A metric written as the 0/1 integer matrix is read as the discrete metric,
without building or checking a matrix; every other metric is parsed entry by
entry.  Within one ``load_spec`` call each distinct rational literal becomes
a ``Fraction`` once, and the memo ends with the call.  ``main`` builds its
argument parser on first use and keeps it while the ``PROXILIFT_*``
environment stays the same, so repeated in-process calls pay for argument
set-up once.  When the first argument names a subcommand, that
subcommand's parser alone reads its flags, once; tokens it leaves are
refused by the top-level parser, as a full parse refuses them.

A JSON report is printed by ``_json_text``, whose bytes equal
``json.dumps(report, indent=2, sort_keys=True)``: with ``indent`` the
standard library runs its pure-Python encoder, so the writer joins each
container in one ``str.join`` and quotes strings with the C string
encoder instead.

``--verify`` replays each verdict from data: a YES from its witness word, a
NO from its typed ``evidence`` (``NeverMerges`` or ``EntryBound``).  The
certificate text is for people; this module neither formats nor parses it.

The demo subcommand is the one deliberately floating-point corner: it
tabulates a determinant-one diagonal action on R^3 that merges pairs in a
plane (proximality evidence) while pushing volume off every fixed cube, so
no subsequence can drive measures to point masses (strong proximality
fails).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys as _sys
import time
from fractions import Fraction
from gettext import gettext
from typing import Any, Callable, Optional, Sequence

from . import __version__
from .actions import (
    ActionSystem,
    Kind,
    SemigroupTable,
    StochasticMatrix,
    Transformation,
    Word,
    _dobrushin,
    _word_rows,
)
from .affine import (
    AffineVertexMap,
    SimplexModel,
    corollary_harness,
    f_equivariance_check,
)
from .errors import ProxiliftError, SpecError
from .frozen import _Frozen
from .lift import (
    HarnessMode,
    HarnessReport,
    HarnessRow,
    CheckReport,
    LiftedSystem,
    equivalence_harness,
    invariant_metas,
    lift_system,
    meta_is_vertex_point_mass,
    psi_checks,
    psi_homomorphism_check,
)
from .proximality import (
    Budget,
    EntryBound,
    NeverMerges,
    Status,
    Verdict,
    decide,
)
from .spaces import (
    FiniteSpace,
    Measure,
    tightness_profile,
)

# ``hashlib`` loads OpenSSL's libcrypto through ``_hashlib``, which is most of
# what importing this module costs in memory, so SHA-256 comes from CPython's
# built-in module where it exists, as ``random`` takes SHA-512 ("hashlib is
# pretty heavy to load, try lean internal module first", CPython Lib/random.py).
# SHA-256 is SHA-256 either way, so every digest is the same.
try:
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _new_sha256


def _sha256_hex(data: bytes) -> str:
    return _new_sha256(data).hexdigest()


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")

Replay = tuple[str, Callable[[], bool]]

# Exit code of a harness outcome, shared by modes prop1, thm and affine.
_OUTCOME_CODE = {"PASS": 0, "INCONCLUSIVE": 2, "FAIL": 1}


# ---------------------------------------------------------------------------
# Spec parsing (exact rationals only; every error carries its JSON path).

def _too_long(what: str) -> str:
    """The message for an integer past Python's int-digit limit, which
    exists wherever that error can be raised."""
    limit = _sys.get_int_max_str_digits()
    return f"{what} longer than Python's limit of {limit} digits"


def parse_rational(node: Any, path: str) -> Fraction:
    if isinstance(node, bool):
        raise SpecError(path, "expected a rational, got a boolean")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, float):
        raise SpecError(path, "floats are forbidden in spec files; write \"p/q\"")
    if isinstance(node, str):
        literal = _RATIONAL_RE.fullmatch(node)
        if literal is None:
            raise SpecError(path, f"not a rational literal: {node!r}")
        num, den = literal.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except ValueError as exc:  # more digits than Python's int limit
            raise SpecError(path, _too_long("numerator or denominator")) from exc
    raise SpecError(path, f"expected a rational, got {type(node).__name__}")


def _literals() -> Callable[[Any, str], Fraction]:
    """``parse_rational`` with each distinct string or integer literal parsed
    once, for as long as the returned function lives: ``load_spec`` makes
    one per call.  A literal that fails is not stored, so it fails again,
    with its own path, wherever it recurs.  Booleans and floats never reach
    the memo, where they would pass for the integers they equal."""
    seen: dict[Any, Fraction] = {}

    def rational(node: Any, path: str) -> Fraction:
        if type(node) is str or type(node) is int:
            x = seen.get(node)
            if x is None:
                x = seen[node] = parse_rational(node, path)
            return x
        return parse_rational(node, path)

    return rational


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise SpecError(path, f"expected a list, got {type(node).__name__}")
    return node


def _expect_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SpecError(path, f"expected an integer, got {type(node).__name__}")
    return node


def _rows(
    node: Any, path: str, entry: Callable[[Any, str], Any]
) -> tuple[tuple, ...]:
    """A list of lists at path, each entry parsed by entry(x, its path).

    The first walk gives every row and entry the outer path, so no path is
    formatted; only when it fails does a second walk, with each one's own
    path, raise the same first fault where it sits.
    """
    try:
        return tuple(
            tuple(entry(x, path) for x in _expect_list(row, path))
            for row in _expect_list(node, path)
        )
    except SpecError:
        return tuple(
            tuple(
                entry(x, f"{path}[{i}][{j}]")
                for j, x in enumerate(_expect_list(row, f"{path}[{i}]"))
            )
            for i, row in enumerate(_expect_list(node, path))
        )


def _at(path: str, build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), with a library error raised as a SpecError at path."""
    try:
        return build(*args)
    except ProxiliftError as exc:
        raise SpecError(path, str(exc)) from exc


def _is_discrete_metric(node: Any, m: int) -> bool:
    """Whether node is the m x m matrix of JSON integers 0 on the diagonal
    and 1 elsewhere; booleans, floats and strings do not count."""
    return (
        type(node) is list
        and len(node) == m
        and all(
            type(row) is list
            and len(row) == m
            and all(type(x) is int for x in row)
            and row[i] == 0
            and row.count(1) == m - 1
            for i, row in enumerate(node)
        )
    )


def parse_space(
    node: Any, path: str, rational: Callable[[Any, str], Fraction]
) -> FiniteSpace:
    """The space at path.  A metric written as the 0/1 integer matrix is read
    as ``FiniteSpace.discrete``, which equals the explicit space; any other
    metric is parsed by ``rational`` and checked entry by entry."""
    if not isinstance(node, dict):
        raise SpecError(path, "expected an object with labels and metric")
    labels = _expect_list(node.get("labels"), f"{path}.labels")
    if not all(isinstance(x, str) for x in labels):
        raise SpecError(f"{path}.labels", "labels must be strings")
    metric = node.get("metric")
    if _is_discrete_metric(metric, len(labels)):
        return _at(path, FiniteSpace.discrete, labels)
    rows = _rows(metric, f"{path}.metric", rational)
    return _at(path, FiniteSpace, tuple(labels), rows)


def parse_action(
    node: Any,
    space: FiniteSpace,
    path: str,
    rational: Callable[[Any, str], Fraction],
) -> ActionSystem:
    if not isinstance(node, dict):
        raise SpecError(path, "expected an object with kind and generators")
    kind_raw = node.get("kind")
    try:
        kind = Kind(kind_raw)
    except ValueError:
        raise SpecError(
            f"{path}.kind",
            f"kind must be 'deterministic' or 'stochastic', got {kind_raw!r}",
        ) from None
    gen_nodes = _expect_list(node.get("generators"), f"{path}.generators")
    if not gen_nodes:
        raise SpecError(f"{path}.generators", "need at least one generator")
    gens: list = []
    for gi, gnode in enumerate(gen_nodes):
        gpath = f"{path}.generators[{gi}]"
        glist = _expect_list(gnode, gpath)
        if kind is Kind.DETERMINISTIC:
            image = tuple(
                _expect_int(x, f"{gpath}[{i}]") for i, x in enumerate(glist)
            )
            gens.append(_at(gpath, Transformation, image))
        else:
            rows = _rows(glist, gpath, rational)
            gens.append(_at(gpath, StochasticMatrix, rows))
    return _at(path, ActionSystem, space, kind, tuple(gens))


def parse_table(node: Any, path: str) -> SemigroupTable:
    return _at(path, SemigroupTable, _rows(node, path, _expect_int))


def parse_simplex(
    node: Any, path: str, rational: Callable[[Any, str], Fraction]
) -> tuple[SimplexModel, tuple[AffineVertexMap, ...]]:
    if not isinstance(node, dict):
        raise SpecError(path, "expected an object with vertices and maps")
    vertices = _rows(node.get("vertices"), f"{path}.vertices", rational)
    model = _at(f"{path}.vertices", SimplexModel, vertices)
    map_nodes = _expect_list(node.get("maps"), f"{path}.maps")
    if not map_nodes:
        raise SpecError(f"{path}.maps", "need at least one map")
    maps = []
    for mi, mnode in enumerate(map_nodes):
        mpath = f"{path}.maps[{mi}]"
        mlist = _expect_list(mnode, mpath)
        if all(type(x) is int for x in mlist):
            maps.append(_at(mpath, AffineVertexMap.from_vertex_images, mlist, model.n))
        else:
            rows = _rows(mlist, mpath, rational)
            maps.append(_at(mpath, AffineVertexMap, rows))
    return model, tuple(maps)


class ParsedSpec(_Frozen):
    _fields = ("path", "sha256", "system", "table", "simplex", "maps")
    path: str
    sha256: str
    system: Optional[ActionSystem]
    table: Optional[SemigroupTable]
    simplex: Optional[SimplexModel]
    maps: Optional[tuple[AffineVertexMap, ...]]

    def __init__(
        self,
        path: str,
        sha256: str,
        system: Optional[ActionSystem],
        table: Optional[SemigroupTable],
        simplex: Optional[SimplexModel],
        maps: Optional[tuple[AffineVertexMap, ...]],
    ) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "sha256", sha256)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "simplex", simplex)
        object.__setattr__(self, "maps", maps)


_KNOWN_KEYS = {"space", "action", "table", "simplex"}


def load_spec(path: str) -> ParsedSpec:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = _sha256_hex(raw)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(path, f"not valid UTF-8 JSON ({exc})") from exc
    except ValueError as exc:  # a number with more digits than Python's int limit
        raise SpecError(path, _too_long("JSON number")) from exc
    if not isinstance(doc, dict):
        raise SpecError(path, "top level must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise SpecError(path, f"unknown keys: {sorted(unknown)}")
    rational = _literals()
    system = None
    if "action" in doc:
        if "space" not in doc:
            raise SpecError(path, "action requires a space")
        space = parse_space(doc["space"], "space", rational)
        system = parse_action(doc["action"], space, "action", rational)
    elif "space" in doc:
        parse_space(doc["space"], "space", rational)
        raise SpecError(path, "space without an action is useless; add one")
    table = parse_table(doc["table"], "table") if "table" in doc else None
    model, maps = (None, None)
    if "simplex" in doc:
        model, maps = parse_simplex(doc["simplex"], "simplex", rational)
    return ParsedSpec(path, digest, system, table, model, maps)


def serialize_spec(spec: ParsedSpec) -> dict:
    """Spec back to its JSON form; parsing the result reproduces the spec."""
    out: dict[str, Any] = {}
    if spec.system is not None:
        sysm = spec.system
        out["space"] = {
            "labels": list(sysm.space.labels),
            "metric": [[str(x) for x in row] for row in sysm.space.metric],
        }
        if sysm.kind is Kind.DETERMINISTIC:
            gens: list = [list(g.image) for g in sysm.generators]
        else:
            gens = [[[str(x) for x in row] for row in g.rows] for g in sysm.generators]
        out["action"] = {"kind": sysm.kind.value, "generators": gens}
    if spec.table is not None:
        out["table"] = [list(row) for row in spec.table.table]
    if spec.simplex is not None and spec.maps is not None:
        out["simplex"] = {
            "vertices": [[str(x) for x in v] for v in spec.simplex.vertices],
            "maps": [
                list(m.vertex_images())
                if m.is_deterministic()
                else [[str(x) for x in row] for row in m.rows]
                for m in spec.maps
            ],
        }
    return out


# ---------------------------------------------------------------------------
# Report assembly.

def verdict_json(v: Verdict) -> dict:
    return {
        "status": v.status.value,
        "witness": list(v.witness) if v.witness is not None else None,
        "certificate": v.certificate,
    }


def check_report_json(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "trials": rep.trials,
        "violations": list(rep.violations),
        "ok": rep.ok,
    }


def harness_row_json(row: HarnessRow) -> dict:
    return {
        "q": row.q,
        "base": verdict_json(row.base),
        "lift": verdict_json(row.lift),
        "agree": row.agree,
    }


def harness_json(rep: HarnessReport) -> dict:
    return {
        "mode": rep.mode.value,
        "rows": [harness_row_json(r) for r in rep.rows],
        "outcome": rep.outcome,
        "consistent_across_q": rep.consistent_across_q,
    }


def _reachable_pairs(sysm: ActionSystem, pair: tuple[int, int]) -> set:
    """The ordered pairs reachable from pair, by a plain search: a letter
    sends (a, b) to every (c, d) with c in the support of row a and d in
    that of row b (the images, on a deterministic system)."""
    moves = [
        [(p,) for p in g.image]
        if isinstance(g, Transformation)
        else [[j for j, p in enumerate(row) if p] for row in g.cleared[0]]
        for g in sysm.generators
    ]
    seen, todo = {pair}, [pair]
    while todo:
        a, b = todo.pop()
        new = {(c, d) for g in moves for c in g[a] for d in g[b]} - seen
        seen |= new
        todo += new
    return seen


def _replays(
    sysm: ActionSystem, epsilon: Fraction
) -> Callable[[str, Verdict], list[Replay]]:
    """The replay builder of the verdicts decided on sysm.

    ``replay(name, v)`` gives verdict v at most one replay, read from its
    witness or its evidence and named after name.  A YES word must act as
    a constant map on a deterministic system.  On a stochastic system, which
    base mode alone decides, the word of ``is_proximal`` must contract
    (Dobrushin coefficient below 1) and that of ``strongly_proximal`` must
    take every row within epsilon of one vertex.  A ``NeverMerges`` holds
    when the pairs reachable from its pair avoid the diagonal and are
    ``reached`` unordered pairs; an ``EntryBound`` when the largest
    generator entry is its ``top`` and at most 1 - epsilon.  Each distinct
    word and pair is replayed once, however many verdicts share it.  The
    stochastic replays read the generators' cleared integer rows and
    multiply words out with ``actions._word_rows``.
    """
    pairs: dict[tuple[int, int], Optional[int]] = {}  # None: meets the diagonal
    words: dict[Word, bool] = {}

    def never_merges(ev: NeverMerges) -> bool:
        if ev.pair not in pairs:
            seen = _reachable_pairs(sysm, ev.pair)
            pairs[ev.pair] = (
                None
                if any(a == b for a, b in seen)
                else len({(min(a, b), max(a, b)) for a, b in seen})
            )
        return pairs[ev.pair] == ev.reached

    def bounded(ev: EntryBound) -> bool:
        top = max(
            Fraction(max(map(max, rows)), den)
            for rows, den in (g.cleared for g in sysm.generators)
        )
        return top == ev.top and top <= 1 - epsilon

    def constant(word: Word) -> bool:
        # The image of the full set, mapped letter by letter, shrinks where
        # composing the word's map would follow every point to the end.
        if word not in words:
            sysm.check_word(word)
            image = set(range(len(sysm.space)))
            for letter in word:
                g = sysm.generators[letter].image
                image = {g[x] for x in image}
            words[word] = len(image) == 1
        return words[word]

    def product(word: Word) -> tuple[list[list[int]], int]:
        sysm.check_word(word)
        return _word_rows(sysm.generators, len(sysm.space), word)

    def contracts(word: Word) -> bool:
        return _dobrushin(*product(word)) < 1

    def crowds(word: Word) -> bool:
        rows, den = product(word)
        return 1 - Fraction(max(map(min, zip(*rows))), den) < epsilon

    def replay(name: str, v: Verdict) -> list[Replay]:
        if isinstance(v.evidence, NeverMerges):
            what, check = "pair never merges", never_merges
        elif isinstance(v.evidence, EntryBound):
            what, check = "generator entries are at most 1 - epsilon", bounded
        elif v.status is not Status.YES or v.witness is None:
            return []
        elif sysm.kind is Kind.DETERMINISTIC:
            what, check = "witness is constant", constant
        elif name == "is_proximal":
            what, check = "witness contracts", contracts
        else:
            what, check = "witness crowds a vertex", crowds
        data = v.witness if v.evidence is None else v.evidence
        return [(f"{name} {what}", functools.partial(check, data))]

    return replay


def _extreme_meta_replay(
    lifted: LiftedSystem, meta: Measure
) -> Callable[[], bool]:
    """Uniform on its support, and that support is one orbit that every
    lifted generator maps bijectively onto itself.  The checks run on the
    meta's cleared integer masses.  Invariance needs no check of its own:
    pushing the uniform measure on S through a bijection of S gives that
    same measure back."""

    def run() -> bool:
        counts = list(meta.cleared[0])
        maps = [t.image for t in lifted.generators]
        support = {x for x, c in enumerate(counts) if c}
        if len({counts[x] for x in support}) != 1:
            return False
        if any({g[x] for x in support} != support for g in maps):
            return False
        start = min(support)
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for g in maps:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        return orbit == support

    return run


def _mode_base(
    system: ActionSystem, b: Budget
) -> tuple[dict, int, list[Replay]]:
    prox, strong, reset = decide(system, b)
    named = [("is_proximal", prox), ("strongly_proximal", strong)]
    if system.kind is Kind.DETERMINISTIC:
        named.append(("reset_word", reset))
    replay = _replays(system, b.epsilon)
    results = {name: verdict_json(v) for name, v in named}
    replays = [r for name, v in named for r in replay(name, v)]
    code = 0 if all(v.status is not Status.UNKNOWN for _, v in named) else 2
    return results, code, replays


def _mode_harness(
    system: ActionSystem, q: int, b: Budget, mode: HarnessMode
) -> tuple[dict, int, list[Replay]]:
    rep = equivalence_harness(system, q, b, mode)
    # Every row holds the same base verdict; its replays run once.
    base = _replays(system, b.epsilon)
    replays: list[Replay] = []
    for row in rep.rows:
        lifted = _replays(row.lifted.system, b.epsilon)
        replays += base(f"q={row.q} base", row.base)
        replays += lifted(f"q={row.q} lift", row.lift)
    return {"harness": harness_json(rep)}, _OUTCOME_CODE[rep.outcome], replays


def _mode_psi(
    spec: ParsedSpec, system: ActionSystem, q: int, trials: int, seed: int
) -> tuple[dict, int, list[Replay]]:
    results: dict[str, Any] = {
        "psi_laws": check_report_json(psi_checks(system, q, trials, seed))
    }
    ok = results["psi_laws"]["ok"]
    if spec.table is not None:
        rep2 = psi_homomorphism_check(spec.table, q, trials, seed)
        results["psi_homomorphism"] = check_report_json(rep2)
        ok = ok and rep2.ok
    return results, 0 if ok else 1, []


def _mode_invariant(
    system: ActionSystem, q: int
) -> tuple[dict, int, list[Replay]]:
    lifted = lift_system(system, q)
    metas = invariant_metas(lifted)
    grid = lifted.grid
    rows = []
    for meta in metas:
        rows.append(
            {
                "weights": [str(w) for w in meta.weights],
                "point_mass_at_vertex": meta_is_vertex_point_mass(grid, meta),
            }
        )
    replays: list[Replay] = [
        (f"extreme meta {idx} is invariant", _extreme_meta_replay(lifted, meta))
        for idx, meta in enumerate(metas)
    ]
    results = {
        "invariant_metas": {
            "count": len(metas),
            "extremes": rows,
            "all_point_masses_at_vertices": all(
                r["point_mass_at_vertex"] for r in rows
            ),
        }
    }
    return results, 0, replays


def _mode_affine(
    spec: ParsedSpec, q: int, b: Budget, trials: int, seed: int
) -> tuple[dict, int, list[Replay]]:
    if spec.simplex is None or spec.maps is None:
        raise SpecError(spec.path, "mode affine needs a simplex block")
    equiv = f_equivariance_check(spec.simplex, spec.maps, trials, seed)
    cor = corollary_harness(spec.simplex, spec.maps, q, b)
    results = {
        "f_equivariance": check_report_json(equiv),
        "corollary": {
            "extended": cor.extended,
            "proximal": verdict_json(cor.proximal),
            "strong": verdict_json(cor.strong),
            "outcome": cor.outcome,
        },
    }
    replay = _replays(cor.lifted.system, b.epsilon)
    named = [("proximal", cor.proximal), ("strong", cor.strong)]
    replays = [r for name, v in named for r in replay(f"corollary {name}", v)]
    code = _OUTCOME_CODE[cor.outcome] if equiv.ok else 1
    return results, code, replays


def _canonical_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k not in ("timing", "report_digest")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return _sha256_hex(blob.encode("utf-8"))


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj: Any, pad: str = "\n") -> str:
    """obj as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, byte
    for byte, for a tree of dicts with str keys, lists, str, int, finite
    float, bool and None; pad is the newline and indent of obj's own line.
    A list of plain ints, such as a witness word, is written with no call
    per letter.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [
            _quote(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _text_lines(obj: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return lines
    if isinstance(obj, list):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return lines
    return [f"{pad}{obj}"]


def analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.trials < 1:
        raise SpecError("--trials", "randomized checks need at least 1 trial")
    spec = load_spec(args.spec)
    loaded = time.monotonic()
    b = Budget(args.max_word_len, args.max_closure, args.epsilon)
    mode = args.mode
    needs_system = mode in ("base", "prop1", "thm", "psi", "invariant")
    if needs_system and spec.system is None:
        raise SpecError(spec.path, f"mode {mode} needs a space and action")
    if mode == "base":
        results, code, replays = _mode_base(spec.system, b)
    elif mode in ("prop1", "thm"):
        results, code, replays = _mode_harness(
            spec.system, args.grid, b, HarnessMode(mode)
        )
    elif mode == "psi":
        results, code, replays = _mode_psi(
            spec, spec.system, args.grid, args.trials, args.seed
        )
    elif mode == "invariant":
        results, code, replays = _mode_invariant(spec.system, args.grid)
    else:
        results, code, replays = _mode_affine(
            spec, args.grid, b, args.trials, args.seed
        )
    decided = time.monotonic()
    report: dict[str, Any] = {
        "tool": {"name": "proxilift", "version": __version__},
        "input": {"path": spec.path, "sha256": spec.sha256},
        "flags": {
            "mode": mode,
            "grid": args.grid,
            "max_word_len": args.max_word_len,
            "max_closure": args.max_closure,
            "epsilon": str(args.epsilon),
            "seed": args.seed,
            "trials": args.trials,
        },
        "results": results,
    }
    if args.verify:
        failures = [desc for desc, run in replays if not run()]
        report["verify"] = {
            "checked": len(replays),
            "ok": not failures,
            "failures": failures,
        }
        if failures:
            code = 1
    verified = time.monotonic()
    report["report_digest"] = _canonical_digest(report)
    report["timing"] = {
        "load_s": round(loaded - started, 6),
        "mode_s": round(decided - loaded, 6),
        "verify_s": round(verified - decided, 6),
        "seconds": round(time.monotonic() - started, 6),
    }
    if args.format == "json":
        print(_json_text(report))
    else:
        print("\n".join(_text_lines(report)))
    return code


# ---------------------------------------------------------------------------
# The SL demo: floats on purpose, everything else in the tool stays exact.

def _demo_schedule(n_max: int, steps: int) -> list[int]:
    if steps < 2 or n_max < 2:
        return [n_max]
    vals = {1, n_max}
    for i in range(steps):
        vals.add(max(1, round(n_max ** (i / (steps - 1)))))
    return sorted(vals)


def _ball_slab_volume(a: float, r: float, cells: int) -> float:
    """Volume of {x^2+y^2+z^2 <= r^2, |x| <= a, |y| <= a} by midpoint rule."""
    if a >= r:
        return 4.0 / 3.0 * math.pi * r**3
    dx = 2.0 * a / cells
    total = 0.0
    for i in range(cells):
        x = -a + (i + 0.5) * dx
        for j in range(cells):
            y = -a + (j + 0.5) * dx
            rest = r * r - x * x - y * y
            if rest > 0:
                total += 2.0 * math.sqrt(rest) * dx * dx
    return total


def _cube_mass(n: int, c: Fraction) -> Fraction:
    """Exact mass of the pushed uniform cube measure inside [-c, c]^3.

    The uniform measure on [-1, 1]^3 pushed through diag(1/n, 1/n, n^2) is
    uniform on [-1/n, 1/n]^2 x [-n^2, n^2] with density 1/8 (determinant
    one preserves volume), so the cube mass factorizes per axis.
    """
    hw = min(Fraction(1, n), c)
    zh = min(Fraction(n * n), c)
    return hw * hw * zh


def demo_sl(args: argparse.Namespace) -> int:
    radius = args.radius
    cubes = args.cubes
    if not (math.isfinite(radius) and radius > 0):
        raise SpecError("--radius", "ball radius must be a finite number > 0")
    if any(c <= 0 for c in cubes):
        raise SpecError("--cubes", "cube half-widths must be positive")
    if sorted(cubes) != cubes or len(set(cubes)) != len(cubes):
        raise SpecError("--cubes", "cube half-widths must be strictly increasing")
    if args.grid < 1:
        raise SpecError("--grid", "quadrature needs at least 1 cell per axis")
    if args.n_max < 1:
        raise SpecError("--n-max", "the largest n must be at least 1")
    schedule = _demo_schedule(args.n_max, args.steps)
    density = 1.0 / 8.0
    ball_volume = 4.0 / 3.0 * math.pi * radius**3

    # Pair evidence: x and y differ inside the contracted plane, so the
    # determinant-one map shrinks their gap by exactly 1/n.
    x0, y0 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    initial_gap = math.dist(x0, y0)

    header = ["n", "pair_gap", "max_ball_mass"] + [
        f"mass_in_K{i + 1}" for i in range(len(cubes))
    ]
    rows: list[list[float]] = []
    shell_measures: list[Measure] = []
    for n in schedule:
        gap = initial_gap / n
        a = min(1.0 / n, radius)
        ball_mass = density * _ball_slab_volume(a, radius, args.grid)
        cube_masses = [_cube_mass(n, c) for c in cubes]
        rows.append([float(n), gap, ball_mass] + [float(m) for m in cube_masses])
        shells = [cube_masses[0]]
        for prev, cur in zip(cube_masses, cube_masses[1:]):
            shells.append(cur - prev)
        shells.append(1 - cube_masses[-1])
        shell_measures.append(Measure(tuple(shells)))

    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(f"{v:.12g}" for v in row))
    csv_text = "\n".join(csv_lines) + "\n"

    nested = [list(range(i + 1)) for i in range(len(cubes))]
    profile = tightness_profile(shell_measures, nested)

    summary = []
    final_n = schedule[-1]
    summary.append(
        f"pair gap: {initial_gap:.6g} at n=1, {initial_gap / final_n:.6g} at "
        f"n={final_n} (ratio {1 / final_n:.3g}; shrinks as 1/n)"
    )
    peak = max(row[2] for row in rows)
    summary.append(
        f"max ball mass (radius {radius:g}): peak {peak:.6g} vs uniform bound "
        f"density*volume = {density * ball_volume:.6g}"
    )
    held = []  # the cubes whose mass never drops below 0.9 in the run
    for c, p, per_step in zip(
        cubes, profile, zip(*[r[3:] for r in rows])
    ):
        below = next(
            (schedule[i] for i, v in enumerate(per_step) if v < 0.9), None
        )
        if below is None:
            held.append(f"the cube |x|<={c}")
        where = f"from n={below} onward" if below is not None else "never"
        summary.append(
            f"cube |x|<={c}: min mass over the run {float(p):.6g}; "
            f"below 0.9 {where}"
        )
    if held:
        summary.append(
            f"mass 0.9 still lies in {' and in '.join(held)} at "
            f"n={final_n}: the run is too short to show that no fixed cube "
            "retains it; raise --n-max"
        )
    else:
        summary.append(
            "no fixed cube retains mass 0.9, so the pushed measures admit no "
            "limit at all, let alone a point mass: strong proximality fails "
            "along this sequence while pair gaps vanish"
        )
    summary_text = "\n".join(summary) + "\n"

    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        _sys.stdout.write(summary_text)
    else:
        _sys.stdout.write(csv_text)
        _sys.stderr.write(summary_text)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing; most flags can also come from PROXILIFT_<NAME>.

def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text, "flag")
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cube_list(text: str) -> list[Fraction]:
    try:
        return [
            parse_rational(part.strip(), f"entry {i}")
            for i, part in enumerate(text.split(","), 1)
        ]
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _choice(*names: str) -> Callable[[str], str]:
    """A flag type that accepts only names.  argparse checks ``choices`` on
    command-line values alone; an environment default is checked here, when
    argparse converts it, so a bad one is a usage error naming the flag."""

    def check(text: str) -> str:
        if text not in names:
            listed = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {listed})"
            )
        return text

    return check


# Every environment variable that ``build_parser`` reads, the key of ``_parser``.
_ENV_NAMES = (
    "PROXILIFT_MODE", "PROXILIFT_GRID", "PROXILIFT_MAX_WORD_LEN",
    "PROXILIFT_MAX_CLOSURE", "PROXILIFT_EPSILON", "PROXILIFT_FORMAT",
    "PROXILIFT_SEED", "PROXILIFT_TRIALS", "PROXILIFT_N_MAX", "PROXILIFT_STEPS",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxilift",
        description=(
            "Exact analysis of semigroup actions on finite metric spaces "
            "and their lifts to measure simplices"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An environment value is passed as the raw string default, which
    # argparse converts with the flag's type, so a bad value is a usage error.
    # Only the names of _ENV_NAMES can be read.
    values = dict(zip(_ENV_NAMES, map(os.environ.get, _ENV_NAMES)))

    def env(name: str, default: str) -> str:
        value = values[name]
        return default if value is None else value

    modes = ("base", "prop1", "thm", "psi", "invariant", "affine")
    formats = ("json", "text")

    an = sub.add_parser("analyze", help="analyze a JSON system spec")
    an.add_argument("spec", help="path to the spec file")
    an.add_argument(
        "--mode",
        choices=modes,
        type=_choice(*modes),
        default=env("PROXILIFT_MODE", "base"),
    )
    an.add_argument("--grid", type=int, default=env("PROXILIFT_GRID", "2"))
    an.add_argument(
        "--max-word-len",
        type=int,
        default=env("PROXILIFT_MAX_WORD_LEN", "64"),
        help="longest word the greedy stochastic searches build, one letter "
        "per step",
    )
    an.add_argument(
        "--max-closure",
        type=int,
        default=env("PROXILIFT_MAX_CLOSURE", "100000"),
        help="most sets the reset-word search stores, forward and backward "
        "together, before the greedy word stands; greedy merging's pair "
        "searches and pair table are not counted",
    )
    an.add_argument(
        "--epsilon",
        type=_rational_flag,
        default=env("PROXILIFT_EPSILON", "1/1000"),
        help="closeness threshold of the stochastic searches, strictly "
        "between 0 and 1: total variation below it counts as reached",
    )
    an.add_argument(
        "--format",
        choices=formats,
        type=_choice(*formats),
        default=env("PROXILIFT_FORMAT", "json"),
    )
    an.add_argument("--seed", type=int, default=env("PROXILIFT_SEED", "0"))
    an.add_argument("--trials", type=int, default=env("PROXILIFT_TRIALS", "200"))
    an.add_argument(
        "--verify",
        action="store_true",
        help="replay every YES witness, every pair NO and every entry-bound "
        "NO, and record the outcome",
    )
    an.set_defaults(func=analyze)

    demo = sub.add_parser(
        "demo-sl", help="numeric demo of a proximal, not strongly proximal action"
    )
    demo.add_argument(
        "--n-max", type=int, default=env("PROXILIFT_N_MAX", "2000")
    )
    demo.add_argument("--steps", type=int, default=env("PROXILIFT_STEPS", "12"))
    demo.add_argument(
        "--grid",
        type=int,
        default=200,
        help="quadrature cells per axis for the ball-mass integral",
    )
    demo.add_argument("--radius", type=float, default=0.1)
    demo.add_argument(
        "--cubes",
        type=_cube_list,
        default=[Fraction(1), Fraction(10), Fraction(100)],
        help="nested cube half-widths, comma separated rationals",
    )
    demo.add_argument("--out", default=None, help="CSV path ('-' for stdout)")
    demo.set_defaults(func=demo_sl)
    return parser


@functools.lru_cache(maxsize=1)
def _parser(env: tuple[Optional[str], ...]) -> argparse.ArgumentParser:
    """``build_parser()``, built once per tuple env of the values of the
    ``_ENV_NAMES`` variables (None when unset).

    The key is all that the parser reads from the environment, so a changed
    variable builds a fresh parser, and reading ten variables costs less
    than scanning the whole environment.  The parser holds flags and
    defaults only; every parse converts the string defaults anew.
    """
    return build_parser()


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with a subcommand's flags scanned once.

    The full parse scans every token of ``analyze SPEC --flag ...`` at the
    top level and then again in the subcommand's parser.  When argv[0]
    names a subcommand, its parser alone reads the rest; tokens it leaves
    are refused by the top-level parser, with its usage and message, as the
    full parse refuses them.  Any other argv (none, ``-h``, an unknown
    command) takes the full parse.
    """
    (commands,) = (
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extra:  # argparse's own message, translated as argparse translates it
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser(tuple(map(os.environ.get, _ENV_NAMES)))
    args = _parse(parser, _sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ProxiliftError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
