"""The package's value types: plain frozen classes that behave as the frozen
dataclasses they replaced, and an import that generates no code.

For each of the sixteen value types this pins what ``@dataclass(frozen=True)``
gave: the ``__init__`` parameters and defaults, equality and hash over the
same fields (``cleared`` and ``lifted`` left out), equality only within one
class, the repr text (each one copied from the dataclass version) and
immutability.  It needs neither pytest nor hypothesis, so it also runs as a
plain script on an interpreter without them:

    PYTHONPATH=src python tests/test_frozen.py
"""

import subprocess
import sys
from fractions import Fraction
from inspect import signature
from pathlib import Path

from proxilift import (
    ActionSystem,
    AffineVertexMap,
    Budget,
    CheckReport,
    CorollaryReport,
    FiniteSpace,
    GridSimplex,
    HarnessMode,
    HarnessReport,
    HarnessRow,
    Kind,
    LiftedSystem,
    Measure,
    SemigroupTable,
    SimplexModel,
    Status,
    StochasticMatrix,
    Transformation,
    Verdict,
    lift_system,
)
from proxilift.cli import ParsedSpec
from proxilift.proximality import EntryBound, NeverMerges
from proxilift.spaces import DeferredLabelSpace

SRC = Path(__file__).resolve().parent.parent / "src"

F = Fraction
HALF = F(1, 2)
ROWS = ((HALF, HALF), (F(1), F(0)))
SPACE = FiniteSpace.discrete(["a", "b"])
SWAP = Transformation((1, 0))
SYS = ActionSystem(SPACE, Kind.DETERMINISTIC, (SWAP,))
LIFTED = lift_system(SYS, 2)
OTHER_LIFT = lift_system(SYS, 3)
YES = Verdict(Status.YES, (0,))
NO = Verdict(Status.NO, None, "never", NeverMerges((0, 1), 1))


def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise AssertionError(f"{fn.__name__}{args} did not raise {exc.__name__}")


# class, its __init__ parameters, the arguments of one instance, the
# arguments of instances that differ from it in one compared field each,
# its compared fields, and its repr text under the dataclass.
CASES = [
    (
        Transformation, ["image"], [(1, 0)], [[(0, 0)]], ["image"],
        "Transformation(image=(1, 0))",
    ),
    (
        StochasticMatrix, ["rows"], [ROWS], [[ROWS[::-1]]], ["rows"],
        "StochasticMatrix(rows=((Fraction(1, 2), Fraction(1, 2)),"
        " (Fraction(1, 1), Fraction(0, 1))))",
    ),
    (
        ActionSystem,
        ["space", "kind", "generators"],
        [SPACE, Kind.DETERMINISTIC, (SWAP,)],
        [
            [FiniteSpace.discrete(["a", "c"]), Kind.DETERMINISTIC, (SWAP,)],
            [SPACE, Kind.STOCHASTIC, (StochasticMatrix(ROWS),)],
            [SPACE, Kind.DETERMINISTIC, (SWAP, SWAP)],
        ],
        ["space", "kind", "generators"],
        "ActionSystem(space=FiniteSpace(labels=('a', 'b'), matrix=None),"
        " kind=<Kind.DETERMINISTIC: 'deterministic'>,"
        " generators=(Transformation(image=(1, 0)),))",
    ),
    (
        SemigroupTable, ["table"], [((0, 1), (1, 0))], [[((0, 0), (1, 1))]],
        ["table"],
        "SemigroupTable(table=((0, 1), (1, 0)))",
    ),
    (
        FiniteSpace,
        ["labels", "matrix"],
        [("a", "b"), ((F(0), F(2)), (F(2), F(0)))],
        [
            [("a", "c"), ((F(0), F(2)), (F(2), F(0)))],
            [("a", "b"), ((F(0), F(3)), (F(3), F(0)))],
        ],
        ["labels", "matrix"],
        "FiniteSpace(labels=('a', 'b'), matrix=((Fraction(0, 1),"
        " Fraction(2, 1)), (Fraction(2, 1), Fraction(0, 1))))",
    ),
    (
        Measure, ["weights"], [(HALF, HALF)], [[(F(1), F(0))]], ["weights"],
        "Measure(weights=(Fraction(1, 2), Fraction(1, 2)))",
    ),
    (
        GridSimplex,
        ["base", "resolution"],
        [SPACE, 2],
        [[FiniteSpace.discrete(["a", "c"]), 2], [SPACE, 3]],
        ["base", "resolution"],
        "GridSimplex(base=FiniteSpace(labels=('a', 'b'), matrix=None),"
        " resolution=2)",
    ),
    (
        Verdict,
        ["status", "witness=None", "certificate=None", "evidence=None"],
        [Status.NO, None, "never", NeverMerges((0, 1), 1)],
        [
            [Status.UNKNOWN, None, "never", NeverMerges((0, 1), 1)],
            [Status.NO, (0,), "never", NeverMerges((0, 1), 1)],
            [Status.NO, None, "ever", NeverMerges((0, 1), 1)],
            [Status.NO, None, "never", EntryBound(HALF)],
        ],
        ["status", "witness", "certificate", "evidence"],
        "Verdict(status=<Status.NO: 'NO'>, witness=None, certificate='never',"
        " evidence=NeverMerges(pair=(0, 1), reached=1))",
    ),
    (
        Budget,
        ["max_word_len=64", "max_closure=100000", "epsilon=Fraction(1, 1000)"],
        [64, 100_000, F(1, 1000)],
        [[63, 100_000, F(1, 1000)], [64, 99, F(1, 1000)], [64, 100_000, HALF]],
        ["max_word_len", "max_closure", "epsilon"],
        "Budget(max_word_len=64, max_closure=100000, epsilon=Fraction(1, 1000))",
    ),
    (
        LiftedSystem,
        ["grid", "generators"],
        [LIFTED.grid, LIFTED.generators],
        [
            [OTHER_LIFT.grid, LIFTED.generators],
            [LIFTED.grid, (Transformation((0, 1, 2)),)],
        ],
        ["grid", "generators"],
        "LiftedSystem(grid=GridSimplex(base=FiniteSpace(labels=('a', 'b'),"
        " matrix=None), resolution=2),"
        " generators=(Transformation(image=(2, 1, 0)),))",
    ),
    (
        CheckReport,
        ["name", "trials", "violations"],
        ["psi", 3, ("bad",)],
        [["phi", 3, ("bad",)], ["psi", 4, ("bad",)], ["psi", 3, ()]],
        ["name", "trials", "violations"],
        "CheckReport(name='psi', trials=3, violations=('bad',))",
    ),
    (
        HarnessRow,
        ["q", "base", "lift", "lifted"],
        [2, YES, NO, LIFTED],
        [[3, YES, NO, LIFTED], [2, NO, NO, LIFTED], [2, YES, YES, LIFTED]],
        ["q", "base", "lift"],
        "HarnessRow(q=2, base=Verdict(status=<Status.YES: 'YES'>,"
        " witness=(0,), certificate=None, evidence=None),"
        " lift=Verdict(status=<Status.NO: 'NO'>, witness=None,"
        " certificate='never', evidence=NeverMerges(pair=(0, 1), reached=1)))",
    ),
    (
        HarnessReport,
        ["mode", "rows"],
        [HarnessMode.LIFT_STRONG, (HarnessRow(1, YES, YES, LIFTED),)],
        [
            [HarnessMode.LIFT_PROXIMAL, (HarnessRow(1, YES, YES, LIFTED),)],
            [HarnessMode.LIFT_STRONG, ()],
        ],
        ["mode", "rows"],
        "HarnessReport(mode=<HarnessMode.LIFT_STRONG: 'thm'>,"
        " rows=(HarnessRow(q=1, base=Verdict(status=<Status.YES: 'YES'>,"
        " witness=(0,), certificate=None, evidence=None),"
        " lift=Verdict(status=<Status.YES: 'YES'>, witness=(0,),"
        " certificate=None, evidence=None)),))",
    ),
    (
        SimplexModel,
        ["vertices"],
        [((F(1), F(0)), (F(0), F(1)))],
        [[((F(1), F(0)), (F(0), F(2)))]],
        ["vertices"],
        "SimplexModel(vertices=((Fraction(1, 1), Fraction(0, 1)),"
        " (Fraction(0, 1), Fraction(1, 1))))",
    ),
    (
        CorollaryReport,
        ["extended", "proximal", "strong", "lifted"],
        [False, YES, NO, LIFTED],
        [[True, YES, NO, LIFTED], [False, NO, NO, LIFTED], [False, YES, YES, LIFTED]],
        ["extended", "proximal", "strong"],
        "CorollaryReport(extended=False, proximal=Verdict(status=<Status.YES:"
        " 'YES'>, witness=(0,), certificate=None, evidence=None),"
        " strong=Verdict(status=<Status.NO: 'NO'>, witness=None,"
        " certificate='never', evidence=NeverMerges(pair=(0, 1), reached=1)))",
    ),
    (
        ParsedSpec,
        ["path", "sha256", "system", "table", "simplex", "maps"],
        ["spec.json", "ab12", SYS, None, None, None],
        [
            ["other.json", "ab12", SYS, None, None, None],
            ["spec.json", "cd34", SYS, None, None, None],
            ["spec.json", "ab12", None, None, None, None],
            ["spec.json", "ab12", SYS, SemigroupTable.cyclic(2), None, None],
            ["spec.json", "ab12", SYS, None, SimplexModel.from_rows([[1]]), None],
            ["spec.json", "ab12", SYS, None, None, ()],
        ],
        ["path", "sha256", "system", "table", "simplex", "maps"],
        "ParsedSpec(path='spec.json', sha256='ab12',"
        " system=ActionSystem(space=FiniteSpace(labels=('a', 'b'),"
        " matrix=None), kind=<Kind.DETERMINISTIC: 'deterministic'>,"
        " generators=(Transformation(image=(1, 0)),)), table=None,"
        " simplex=None, maps=None)",
    ),
]


def _params(cls) -> list[str]:
    return [
        str(p.replace(annotation=p.empty))
        for p in signature(cls).parameters.values()
    ]


def test_sixteen_value_types_are_pinned():
    assert len({case[0] for case in CASES}) == 16


def test_init_takes_the_same_parameters_and_defaults():
    for cls, params, args, *_ in CASES:
        assert _params(cls) == params, cls
        names = [p.split("=")[0] for p in params]
        assert cls(*args) == cls(**dict(zip(names, args))), cls
    assert Verdict(Status.YES, (0,)) == Verdict(Status.YES, (0,), None, None)
    assert Budget() == Budget(64, 100_000, F(1, 1000))


def test_equality_and_hash_read_the_compared_fields():
    for cls, _, args, variants, fields, _ in CASES:
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b, cls
        # FiniteSpace keeps its own hash: that of its labels.
        key = a.labels if cls is FiniteSpace else tuple(getattr(a, f) for f in fields)
        assert hash(a) == hash(b) == hash(key), cls
        for other in variants:
            c = cls(*other)
            assert a != c and not a == c, (cls, other)


def test_cleared_and_lifted_stay_out_of_equality_hash_and_repr():
    for cls, arg in [(StochasticMatrix, ROWS), (Measure, (HALF, HALF))]:
        a, b = cls(arg), cls(arg)
        object.__setattr__(b, "cleared", ((), 7))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b), cls
        assert "cleared" not in repr(a)
    for cls, head in [(HarnessRow, [2, YES, NO]), (CorollaryReport, [False, YES, NO])]:
        a, b = cls(*head, LIFTED), cls(*head, OTHER_LIFT)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b), cls
        assert a.lifted is LIFTED and b.lifted is OTHER_LIFT


def test_other_classes_compare_unequal():
    matrix, vertex_map = StochasticMatrix(ROWS), AffineVertexMap(ROWS)
    assert matrix != vertex_map and vertex_map != matrix
    assert not matrix == vertex_map and not vertex_map == matrix
    assert matrix.__eq__(vertex_map) is NotImplemented
    assert vertex_map.__eq__(matrix) is NotImplemented
    assert SWAP != (1, 0) and SWAP.__eq__((1, 0)) is NotImplemented
    assert YES != (Status.YES, (0,), None, None)
    assert CheckReport("x", 1, ()) != Verdict(Status.YES, None, "x")
    assert hash(matrix) == hash(vertex_map) == hash((ROWS,))


def test_repr_is_the_dataclass_text():
    for cls, _, args, _, _, text in CASES:
        assert repr(cls(*args)) == text, cls


def test_assignment_and_deletion_raise():
    for cls, params, args, _, fields, _ in CASES:
        obj = cls(*args)
        names = {p.split("=")[0] for p in params} | set(fields) | {"extra"}
        for name in names:
            raises(AttributeError, setattr, obj, name, None)
            raises(AttributeError, delattr, obj, name)
        assert obj == cls(*args)
    raises(AttributeError, setattr, StochasticMatrix(ROWS), "cleared", None)
    raises(AttributeError, setattr, AffineVertexMap(ROWS), "rows", ROWS)
    raises(AttributeError, setattr, LIFTED.atom_space, "labels", ())


def test_cached_properties_cache_on_the_instance():
    space = FiniteSpace.discrete(["a", "b", "c"])
    grid = GridSimplex(space, 2)
    lifted = lift_system(ActionSystem.deterministic(space, [[1, 2, 0]]), 2)
    for obj, names in [
        (space, ["metric", "cleared"]),
        (grid, ["compositions", "index", "atoms"]),
        (lifted, ["atom_space", "system", "metric"]),
    ]:
        for name in names:
            assert name not in vars(obj), name
            first = getattr(obj, name)
            assert vars(obj)[name] is first and getattr(obj, name) is first, name
    assert space.metric[0] == (F(0), F(1), F(1)) and space.cleared[1] == 1
    assert grid.compositions[0] == (0, 0, 2) and grid.index[(0, 1, 1)] == 1
    assert len(lifted.metric) == len(lifted) == len(grid) == 6


def test_deferred_label_space_behaves_as_before():
    built = []

    def build():
        built.append(1)
        return ["x", "y", "z"]

    space = DeferredLabelSpace(3, build)
    assert len(space) == 3 and not built and space.matrix is None
    plain = FiniteSpace.discrete(["x", "y", "z"])
    assert space == plain and plain == space and hash(space) == hash(plain)
    assert repr(space) == repr(plain) == (
        "FiniteSpace(labels=('x', 'y', 'z'), matrix=None)"
    )
    assert space.labels is space.labels and built == [1]
    assert repr(LIFTED.atom_space) == (
        "FiniteSpace(labels=('(0,2)', '(1,1)', '(2,0)'), matrix=None)"
    )


def test_affine_vertex_map_behaves_as_before():
    vmap = AffineVertexMap.from_vertex_images([1, 0], 2)
    assert repr(vmap) == (
        "AffineVertexMap(rows=((Fraction(0, 1), Fraction(1, 1)),"
        " (Fraction(1, 1), Fraction(0, 1))))"
    )
    assert vmap == AffineVertexMap.from_vertex_images([1, 0], 2)
    assert vmap != StochasticMatrix.from_transformation(SWAP)
    assert vmap.n == 2 and vmap.vertex_images() == (1, 0)
    assert vmap.is_surjective() and vmap.cleared == (((0, 1), (1, 0)), 1)
    assert not AffineVertexMap(ROWS).is_deterministic()


def test_import_generates_no_code():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import proxilift, proxilift.cli\n"
        "assert proxilift.__file__.startswith(sys.path[0]), proxilift.__file__\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n", out


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed on Python {sys.version.split()[0]}")
