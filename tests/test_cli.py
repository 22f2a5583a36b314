"""Spec parsing, report determinism, exit codes, the SL demo."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proxilift import (
    ActionSystem,
    Budget,
    FiniteSpace,
    Measure,
    SpecError,
    StochasticMatrix,
    Verdict,
    decide,
    reset_word,
)
from proxilift import cli, lift, proximality
from proxilift.proximality import EntryBound, NeverMerges
from proxilift.cli import (
    build_parser,
    load_spec,
    main,
    parse_rational,
    serialize_spec,
    verdict_json,
)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

F = Fraction


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


LAZY_PAIR = {
    "space": {"labels": ["a", "b"], "metric": [[0, 1], [1, 0]]},
    "action": {
        "kind": "stochastic",
        "generators": [
            [["3/4", "1/4"], ["1/4", "3/4"]],
            [["2/3", "1/3"], ["1/3", "2/3"]],
        ],
    },
}

# One generator whose stationary law is the point mass at a: it is not of
# full support, its largest entry is 1, and 64 steps move only about 6.4e-4
# of b's mass onto a, so the vertex search runs out of words.
SLOW_LEAK = {
    "space": {"labels": ["a", "b"], "metric": [[0, 1], [1, 0]]},
    "action": {
        "kind": "stochastic",
        "generators": [[[1, 0], ["1/100000", "99999/100000"]]],
    },
}


class TestParseRational:
    def test_accepts(self):
        assert parse_rational("3/4", "x") == F(3, 4)
        assert parse_rational("-1/2", "x") == F(-1, 2)
        assert parse_rational(2, "x") == F(2)

    @pytest.mark.parametrize("bad", [0.5, True, "1.5", "3/0", "1/-2", "", "a/b"])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            parse_rational(bad, "x")

    @pytest.mark.parametrize(
        "bad", ["1/2\n", "3\n", "\n", "1/2\n\n", " 1/2", "1/2 ", "\u0661/2", "1_0"]
    )
    def test_whole_string_of_ascii_digits(self, bad):
        with pytest.raises(SpecError, match="not a rational literal"):
            parse_rational(bad, "x")

    def test_trailing_newline_in_a_spec_entry(self, tmp_path):
        doc = {
            "space": SPACE2,
            "action": {"kind": "stochastic", "generators": [[[1, 0], ["1/2\n", "1/2"]]]},
        }
        with pytest.raises(SpecError, match="not a rational literal") as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.path == "action.generators[0][1][0]"

    def test_trailing_newline_in_a_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(SPECS / "swap2.json"), "--epsilon", "1/1000\n"])
        assert exc.value.code == 2
        assert "argument --epsilon:" in capsys.readouterr().err


SPACE2 = {"labels": ["a", "b"], "metric": [[0, 1], [1, 0]]}


class TestIntDigitLimit:
    """A literal past Python's int-digit limit is a spec or usage error."""

    DIGITS = "1" * (sys.get_int_max_str_digits() + 1)
    TOO_LONG = f"longer than Python's limit of {sys.get_int_max_str_digits()} digits"

    def test_json_number_exits_1(self, tmp_path, capsys):
        # json.loads raises a plain ValueError here, not JSONDecodeError.
        path = tmp_path / "spec.json"
        path.write_text(
            '{"space": {"labels": ["a", "b"], "metric": [[0, %s], [1, 0]]}, '
            '"action": {"kind": "deterministic", "generators": [[1, 0]]}}'
            % self.DIGITS,
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: JSON number {self.TOO_LONG}\n"

    def test_string_literal_exits_1(self, tmp_path, capsys):
        doc = {
            "space": SPACE2,
            "action": {
                "kind": "stochastic",
                "generators": [[[1, 0], [f"1/{self.DIGITS}", "1/2"]]],
            },
        }
        assert main(["analyze", write_spec(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == (
            "error: action.generators[0][1][0]: numerator or denominator "
            f"{self.TOO_LONG}\n"
        )

    def test_epsilon_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["analyze", str(SPECS / "swap2.json"), "--epsilon", f"1/{self.DIGITS}"]
            )
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --epsilon: flag: numerator or denominator "
            f"{self.TOO_LONG}\n"
        )

    def test_cubes_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-sl", "--cubes", f"1,{self.DIGITS}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --cubes: entry 2: numerator or denominator "
            f"{self.TOO_LONG}\n"
        )

# One malformed spec per place where a library error becomes a SpecError,
# with the JSON path it must be reported at.
MALFORMED = {
    "asymmetric metric": (
        {
            "space": {"labels": ["a", "b"], "metric": [[0, 1], [2, 0]]},
            "action": {"kind": "deterministic", "generators": [[1, 0]]},
        },
        "space",
    ),
    "image out of range": (
        {
            "space": SPACE2,
            "action": {"kind": "deterministic", "generators": [[1, 0], [0, 2]]},
        },
        "action.generators[1]",
    ),
    "row not summing to 1": (
        {
            "space": SPACE2,
            "action": {"kind": "stochastic", "generators": [[[1, 0], ["1/2", 0]]]},
        },
        "action.generators[0]",
    ),
    "generator of the wrong size": (
        {
            "space": SPACE2,
            "action": {"kind": "deterministic", "generators": [[1, 0, 2]]},
        },
        "action",
    ),
    "table not associative": ({"table": [[1, 0], [0, 0]]}, "table"),
    "dependent vertices": (
        {"simplex": {"vertices": [[1, 0], [2, 0]], "maps": [[0, 0]]}},
        "simplex.vertices",
    ),
    "bad vertex image": (
        {"simplex": {"vertices": [[1, 0], [0, 1]], "maps": [[1, 0], [0, 2]]}},
        "simplex.maps[1]",
    ),
}


class TestSpecErrorPaths:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_library_error_reported_at_its_path(self, case, tmp_path):
        doc, path = MALFORMED[case]
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.path == path


class TestLoadSpec:
    @pytest.mark.parametrize("name", [p.name for p in sorted(SPECS.glob("*.json"))])
    def test_shipped_specs_round_trip(self, name, tmp_path):
        spec = load_spec(str(SPECS / name))
        again = load_spec(write_spec(tmp_path, serialize_spec(spec)))
        assert again.system == spec.system
        assert again.table == spec.table
        assert again.simplex == spec.simplex
        assert again.maps == spec.maps

    def test_float_rejected_with_path(self, tmp_path):
        doc = {
            "space": {"labels": ["a", "b"], "metric": [[0, 0.5], [0.5, 0]]},
            "action": {"kind": "deterministic", "generators": [[1, 0]]},
        }
        with pytest.raises(SpecError, match=r"space\.metric\[0\]\[1\]"):
            load_spec(write_spec(tmp_path, doc))

    def test_non_list_row_named(self, tmp_path):
        doc = {
            "space": {"labels": ["a", "b"], "metric": [[0, 1], 1]},
            "action": {"kind": "deterministic", "generators": [[1, 0]]},
        }
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.path == "space.metric[1]"
        assert str(info.value) == "space.metric[1]: expected a list, got int"

    def test_first_bad_entry_of_a_large_metric_named(self, tmp_path):
        # The last row of a 20 x 20 metric holds two faults; the first in
        # row order is named.
        metric = [[int(i != j) for j in range(20)] for i in range(20)]
        metric[19][18] = "one"
        metric[19][19] = 0.5
        doc = {
            "space": {"labels": [f"p{i}" for i in range(20)], "metric": metric},
            "action": {"kind": "deterministic", "generators": [list(range(20))]},
        }
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.path == "space.metric[19][18]"
        assert str(info.value) == (
            "space.metric[19][18]: not a rational literal: 'one'"
        )

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown keys"):
            load_spec(write_spec(tmp_path, {"spice": {}}))

    def test_space_without_action_rejected(self, tmp_path):
        doc = {"space": {"labels": ["a"], "metric": [[0]]}}
        with pytest.raises(SpecError, match="without an action"):
            load_spec(write_spec(tmp_path, doc))

    def test_action_without_space_rejected(self, tmp_path):
        doc = {"action": {"kind": "deterministic", "generators": [[0]]}}
        with pytest.raises(SpecError, match="requires a space"):
            load_spec(write_spec(tmp_path, doc))

    def test_bool_metric_entry_rejected(self, tmp_path):
        doc = {
            "space": {"labels": ["a", "b"], "metric": [[0, True], [1, 0]]},
            "action": {"kind": "deterministic", "generators": [[1, 0]]},
        }
        with pytest.raises(SpecError, match="boolean"):
            load_spec(write_spec(tmp_path, doc))

    def test_sha256_recorded(self, tmp_path):
        import hashlib

        path = write_spec(tmp_path, LAZY_PAIR)
        spec = load_spec(path)
        assert spec.sha256 == hashlib.sha256(
            pathlib.Path(path).read_bytes()
        ).hexdigest()


class TestLiteralMemo:
    """Within one ``load_spec`` call each distinct literal is parsed once."""

    TWELFTHS = [
        [["1/12", "5/12", "1/2", 0], ["1/2", "1/2", 0, 0], [0, "1/12", "5/12", "1/2"],
         [1, 0, 0, 0]],
        [["1/2", 0, "1/2", 0], [0, "1/12", "5/12", "1/2"], ["1/12", "5/12", "1/2", 0],
         ["1/2", "1/2", 0, 0]],
    ]

    def test_repeated_literals_parse_as_each_entry_alone(self, tmp_path):
        doc = {
            "space": {"labels": list("abcd"), "metric": [
                [0, "1/2", 1, "3/2"], ["1/2", 0, "1/2", 1],
                [1, "1/2", 0, "1/2"], ["3/2", 1, "1/2", 0],
            ]},
            "action": {"kind": "stochastic", "generators": self.TWELFTHS},
        }
        system = load_spec(write_spec(tmp_path, doc)).system
        assert system.space.metric == tuple(
            tuple(parse_rational(x, "x") for x in row)
            for row in doc["space"]["metric"]
        )
        assert [g.rows for g in system.generators] == [
            tuple(tuple(parse_rational(x, "x") for x in row) for row in g)
            for g in self.TWELFTHS
        ]

    def test_malformed_literal_after_repeated_ones_keeps_its_path(self, tmp_path):
        doc = {
            "space": SPACE2,
            "action": {"kind": "stochastic", "generators": [
                [["1/2", "1/2"], ["1/2\n", "1/2"]],
            ]},
        }
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert str(info.value) == (
            "action.generators[0][1][0]: not a rational literal: '1/2\\n'"
        )

    @pytest.mark.parametrize(
        "late, message",
        [(True, "expected a rational, got a boolean"),
         (1.0, "floats are forbidden in spec files; write \"p/q\"")],
    )
    def test_integer_seen_first_does_not_admit_its_lookalikes(
        self, tmp_path, late, message
    ):
        # 1 is parsed before True and 1.0, which compare and hash equal to it
        doc = _metric_doc([[0, 1], [late, 0]])
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert str(info.value) == f"space.metric[1][0]: {message}"

    def test_memo_ends_with_its_call(self, tmp_path):
        path = write_spec(tmp_path, {
            "space": {"labels": list("abcd"), "metric": [
                [int(i != j) for j in range(4)] for i in range(4)
            ]},
            "action": {"kind": "stochastic", "generators": self.TWELFTHS},
        })
        a = load_spec(path).system.generators[0]
        b = load_spec(path).system.generators[0]
        assert a == b
        assert a.rows[0][0] is not b.rows[0][0]
        # within one call, a repeated literal is one object
        assert a.rows[0][2] is a.rows[1][0]


def _metric_doc(metric, labels=("a", "b")):
    return {
        "space": {"labels": list(labels), "metric": metric},
        "action": {"kind": "deterministic", "generators": [[1, 0]]},
    }


class TestDiscreteMetricRead:
    """A 0/1 integer metric is read as ``FiniteSpace.discrete``; every other
    metric takes the entry-by-entry path, with its errors and paths."""

    def test_zero_one_integers_give_the_discrete_space(self, tmp_path):
        labels = [f"p{i}" for i in range(5)]
        metric = [[int(i != j) for j in range(5)] for i in range(5)]
        doc = {
            "space": {"labels": labels, "metric": metric},
            "action": {"kind": "deterministic", "generators": [[1, 2, 3, 4, 0]]},
        }
        space = load_spec(write_spec(tmp_path, doc)).system.space
        assert space.matrix is None
        explicit = FiniteSpace.from_rows(labels, metric)
        assert explicit.matrix is not None and space == explicit

    def test_strings_take_the_explicit_path(self, tmp_path):
        doc = _metric_doc([["0", "1"], ["2/2", 0]])
        space = load_spec(write_spec(tmp_path, doc)).system.space
        assert space.matrix is not None
        assert space == FiniteSpace.discrete(("a", "b"))

    @pytest.mark.parametrize("mode", ["base", "prop1"])
    def test_string_metric_gives_the_same_digest(
        self, mode, tmp_path, monkeypatch, capsys
    ):
        doc = GENERATED_SPECS["cerny9"]
        strings = dict(doc, space=dict(doc["space"]))
        strings["space"]["metric"] = [
            ["0" if i == j else ("2/2" if (i + j) % 2 else "1") for j in range(9)]
            for i in range(9)
        ]
        write_spec(tmp_path, doc, "ints.json")
        write_spec(tmp_path, strings, "strings.json")
        monkeypatch.chdir(tmp_path)
        reports = []
        for name in ("ints.json", "strings.json"):
            code, rep = run_json(["analyze", name, "--mode", mode, "--verify"], capsys)
            assert code == 0 and rep["verify"]["ok"]
            reports.append(rep)
        ints, rep = reports
        # The input block names the file and the hash of its bytes, which
        # differ; under the integer file's input block the digests agree.
        assert rep["input"]["sha256"] != ints["input"]["sha256"]
        rep["input"] = ints["input"]
        assert cli._canonical_digest(rep) == ints["report_digest"]

    @pytest.mark.parametrize(
        "metric, labels, path, message",
        [
            (
                [[0, True], [1, 0]], "ab", "space.metric[0][1]",
                "expected a rational, got a boolean",
            ),
            (
                [[0, 1.0], [1, 0]], "ab", "space.metric[0][1]",
                'floats are forbidden in spec files; write "p/q"',
            ),
            (
                [[0, 0], [0, 0]], "ab", "space",
                "distinct points 0,1 need positive distance",
            ),
            (
                [[0, 1], [1, 0], [1, 1]], "ab", "space",
                "metric matrix must be square of size (2)",
            ),
            (
                [[0, 1, 1], [1, 0, 1]], "ab", "space",
                "metric matrix must be square of size (2)",
            ),
            ([[0, 1], [1, 1]], "ab", "space", "metric diagonal must be zero at 1"),
            ([[1, 0], [0, 1]], "ab", "space", "metric diagonal must be zero at 0"),
            ([[0, 1], [1, 0]], "aa", "space", "point labels must be distinct"),
            ([], "", "space", "a space needs at least one point"),
        ],
    )
    def test_other_metrics_keep_their_errors(
        self, metric, labels, path, message, tmp_path
    ):
        with pytest.raises(SpecError) as info:
            load_spec(write_spec(tmp_path, _metric_doc(metric, labels)))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"


class TestAnalyzeModes:
    def test_base_on_cerny(self, capsys):
        code, rep = run_json(
            ["analyze", str(SPECS / "cerny4.json"), "--mode", "base"], capsys
        )
        assert code == 0
        res = rep["results"]
        assert res["is_proximal"]["status"] == "YES"
        assert res["strongly_proximal"]["status"] == "YES"
        assert len(res["reset_word"]["witness"]) == 9

    @pytest.mark.parametrize("name", ["cerny4", "swap2"])
    def test_base_runs_one_subset_search(self, name, monkeypatch, capsys):
        tests, reruns, tables = [], [], []
        real_test = proximality._synchronizes
        real_rerun = proximality._greedy_reset
        real_tables = proximality._nibble_tables

        def counting_test(maps, m):
            tests.append(m)
            return real_test(maps, m)

        def counting_rerun(system):
            reruns.append(system)
            return real_rerun(system)

        def counting_tables(*args):
            tables.append(args)
            return real_tables(*args)

        monkeypatch.setattr(proximality, "_synchronizes", counting_test)
        monkeypatch.setattr(proximality, "_greedy_reset", counting_rerun)
        monkeypatch.setattr(proximality, "_nibble_tables", counting_tables)
        code, _ = run_json(
            ["analyze", str(SPECS / f"{name}.json"), "--mode", "base"], capsys
        )
        assert code == 0
        # One synchronization test answers all three questions.  The subset
        # search builds one list of image tables per letter, and cerny4's
        # forward side ends it alone, so greedy merging never runs again to
        # build its word; swap2 is not proximal, so its NO is greedy
        # merging's and the search never runs.
        assert tests == [{"cerny4": 4, "swap2": 2}[name]]
        assert reruns == []
        assert len(tables) == {"cerny4": 2, "swap2": 0}[name]

    def test_stochastic_base_runs_one_row_merge(self, monkeypatch, capsys):
        merges = []
        real = proximality._greedy_scrambling

        def counting(system):
            merges.append(system)
            return real(system)

        monkeypatch.setattr(proximality, "_greedy_scrambling", counting)
        _, rep = run_json(
            ["analyze", str(SPECS / "lazy_chain.json"), "--mode", "base"], capsys
        )
        assert rep["results"]["is_proximal"]["status"] == "YES"
        assert len(merges) == 1

    def test_zero_one_stochastic_base_runs_one_greedy_merge(
        self, tmp_path, monkeypatch, capsys
    ):
        tests = []
        real = proximality._synchronizes

        def counting(maps, m):
            tests.append(m)
            return real(maps, m)

        unwrapped = []
        real_unwrap = StochasticMatrix.to_transformation

        def counting_unwrap(matrix):
            unwrapped.append(matrix)
            return real_unwrap(matrix)

        monkeypatch.setattr(proximality, "_synchronizes", counting)
        monkeypatch.setattr(StochasticMatrix, "to_transformation", counting_unwrap)
        images = load_spec(str(SPECS / "cerny4.json")).system.generators
        doc = _stoch_doc(
            [[[12 * (j == y) for j in range(4)] for y in g.image] for g in images]
        )
        _, rep = run_json(
            ["analyze", write_spec(tmp_path, doc), "--mode", "base"], capsys
        )
        # One synchronization test, on a view that unwraps each matrix once.
        assert tests == [4] and len(unwrapped) == len(images)
        _, det = run_json(
            ["analyze", str(SPECS / "cerny4.json"), "--mode", "base"], capsys
        )
        for name in ("is_proximal", "strongly_proximal"):
            assert rep["results"][name] == det["results"][name]

    def test_base_verifies_cerny20(self, tmp_path, capsys):
        # The forward BFS alone runs out of the default closure budget here.
        doc = _det_doc(
            [[(i + 1) % 20 for i in range(20)], [1] + list(range(1, 20))]
        )
        code, rep = run_json(
            ["analyze", write_spec(tmp_path, doc), "--mode", "base", "--verify"],
            capsys,
        )
        assert code == 0 and rep["verify"]["ok"]
        reset = rep["results"]["reset_word"]
        assert reset["certificate"].startswith("word is constant to point ")
        for name in ("reset_word", "strongly_proximal"):
            assert len(rep["results"][name]["witness"]) == 361

    @pytest.mark.parametrize("name", ["swap2", "two_sink10"])
    def test_base_reset_verdict_is_reset_word(self, name, tmp_path, capsys):
        if name in GENERATED_SPECS:
            path = write_spec(tmp_path, GENERATED_SPECS[name])
        else:
            path = str(SPECS / f"{name}.json")
        _, rep = run_json(["analyze", path, "--mode", "base"], capsys)
        system = load_spec(path).system
        prox, strong, reset = decide(system, Budget())
        assert reset == reset_word(system, Budget())
        assert rep["results"] == {
            "is_proximal": verdict_json(prox),
            "strongly_proximal": verdict_json(strong),
            "reset_word": verdict_json(reset),
        }

    def test_prop1_and_thm_pass(self, capsys):
        for mode in ("prop1", "thm"):
            code, rep = run_json(
                ["analyze", str(SPECS / "swap2.json"), "--mode", mode], capsys
            )
            assert code == 0
            assert rep["results"]["harness"]["outcome"] == "PASS"
            assert rep["results"]["harness"]["consistent_across_q"] is True

    def test_psi_with_table(self, capsys):
        code, rep = run_json(
            [
                "analyze",
                str(SPECS / "z2_translation.json"),
                "--mode",
                "psi",
                "--trials",
                "40",
            ],
            capsys,
        )
        assert code == 0
        assert rep["results"]["psi_laws"]["ok"] is True
        assert rep["results"]["psi_homomorphism"]["ok"] is True

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trials_exit_1(self, trials, capsys):
        spec = str(SPECS / "z2_translation.json")
        argv = ["analyze", spec, "--mode", "psi", "--trials", trials]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --trials:" in captured.err

    def test_invariant_swap(self, capsys):
        code, rep = run_json(
            ["analyze", str(SPECS / "swap2.json"), "--mode", "invariant"], capsys
        )
        assert code == 0
        inv = rep["results"]["invariant_metas"]
        assert inv["count"] == 2
        assert inv["all_point_masses_at_vertices"] is False

    def test_affine_wedge(self, capsys):
        code, rep = run_json(
            ["analyze", str(SPECS / "affine_wedge.json"), "--mode", "affine"],
            capsys,
        )
        assert code == 0
        cor = rep["results"]["corollary"]
        assert cor["outcome"] == "PASS"
        assert cor["extended"] is True
        assert rep["results"]["f_equivariance"]["ok"] is True

    def test_affine_failed_equivariance_exits_1(self, monkeypatch, capsys):
        forced = lift.CheckReport("f_equivariance", 1, ("forced violation",))
        monkeypatch.setattr(cli, "f_equivariance_check", lambda *args: forced)
        code, rep = run_json(
            ["analyze", str(SPECS / "affine_wedge.json"), "--mode", "affine"],
            capsys,
        )
        assert code == 1
        assert rep["results"]["corollary"]["outcome"] == "PASS"

    def test_stochastic_unknown_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, SLOW_LEAK)
        code, rep = run_json(["analyze", path, "--mode", "base"], capsys)
        assert code == 2
        res = rep["results"]
        assert res["is_proximal"]["status"] == "YES"
        assert res["strongly_proximal"]["status"] == "UNKNOWN"

    def test_entry_bound_no_is_replayed(self, tmp_path, capsys):
        # No entry of LAZY_PAIR exceeds 3/4, so no row of any word comes
        # within 1/4 of a vertex.
        path = write_spec(tmp_path, LAZY_PAIR)
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 0
        assert rep["results"]["strongly_proximal"] == {
            "status": "NO",
            "witness": None,
            "certificate": "every generator entry is at most 3/4 <= 1 - epsilon, "
            "so every row of every nonempty word stays tv >= 1/4 from every vertex",
        }
        assert rep["verify"] == {"checked": 2, "ok": True, "failures": []}

    @pytest.mark.parametrize(
        "doc, top, epsilon",
        [
            (SLOW_LEAK, "1", "1/1000"),  # an entry of 1
            (LAZY_PAIR, "2/3", "1/1000"),  # not the largest entry
            (LAZY_PAIR, "3/4", "1/2"),  # above 1 - epsilon
        ],
        ids=["entry-one", "wrong-value", "above-bound"],
    )
    def test_verify_rejects_false_entry_bound_no(
        self, doc, top, epsilon, monkeypatch, tmp_path, capsys
    ):
        # The replay reads the evidence; the text is for people only.
        forged = proximality.no("forged entry bound", EntryBound(F(top)))
        real = cli.decide
        monkeypatch.setattr(
            cli, "decide", lambda system, b: (real(system, b)[0], forged, None)
        )
        path = write_spec(tmp_path, doc)
        argv = ["analyze", path, "--mode", "base", "--epsilon", epsilon, "--verify"]
        code, rep = run_json(argv, capsys)
        assert code == 1
        assert rep["verify"]["failures"] == [
            "strongly_proximal generator entries are at most 1 - epsilon"
        ]

    def test_verify_replays(self, capsys):
        code, rep = run_json(
            ["analyze", str(SPECS / "cerny4.json"), "--mode", "thm", "--verify"],
            capsys,
        )
        assert code == 0
        assert rep["verify"]["ok"] is True
        assert rep["verify"]["checked"] >= 1
        assert rep["verify"]["failures"] == []

    @pytest.mark.parametrize(
        "spec, mode, grid, lifted_qs",
        [
            ("cerny4", "thm", 3, [[1, 2, 3]]),
            ("cerny4", "prop1", 3, [[1, 2, 3]]),
            ("swap2", "invariant", 3, [[3]]),
            ("affine_wedge", "affine", 2, [[2]]),
            ("cerny4", "thm", 5, [[1, 2, 3, 5]]),
            ("swap2", "prop1", 1, [[1, 2, 3]]),
        ],
    )
    def test_each_resolution_lifted_once(
        self, spec, mode, grid, lifted_qs, monkeypatch, capsys
    ):
        # One lift build per analysis: a harness lifts all of its
        # resolutions [1, 2, 3, q] from one grid fold, and lift_system is
        # the one-resolution build.
        builds = []
        real = lift._lift_systems

        def counting(sys, resolutions):
            builds.append(list(resolutions))
            return real(sys, resolutions)

        monkeypatch.setattr(lift, "_lift_systems", counting)
        argv = ["analyze", str(SPECS / f"{spec}.json"), "--mode", mode]
        code, rep = run_json(argv + ["--grid", str(grid), "--verify"], capsys)
        assert code == 0 and rep["verify"]["ok"] is True
        assert builds == lifted_qs

    @pytest.mark.parametrize("mode", ["thm", "prop1", "invariant"])
    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_nonpositive_grid_is_refused(self, mode, grid, capsys):
        argv = ["analyze", str(SPECS / "cerny4.json"), "--mode", mode]
        assert main(argv + ["--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resolution must be positive" in captured.err

    @pytest.mark.parametrize(
        "name, checked", [("swap2", 3), ("two_sink10", 3), ("block4x2", 2)]
    )
    def test_verify_replays_pair_nos(self, name, checked, tmp_path, capsys):
        # Every verdict is a NO naming a pair, and each one is replayed.
        if name in GENERATED_SPECS:
            path = write_spec(tmp_path, GENERATED_SPECS[name])
        else:
            path = str(SPECS / f"{name}.json")
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 0
        assert {v["status"] for v in rep["results"].values()} == {"NO"}
        assert rep["verify"] == {"checked": checked, "ok": True, "failures": []}

    @pytest.mark.parametrize(
        "name, pair, reached",
        [
            ("cerny4", (0, 1), 1),  # merges
            # merges, with the closure's true count: only the diagonal tells
            ("cerny4", (0, 1), 10),
            ("swap2", (0, 1), 2),  # never merges, but its closure has 1 pair
        ],
        ids=["merging-pair", "merging-pair-true-count", "wrong-count"],
    )
    def test_verify_rejects_false_pair_no(
        self, name, pair, reached, monkeypatch, capsys
    ):
        forged = proximality.no("forged pair", NeverMerges(pair, reached))
        monkeypatch.setattr(proximality, "reset_word", lambda system, b: forged)
        code, rep = run_json(
            ["analyze", str(SPECS / f"{name}.json"), "--mode", "base", "--verify"],
            capsys,
        )
        assert code == 1
        assert rep["verify"]["failures"] == [
            "is_proximal pair never merges",
            "strongly_proximal pair never merges",
            "reset_word pair never merges",
        ]

    def test_verify_rejects_false_stochastic_pair_no(
        self, monkeypatch, tmp_path, capsys
    ):
        # Every row of dense4x2 is positive, so the pair merges at once.
        forged = proximality.no("forged pair", NeverMerges((0, 1), 1))
        monkeypatch.setattr(proximality, "_greedy_scrambling", lambda system: forged)
        path = write_spec(tmp_path, GENERATED_SPECS["dense4x2"])
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 1
        assert rep["verify"]["failures"] == [
            "is_proximal pair never merges",
            "strongly_proximal pair never merges",
        ]

    def test_verify_rejects_false_stochastic_words(self, monkeypatch, capsys):
        # The empty word leaves every row a distinct vertex: its Dobrushin
        # coefficient is 1, and no column holds mass in every row.
        forged = proximality.yes((), "forged word")
        monkeypatch.setattr(cli, "decide", lambda system, b: (forged, forged, None))
        argv = ["analyze", str(SPECS / "lazy_pair.json"), "--mode", "base"]
        code, rep = run_json(argv + ["--verify"], capsys)
        assert code == 1
        assert rep["verify"]["failures"] == [
            "is_proximal witness contracts",
            "strongly_proximal witness crowds a vertex",
        ]

    @pytest.mark.parametrize("name, checked", [("swap2", 3), ("lazy_pair", 2)])
    def test_replays_read_evidence_not_text(
        self, name, checked, monkeypatch, capsys
    ):
        # Every NO keeps its evidence under unrelated text; the replays
        # read the evidence, so they count and pass as before.
        real = cli.decide

        def reworded(system, b):
            return tuple(
                v
                if v is None or v.status is not proximality.Status.NO
                else Verdict(v.status, v.witness, "for people only", v.evidence)
                for v in real(system, b)
            )

        monkeypatch.setattr(cli, "decide", reworded)
        argv = ["analyze", str(SPECS / f"{name}.json"), "--mode", "base"]
        code, rep = run_json(argv + ["--verify"], capsys)
        assert code == 0
        assert "for people only" in {
            v["certificate"] for v in rep["results"].values()
        }
        assert rep["verify"] == {"checked": checked, "ok": True, "failures": []}

    def test_verify_rejects_invariant_non_extreme(self, monkeypatch, capsys):
        # the swap's q=2 lift has orbits {(2,0), (0,2)} and {(1,1)}; the
        # uniform measure on their union is invariant but not extreme
        monkeypatch.setattr(
            cli, "invariant_metas", lambda lifted: [Measure.uniform(3)]
        )
        code, rep = run_json(
            [
                "analyze",
                str(SPECS / "swap2.json"),
                "--mode",
                "invariant",
                "--verify",
            ],
            capsys,
        )
        assert code == 1
        assert rep["verify"]["failures"] == ["extreme meta 0 is invariant"]

    def test_verify_rejects_non_invariant_extreme(self, monkeypatch, capsys):
        # the point mass at atom (0,2) of the swap's q=2 lift is uniform on
        # its support, but the swap moves that atom to (2,0)
        monkeypatch.setattr(
            cli, "invariant_metas", lambda lifted: [Measure.point_mass(3, 0)]
        )
        code, rep = run_json(
            [
                "analyze",
                str(SPECS / "swap2.json"),
                "--mode",
                "invariant",
                "--verify",
            ],
            capsys,
        )
        assert code == 1
        assert rep["verify"]["failures"] == ["extreme meta 0 is invariant"]

    def test_missing_file_exits_1(self, capsys):
        assert main(["analyze", "/nonexistent.json", "--mode", "base"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["analyze", str(p), "--mode", "base"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                _metric_doc([[0, 1], [1, 0], [1, 1]]),
                "space: metric matrix must be square of size (2)",
            ),
            (
                {
                    "space": SPACE2,
                    "action": {"kind": "stochastic", "generators": [[[1, 0]]]},
                },
                "action.generators[0]: stochastic matrix must be square (1)",
            ),
        ],
    )
    def test_dimension_mismatch_message(self, doc, message, tmp_path, capsys):
        assert main(["analyze", write_spec(tmp_path, doc), "--mode", "base"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_text_format(self, capsys):
        code = main(
            [
                "analyze",
                str(SPECS / "swap2.json"),
                "--mode",
                "prop1",
                "--format",
                "text",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: PASS" in out


class TestReplaysRunOnce:
    """``--verify`` replays each distinct witness word and each named pair
    once per system, while every replay still counts and reports.  Systems
    are told apart by their point labels."""

    @pytest.fixture
    def words(self, monkeypatch):
        """The (labels, word) of every word checked against a system's
        letters, which each witness replay does first."""
        calls = []
        real = ActionSystem.check_word

        def counting(system, word):
            calls.append((system.space.labels, tuple(word)))
            return real(system, word)

        monkeypatch.setattr(ActionSystem, "check_word", counting)
        return calls

    @pytest.fixture
    def closures(self, monkeypatch):
        """The (labels, pair) of every pair-closure search."""
        calls = []
        real = cli._reachable_pairs

        def counting(system, pair):
            calls.append((system.space.labels, pair))
            return real(system, pair)

        monkeypatch.setattr(cli, "_reachable_pairs", counting)
        return calls

    def test_base_replays_a_shared_witness_once(self, words, capsys):
        path = str(SPECS / "cerny4.json")
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 0
        assert rep["verify"] == {"checked": 2, "ok": True, "failures": []}
        witness = tuple(rep["results"]["reset_word"]["witness"])
        assert words == [(load_spec(path).system.space.labels, witness)]

    def test_non_constant_witness_fails_both_replays(
        self, words, monkeypatch, capsys
    ):
        # The 4-cycle alone is no reset word; strongly_proximal reuses it.
        forged = proximality.yes((0,), "word is constant to point 0")
        monkeypatch.setattr(proximality, "reset_word", lambda system, b: forged)
        path = str(SPECS / "cerny4.json")
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 1
        assert rep["verify"]["checked"] == 2
        assert rep["verify"]["failures"] == [
            "strongly_proximal witness is constant",
            "reset_word witness is constant",
        ]
        assert [word for _, word in words] == [(0,)]

    def test_two_point_image_fails_the_constant_replay(self, monkeypatch, capsys):
        # The word b a a a b sends cerny4's four points to {1, 2}: one merge
        # short of a constant map.
        forged = proximality.yes((1, 0, 0, 0, 1), "word is constant to point 1")
        monkeypatch.setattr(proximality, "reset_word", lambda system, b: forged)
        path = str(SPECS / "cerny4.json")
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 1
        assert rep["verify"]["failures"] == [
            "strongly_proximal witness is constant",
            "reset_word witness is constant",
        ]

    @pytest.mark.parametrize("mode", ["thm", "prop1"])
    def test_harness_replays_the_base_witness_once(self, mode, words, capsys):
        path = str(SPECS / "cerny4.json")
        argv = ["analyze", path, "--mode", mode, "--grid", "3", "--verify"]
        code, rep = run_json(argv, capsys)
        assert code == 0 and rep["verify"]["ok"] is True
        rows = rep["results"]["harness"]["rows"]
        labels = load_spec(path).system.space.labels
        assert len(rows) == 3 and rows[0]["base"]["status"] == "YES"
        assert [n for n, _ in words].count(labels) == 1
        # Each row's lift is its own system, its witness replayed on it.
        lifted = [n for n, _ in words if n != labels]
        assert len(set(lifted)) == len(lifted)
        assert len(lifted) == sum(r["lift"]["witness"] is not None for r in rows)

    def test_base_searches_a_named_pair_once(self, closures, capsys):
        path = str(SPECS / "swap2.json")
        code, rep = run_json(["analyze", path, "--mode", "base", "--verify"], capsys)
        assert code == 0
        assert rep["verify"] == {"checked": 3, "ok": True, "failures": []}
        assert closures == [(load_spec(path).system.space.labels, (0, 1))]

    def test_harness_searches_the_base_pair_once(self, closures, capsys):
        path = str(SPECS / "swap2.json")
        argv = ["analyze", path, "--mode", "thm", "--grid", "3", "--verify"]
        code, rep = run_json(argv, capsys)
        assert code == 0 and rep["verify"]["ok"] is True
        rows = rep["results"]["harness"]["rows"]
        labels = load_spec(path).system.space.labels
        assert len(rows) == 3 and rows[0]["base"]["status"] == "NO"
        assert [c for c in closures if c[0] == labels] == [(labels, (0, 1))]
        lifted = [n for n, _ in closures if n != labels]
        assert len(set(lifted)) == len(lifted)
        assert len(lifted) == sum(r["lift"]["status"] == "NO" for r in rows)


class TestLiftLabelsUnread:
    @pytest.mark.parametrize("name", ["cerny4", "swap2"])
    @pytest.mark.parametrize("mode", ["thm", "prop1"])
    def test_harness_builds_no_atom_label(self, mode, name, monkeypatch, capsys):
        # No decision, replay or report of a lifted row reads atom labels.
        builds = []
        real = lift._atom_labels

        def counting(grid):
            builds.append(grid.resolution)
            return real(grid)

        monkeypatch.setattr(lift, "_atom_labels", counting)
        path = str(SPECS / f"{name}.json")
        argv = ["analyze", path, "--mode", mode, "--grid", "5", "--verify"]
        code, rep = run_json(argv, capsys)
        assert code == 0 and rep["verify"]["ok"] is True
        assert [row["q"] for row in rep["results"]["harness"]["rows"]] == [1, 2, 3, 5]
        assert builds == []


class TestDeterminism:
    def strip(self, rep):
        rep = dict(rep)
        rep.pop("timing")
        return rep

    def test_repeat_runs_identical(self, capsys):
        args = ["analyze", str(SPECS / "lazy_chain.json"), "--mode", "base"]
        code1, rep1 = run_json(args, capsys)
        code2, rep2 = run_json(args, capsys)
        assert code1 == code2 == 0
        assert self.strip(rep1) == self.strip(rep2)
        assert rep1["report_digest"] == rep2["report_digest"]

    def test_digest_excludes_timing_only(self, capsys):
        _, rep = run_json(
            ["analyze", str(SPECS / "swap2.json"), "--mode", "invariant"], capsys
        )
        import hashlib

        body = {
            k: v for k, v in rep.items() if k not in ("timing", "report_digest")
        }
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert rep["report_digest"] == hashlib.sha256(blob.encode()).hexdigest()

    def test_stage_timers(self, capsys):
        _, rep = run_json(
            ["analyze", str(SPECS / "cerny4.json"), "--mode", "thm", "--verify"],
            capsys,
        )
        timing = rep["timing"]
        assert set(timing) == {"seconds", "load_s", "mode_s", "verify_s"}
        for stage in ("load_s", "mode_s", "verify_s"):
            assert 0 <= timing[stage] <= timing["seconds"]
        assert timing["load_s"] + timing["mode_s"] + timing["verify_s"] <= (
            timing["seconds"] + 3e-6
        )

    def test_env_override_grid(self, monkeypatch, capsys):
        monkeypatch.setenv("PROXILIFT_GRID", "3")
        _, rep = run_json(
            ["analyze", str(SPECS / "swap2.json"), "--mode", "invariant"], capsys
        )
        assert rep["flags"]["grid"] == 3


    @pytest.mark.parametrize(
        "name, flag",
        [("PROXILIFT_MAX_CLOSURE", "--max-closure"), ("PROXILIFT_EPSILON", "--epsilon")],
    )
    def test_bad_env_value_is_usage_error(self, monkeypatch, capsys, name, flag):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(SPECS / "swap2.json"), "--mode", "base"])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, flag, value, good",
        [
            ("PROXILIFT_MODE", "--mode", "bogus", "base"),
            ("PROXILIFT_FORMAT", "--format", "xml", "json"),
        ],
    )
    def test_bad_env_choice_is_usage_error(
        self, monkeypatch, capsys, name, flag, value, good
    ):
        # argparse checks choices on command-line values only; the flag's
        # type checks the environment default too.
        monkeypatch.setenv(name, value)
        argv = ["analyze", str(SPECS / "cerny4.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid choice: {value!r}" in err
        # A value given on the command line wins over the bad default.
        code, rep = run_json(argv + [flag, good], capsys)
        assert code == 0 and rep["flags"]["mode"] == "base"

    def test_demo_grid_has_no_env_override(self, monkeypatch):
        monkeypatch.setenv("PROXILIFT_GRID", "3")
        assert build_parser().parse_args(["demo-sl"]).grid == 200
        assert build_parser().parse_args(["analyze", "x.json"]).grid == 3


class TestBuiltinSha256:
    """Both digests come from CPython's built-in SHA-256, so no run loads
    ``hashlib`` and with it OpenSSL; ``hashlib`` is the fallback."""

    SRC = pathlib.Path(cli.__file__).resolve().parent.parent
    THM = ["analyze", "specs/cerny4.json", "--mode", "thm", "--grid", "3", "--verify"]

    def run_fresh(self, code):
        """stdout of code in a fresh ``python -I`` at the repository root."""
        head = f"import sys; sys.path.insert(0, {str(self.SRC)!r})\n"
        return subprocess.run(
            [sys.executable, "-I", "-c", head + code],
            cwd=SPECS.parent, capture_output=True, text=True, check=True,
        ).stdout

    def test_no_mode_loads_hashlib(self):
        runs = [
            ["specs/cerny4.json", "--mode", "base"],
            ["specs/lazy_pair.json", "--mode", "base"],
            *(["specs/swap2.json", "--mode", m, "--grid", "3"]
              for m in ("prop1", "thm", "invariant")),
            ["specs/z2_translation.json", "--mode", "psi"],
            ["specs/affine_wedge.json", "--mode", "affine"],
        ]
        code = (
            "import contextlib, io\n"
            "import proxilift, proxilift.cli as cli\n"
            "assert proxilift.__file__.startswith(sys.path[0]), proxilift.__file__\n"
            "codes = []\n"
            f"for run in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(['analyze', *run, '--verify']))\n"
            "print(codes, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        assert self.run_fresh(code) == f"{[0] * len(runs)} []\n"

    def test_hashlib_fallback_gives_the_same_digests(self, monkeypatch, capsys):
        code = (
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import proxilift.cli as cli\n"
            "assert 'hashlib' in sys.modules\n"
            f"sys.exit(cli.main({self.THM!r}))\n"
        )
        fallback = json.loads(self.run_fresh(code))
        monkeypatch.chdir(SPECS.parent)
        _, lean = run_json(self.THM, capsys)
        assert fallback["report_digest"] == lean["report_digest"] == (
            "548cc3a1885dd735bed26dafc818b7a51a56d618f79ae40888f1a2b6f684bcca"
        )
        assert fallback["input"]["sha256"] == lean["input"]["sha256"]


class TestParserReuse:
    """``main`` builds one parser per set of ``PROXILIFT_*`` items."""

    @pytest.fixture
    def built(self, monkeypatch):
        parsers = []

        def counting():
            parsers.append(build_parser())
            return parsers[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield parsers
        cli._parser.cache_clear()

    def test_no_parser_at_import(self):
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        probe = (
            "import proxilift.cli as c; "
            "print(c._parser.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "0\n"

    def test_same_environment_builds_once(self, built, capsys):
        args = ["analyze", str(SPECS / "swap2.json"), "--mode", "base"]
        for _ in range(4):
            assert main(args) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_environment_change_is_seen(self, built, monkeypatch, capsys):
        args = ["analyze", str(SPECS / "swap2.json"), "--mode", "invariant"]
        monkeypatch.delenv("PROXILIFT_GRID", raising=False)
        assert run_json(args, capsys)[1]["flags"]["grid"] == 2
        monkeypatch.setenv("PROXILIFT_GRID", "3")
        assert run_json(args, capsys)[1]["flags"]["grid"] == 3
        monkeypatch.delenv("PROXILIFT_GRID")
        assert run_json(args, capsys)[1]["flags"]["grid"] == 2
        assert len(built) == 3

    def test_bad_value_after_a_good_call(self, built, monkeypatch, capsys):
        args = ["analyze", str(SPECS / "swap2.json"), "--mode", "base"]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setenv("PROXILIFT_MAX_CLOSURE", "abc")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "argument --max-closure:" in capsys.readouterr().err

    # Per variable: the command, the namespace field and a value other
    # than the default.
    ENV_FLAGS = {
        "PROXILIFT_MODE": ("analyze", "mode", "thm"),
        "PROXILIFT_GRID": ("analyze", "grid", "5"),
        "PROXILIFT_MAX_WORD_LEN": ("analyze", "max_word_len", "7"),
        "PROXILIFT_MAX_CLOSURE": ("analyze", "max_closure", "9"),
        "PROXILIFT_EPSILON": ("analyze", "epsilon", "1/7"),
        "PROXILIFT_FORMAT": ("analyze", "format", "text"),
        "PROXILIFT_SEED": ("analyze", "seed", "5"),
        "PROXILIFT_TRIALS": ("analyze", "trials", "3"),
        "PROXILIFT_N_MAX": ("demo-sl", "n_max", "5"),
        "PROXILIFT_STEPS": ("demo-sl", "steps", "3"),
    }

    @pytest.fixture
    def parsed(self, built, monkeypatch):
        """The namespace of every ``main`` call, which runs nothing."""
        seen = []

        def record(args):
            seen.append(args)
            return 0

        monkeypatch.setattr(cli, "analyze", record)
        monkeypatch.setattr(cli, "demo_sl", record)
        for name in cli._ENV_NAMES:
            monkeypatch.delenv(name, raising=False)
        return seen

    def test_every_keyed_variable_moves_its_default(
        self, parsed, built, monkeypatch
    ):
        assert sorted(cli._ENV_NAMES) == sorted(self.ENV_FLAGS)
        for name in cli._ENV_NAMES:
            command, field, value = self.ENV_FLAGS[name]
            argv = [command] + (["x.json"] if command == "analyze" else [])
            main(argv)
            monkeypatch.setenv(name, value)
            main(argv)
            monkeypatch.delenv(name)
            before, after = parsed[-2:]
            assert getattr(before, field) != getattr(after, field)
            assert str(getattr(after, field)) == value
        # Only the last parser is kept, so each call after a change builds.
        assert len(built) == 2 * len(cli._ENV_NAMES)

    def test_unrelated_variable_builds_no_parser(self, parsed, built, monkeypatch):
        main(["analyze", "x.json"])
        monkeypatch.setenv("PROXILIFT_FOO", "1")
        main(["analyze", "x.json"])
        assert len(parsed) == 2 and len(built) == 1

    def test_demo_leaves_the_cube_default(self, built, capsys):
        default = [F(1), F(10), F(100)]
        for extra in ([], ["--cubes", "2,3"], []):
            argv = ["demo-sl", "--n-max", "4", "--steps", "2", "--out", "-"]
            assert main(argv + extra) == 0
        capsys.readouterr()
        assert len(built) == 1
        assert built[0].parse_args(["demo-sl"]).cubes == default


def _det_doc(generators):
    m = len(generators[0])
    return {
        "space": {
            "labels": [f"p{i}" for i in range(m)],
            "metric": [[int(i != j) for j in range(m)] for i in range(m)],
        },
        "action": {"kind": "deterministic", "generators": generators},
    }


def _stoch_doc(twelfths):
    """Stochastic spec from generators given as rows of multiples of 1/12."""
    m = len(twelfths[0])
    return {
        "space": {
            "labels": [f"p{i}" for i in range(m)],
            "metric": [[int(i != j) for j in range(m)] for i in range(m)],
        },
        "action": {
            "kind": "stochastic",
            "generators": [
                [[f"{a}/12" for a in row] for row in g] for g in twelfths
            ],
        },
    }


# Larger than any shipped spec: subset masks span two bytes and stochastic
# searches run long words.
GENERATED_SPECS = {
    # Cerny's C_9: a 9-cycle and one merge, shortest reset word of length 64.
    "cerny9": _det_doc(
        [[1, 2, 3, 4, 5, 6, 7, 8, 0], [1, 1, 2, 3, 4, 5, 6, 7, 8]]
    ),
    # An 11-cycle and a letter sending point 0 two steps along it.
    "circular11_step2": _det_doc(
        [
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0],
            [2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ]
    ),
    # Points 0 and 1 fixed by both letters beside a circular automaton with
    # step 3 on points 2..9: never synchronizing.
    "two_sink10": _det_doc(
        [
            [0, 1, 3, 4, 5, 6, 7, 8, 9, 2],
            [0, 1, 5, 3, 4, 5, 6, 7, 8, 9],
        ]
    ),
    # Every entry positive.
    "dense4x2": _stoch_doc(
        [
            [[3, 4, 2, 3], [1, 5, 3, 3], [6, 2, 2, 2], [2, 2, 5, 3]],
            [[5, 1, 3, 3], [2, 2, 2, 6], [4, 4, 1, 3], [1, 7, 2, 2]],
        ]
    ),
    # Row i on i and on its successor along the cycle i -> i + 1, i + 2 or
    # i + 3 (mod 5), one cycle per generator.
    "sparse5x3": _stoch_doc(
        [
            [
                [5, 7, 0, 0, 0],
                [0, 3, 9, 0, 0],
                [0, 0, 8, 4, 0],
                [0, 0, 0, 6, 6],
                [11, 0, 0, 0, 1],
            ],
            [
                [7, 0, 5, 0, 0],
                [0, 10, 0, 2, 0],
                [0, 0, 4, 0, 8],
                [3, 0, 0, 9, 0],
                [0, 6, 0, 0, 6],
            ],
            [
                [2, 0, 0, 10, 0],
                [0, 6, 0, 0, 6],
                [1, 0, 11, 0, 0],
                [0, 8, 0, 4, 0],
                [0, 0, 3, 0, 9],
            ],
        ]
    ),
    # Two closed classes {0, 1} and {2, 3}, dense inside each.
    "block4x2": _stoch_doc(
        [
            [[5, 7, 0, 0], [9, 3, 0, 0], [0, 0, 4, 8], [0, 0, 11, 1]],
            [[2, 10, 0, 0], [6, 6, 0, 0], [0, 0, 7, 5], [0, 0, 3, 9]],
        ]
    ),
    # Cerny's C_7, whose lift at q = 6 has 924 atoms.
    "cerny7": _det_doc([[1, 2, 3, 4, 5, 6, 0], [1, 1, 2, 3, 4, 5, 6]]),
    # Points 0 and 1 fixed by both letters beside Cerny's C_5 on 2..6.
    "two_sink7": _det_doc([[0, 1, 3, 4, 5, 6, 2], [0, 1, 3, 3, 4, 5, 6]]),
    # A 5-cycle: a permutation, so its lift keeps non-vertex invariants.
    "cycle5": _det_doc([[1, 2, 3, 4, 0]]),
}


ANALYZE_USAGE = (
    "usage: proxilift analyze [-h] [--mode {base,prop1,thm,psi,invariant,affine}]\n"
    "                         [--grid GRID] [--max-word-len MAX_WORD_LEN]\n"
    "                         [--max-closure MAX_CLOSURE] [--epsilon EPSILON]\n"
    "                         [--format {json,text}] [--seed SEED]\n"
    "                         [--trials TRIALS] [--verify]\n"
    "                         spec\n"
)
TOP_USAGE = "usage: proxilift [-h] {analyze,demo-sl} ...\n"

# Exit code, stdout and stderr of each argv, as the full top-level parse
# printed them; the help texts at 80 columns.
USAGE_CASES = {
    "unknown flag": (
        ["analyze", "specs/cerny4.json", "--bogus"], 2, "",
        TOP_USAGE + "proxilift: error: unrecognized arguments: --bogus\n",
    ),
    "extra positional": (
        ["analyze", "specs/cerny4.json", "extra"], 2, "",
        TOP_USAGE + "proxilift: error: unrecognized arguments: extra\n",
    ),
    "leftovers in order": (
        ["analyze", "specs/cerny4.json", "--bogus", "x", "--seed=3", "y"], 2, "",
        TOP_USAGE + "proxilift: error: unrecognized arguments: --bogus x y\n",
    ),
    "demo unknown flag": (
        ["demo-sl", "--bogus"], 2, "",
        TOP_USAGE + "proxilift: error: unrecognized arguments: --bogus\n",
    ),
    "no spec": (
        ["analyze"], 2, "",
        ANALYZE_USAGE
        + "proxilift analyze: error: the following arguments are required: spec\n",
    ),
    "no arguments": (
        [], 2, "",
        TOP_USAGE
        + "proxilift: error: the following arguments are required: command\n",
    ),
    "analyze help": (
        ["analyze", "--help"], 0,
        ANALYZE_USAGE
        + "\n"
        "positional arguments:\n"
        "  spec                  path to the spec file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --mode {base,prop1,thm,psi,invariant,affine}\n"
        "  --grid GRID\n"
        "  --max-word-len MAX_WORD_LEN\n"
        "                        longest word the greedy stochastic searches build, one\n"
        "                        letter per step\n"
        "  --max-closure MAX_CLOSURE\n"
        "                        most sets the reset-word search stores, forward and\n"
        "                        backward together, before the greedy word stands;\n"
        "                        greedy merging's pair searches and pair table are not\n"
        "                        counted\n"
        "  --epsilon EPSILON     closeness threshold of the stochastic searches,\n"
        "                        strictly between 0 and 1: total variation below it\n"
        "                        counts as reached\n"
        "  --format {json,text}\n"
        "  --seed SEED\n"
        "  --trials TRIALS\n"
        "  --verify              replay every YES witness, every pair NO and every\n"
        "                        entry-bound NO, and record the outcome\n",
        "",
    ),
    "top-level help": (
        ["--help"], 0,
        TOP_USAGE
        + "\n"
        "Exact analysis of semigroup actions on finite metric spaces and their lifts to\n"
        "measure simplices\n"
        "\n"
        "positional arguments:\n"
        "  {analyze,demo-sl}\n"
        "    analyze          analyze a JSON system spec\n"
        "    demo-sl          numeric demo of a proximal, not strongly proximal action\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n",
        "",
    ),
}


def run_captured(argv, capsys, run=main):
    """Exit code, stdout and stderr of run(argv), argparse's exits too."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageText:
    """Usage, help and error text, byte for byte, with the exit code.

    ``main`` hands a subcommand's tokens to its parser alone; the full
    top-level parse is the oracle.  Help is formatted at 80 columns.
    """

    @pytest.fixture(autouse=True)
    def plain_environment(self, monkeypatch):
        monkeypatch.chdir(SPECS.parent)
        monkeypatch.setenv("COLUMNS", "80")
        for name in cli._ENV_NAMES:
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("case", sorted(USAGE_CASES))
    def test_pinned_text(self, case, capsys):
        argv, code, out, err = USAGE_CASES[case]
        assert run_captured(argv, capsys) == (code, out, err)

    @pytest.mark.parametrize(
        "argv",
        [case[0] for case in USAGE_CASES.values()]
        + [
            # Not pinned: the quoting of a choice list differs between
            # Python releases.
            ["analyz"],
            ["-h", "analyze"],
            ["demo-sl", "-h"],
            ["analyze", "specs/cerny4.json", "--mode", "nope"],
            ["analyze", "specs/cerny4.json", "--grid", "x"],
            ["analyze", "specs/cerny4.json", "--he"],
            ["analyze", "--", "specs/cerny4.json", "--bogus"],
        ],
    )
    def test_same_text_as_the_full_parse(self, argv, capsys):
        def full_parse(args):
            build_parser().parse_args(args)
            raise AssertionError(f"{args} parsed")

        want = run_captured(argv, capsys, full_parse)
        assert run_captured(argv, capsys) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "specs/cerny4.json"],
            ["analyze", "--mode", "thm", "specs/cerny4.json", "--grid=3", "--verify"],
            ["analyze", "specs/cerny4.json", "--epsilon", "1/7", "--format", "text"],
            ["demo-sl", "--cubes", "2,3", "--out", "-"],
            ["demo-sl"],
        ],
    )
    def test_same_namespace_as_the_full_parse(self, argv):
        parser = build_parser()
        assert vars(cli._parse(parser, argv)) == vars(parser.parse_args(argv))


json_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1])
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
json_trees = st.recursive(
    json_scalars | st.lists(st.integers()) | st.lists(st.sampled_from([0, 1, True, False])),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=24,
)

# The modes each shipped spec runs in.
SPEC_MODES = [
    (name, mode)
    for names, modes in [
        (
            ("cerny4", "collapse3", "swap2", "z2_translation"),
            ("base", "prop1", "thm", "psi", "invariant"),
        ),
        (("lazy_chain", "lazy_pair"), ("base",)),
        (("affine_wedge",), ("affine",)),
    ]
    for name in names
    for mode in modes
]


class TestReportWriter:
    """The report writer against ``json.dumps(obj, indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    def test_matches_the_standard_library(self, tree):
        assert cli._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "tree",
        [{}, [], {"": []}, [{}], {"b": 1, "a": {"c": []}}, [True, 1, 0, False],
         [7, 0, 1], "\"\\\x00\x1fé\U0001f600", -0.0, 1e300],
    )
    def test_edge_cases(self, tree):
        assert cli._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": {1, 2}})

    @pytest.mark.parametrize("name, mode", SPEC_MODES)
    def test_shipped_report_is_the_standard_encoding(self, name, mode, capsys):
        args = [
            "analyze", str(SPECS / f"{name}.json"), "--mode", mode, "--grid", "3",
            "--format", "json", "--verify",
        ]
        main(args)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestGoldenDigests:
    """Pinned report digests of every shipped spec in its applicable modes,
    and of ``GENERATED_SPECS`` in base mode, so any change of verdict,
    witness, certificate text or replay shows.

    ``input.path`` is part of the digest, so every run uses a relative path:
    ``specs/<name>.json`` from the repository root, or ``<name>.json`` in
    the temporary directory a generated spec is written to.
    """

    @pytest.mark.parametrize(
        "name, mode, digest",
        [
            ("cerny4", "base", "9e9ed569e875ac5ab2958a57d15bb9fedb24d52d16553ce4ce24b36f1aefb559"),
            ("cerny4", "prop1", "3d2907f56bdf23c77e18c00030dfb4f59dbbc641cbed87307da999df2aef2e53"),
            ("cerny4", "thm", "548cc3a1885dd735bed26dafc818b7a51a56d618f79ae40888f1a2b6f684bcca"),
            ("cerny4", "invariant", "8b2ae876ac0c9a1b53fedb0bb7439caecf880ce7162ef7293365c45ca303aa61"),
            ("collapse3", "base", "af4d320e1a691c03cd9209b5fea6543b4c74c5ff4880c9d445960229bbd88e1d"),
            ("collapse3", "prop1", "864b628153c2a180778cee9ab44b37d575f66e9f094c99a073649943eae1494b"),
            ("collapse3", "thm", "f597dc30e2c021f19f276a819cd3e431ffba3171d796419cf0c39adef0ec3db6"),
            ("collapse3", "invariant", "c6cb8a878faa9478ec1167781a1d389e2f43d46d012e6d756601903e84511346"),
            ("swap2", "base", "4f8e4b4afdb0421c0f776fc517e83565cb8b0df05a4cc5677a638d371316a11b"),
            ("swap2", "prop1", "61aa4ec13bcc2cd88b344932da5ea97bae2e8b3beae5f948e1a1044ec8a6802f"),
            ("swap2", "thm", "deba110525106aba29e627dfcefe0c7e6c1e6401d927d517c1908c6d7596e54b"),
            ("swap2", "invariant", "c399a425fd167c9b9f11bce29c4d31eee34dc055c6f4cc2b7bafd48daf2d4afb"),
            ("z2_translation", "base", "7fb8af92d5236992bef89fa8d7ac0f8d97c2ae19ea0e07e4ae9377ab1e06d335"),
            ("z2_translation", "prop1", "caf3293410e6406e36c700fa5115ad6e0240f2c7c3da435228f78bdca638391c"),
            ("z2_translation", "thm", "3e2c82c3626fddb7664e5fd404e55096672d2199ab518145bc034ed8ac3392cb"),
            ("z2_translation", "invariant", "91085260788984b2a9f7414297ff15641a7bd04f0987a6d0ccfd926d4b123969"),
            ("z2_translation", "psi", "cc0ad39643f82720ea5be5ed26f121d0d0f92d3c61c6326c3b234bc3d1e2f946"),
            ("cerny4", "psi", "0aca029f1c96fd8d3eeb5c849efc73de1e5fbc3cea833a9b65ead556b7b59f54"),
            ("lazy_chain", "base", "2c016a74ca50dfd9f8eee17707585f0b252d4d47007394df3f63c0faa0744211"),
            ("lazy_pair", "base", "8749beb5eaf45627e4b5ba7445a4175f4ae5d87ebe50e70fcd9b99357eb55731"),
            ("affine_wedge", "affine", "c762184106fbb2c4a38f3d3eccf0499698f610897bc9c27d8e84baf5cf8af6b4"),
        ],
    )
    def test_digest(self, name, mode, digest, monkeypatch, capsys):
        monkeypatch.chdir(SPECS.parent)
        args = [
            "analyze", f"specs/{name}.json", "--mode", mode, "--grid", "3",
            "--verify",
        ]
        code, rep = run_json(args, capsys)
        assert code == 0
        assert rep["verify"]["ok"]
        assert rep["report_digest"] == digest


    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cerny9", "e9bcb49321f0674733c6dc6d226659db30a69c43afe073d5ad8a6988b7a95d7d"),
            ("circular11_step2", "85baade3dfc379114efb3e87337fb78bbe9c75c9ecb146a8bb9034a2b8103f66"),
            ("two_sink10", "9260144038774a77dc10208a3bc0a2b3a014db2441a9224ae71a80d9372d7088"),
            ("dense4x2", "e92133e2d4de7f753ea8d589bb2a49fe8c97d83f168dc2606c97a74bdb6e2e1a"),
            ("sparse5x3", "4da0f9b2554b87331b34a37f7e0c6c522ec3a5f49a4ac0f4aecb142d46f14221"),
            ("block4x2", "3cc7e340b3658abe62a8d6ed6216f4b7f9242963d36bbd1d1cc8d4db313ddf54"),
        ],
    )
    def test_generated_digest(self, name, digest, tmp_path, monkeypatch, capsys):
        write_spec(tmp_path, GENERATED_SPECS[name], f"{name}.json")
        monkeypatch.chdir(tmp_path)
        args = ["analyze", f"{name}.json", "--mode", "base", "--verify"]
        _, rep = run_json(args, capsys)
        assert rep["verify"]["ok"]
        assert rep["report_digest"] == digest

    def test_budget_fallback_digest(self, tmp_path, monkeypatch, capsys):
        # 40 sets are too few for the subset search, so the reset word is
        # greedy merging's: 101 letters against the minimal 91.
        name = "circular11_step2"
        write_spec(tmp_path, GENERATED_SPECS[name], f"{name}.json")
        monkeypatch.chdir(tmp_path)
        args = [
            "analyze", f"{name}.json", "--mode", "base", "--max-closure", "40",
            "--verify",
        ]
        code, rep = run_json(args, capsys)
        assert code == 0
        reset = rep["results"]["reset_word"]
        assert len(reset["witness"]) == 101
        assert reset["certificate"].startswith("greedy pair merging")
        assert rep["verify"] == {"checked": 2, "ok": True, "failures": []}
        assert rep["report_digest"] == (
            "3929f78da7528a15bb3721229e464458276cb2c41293011f6cf707791501a369"
        )

    @pytest.mark.parametrize(
        "name, mode, grid, digest",
        [
            ("cerny7", "prop1", 6, "c8c34ee9155b5f56b8956c393f5165fe8b0b79691674a3baf3fb28902b999fdc"),
            ("cerny7", "thm", 6, "e48f2b0ec05fde7239082f8bce78928b40cddcaf0928261b1e2ea16d08cb470c"),
            ("two_sink7", "thm", 5, "efb444b0e4fbfa9f2b5db186ae6383b6e7639842997301968f981a4001a3b868"),
            ("cycle5", "invariant", 4, "8b9453278406bc0b4724e44a4ce80af838867852cf805126c673adb45489a5d7"),
        ],
    )
    def test_generated_lift_digest(
        self, name, mode, grid, digest, tmp_path, monkeypatch, capsys
    ):
        # Lifts at benchmark scale: up to 924 atoms.
        write_spec(tmp_path, GENERATED_SPECS[name], f"{name}.json")
        monkeypatch.chdir(tmp_path)
        args = [
            "analyze", f"{name}.json", "--mode", mode, "--grid", str(grid),
            "--verify",
        ]
        code, rep = run_json(args, capsys)
        assert code == 0
        assert rep["verify"]["ok"]
        assert rep["report_digest"] == digest


class TestDemoSL:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = main(
            ["demo-sl", "--n-max", "16", "--steps", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["n", "pair_gap", "max_ball_mass"]
        assert header[3:] == ["mass_in_K1", "mass_in_K2", "mass_in_K3"]
        assert len(lines) >= 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        summary = capsys.readouterr().out
        assert "pair gap" in summary

    def test_stdout_csv(self, capsys):
        code = main(["demo-sl", "--n-max", "4", "--steps", "2", "--out", "-"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("n,pair_gap")
        # At n = 4 the largest cube still holds all the mass, so the run
        # cannot conclude that no fixed cube retains 0.9.
        assert "strong proximality fails" not in captured.err
        assert captured.err.endswith(
            "cube |x|<=100: min mass over the run 1; below 0.9 never\n"
            "mass 0.9 still lies in the cube |x|<=100 at n=4: the run is too "
            "short to show that no fixed cube retains it; raise --n-max\n"
        )

    def test_gap_scales_inverse_n(self, tmp_path):
        out = tmp_path / "demo.csv"
        main(["demo-sl", "--n-max", "64", "--steps", "3", "--out", str(out)])
        rows = [
            line.split(",")
            for line in out.read_text().strip().splitlines()[1:]
        ]
        gap = {float(r[0]): float(r[1]) for r in rows}
        assert gap[64.0] == pytest.approx(gap[1.0] / 64.0)

    def test_non_rational_cube_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-sl", "--cubes", "1,2.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --cubes: entry 2: not a rational literal: '2.5'\n"
        )

    def test_bad_cubes_exit_1(self, capsys):
        for cubes in ("2,1", "-1,1", "0,1"):
            assert main(["demo-sl", f"--cubes={cubes}"]) == 1, cubes
            assert "error: --cubes:" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
    def test_bad_radius_exit_1(self, radius, capsys):
        assert main(["demo-sl", f"--radius={radius}"]) == 1
        assert "error: --radius:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_bad_grid_exit_1(self, grid, capsys):
        assert main(["demo-sl", "--grid", grid]) == 1
        assert "error: --grid:" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["0", "-5"])
    def test_bad_n_max_exit_1(self, n_max, capsys):
        assert main(["demo-sl", "--n-max", n_max]) == 1
        captured = capsys.readouterr()
        assert "error: --n-max:" in captured.err
        assert captured.out == ""
