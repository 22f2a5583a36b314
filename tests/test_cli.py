"""Spec parsing, report determinism, exit codes, the SL demo."""

import json
import pathlib
from fractions import Fraction

import pytest

from proxilift import Measure, SpecError
from proxilift import cli
from proxilift.cli import (
    build_parser,
    load_spec,
    main,
    parse_rational,
    serialize_spec,
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


class TestParseRational:
    def test_accepts(self):
        assert parse_rational("3/4", "x") == F(3, 4)
        assert parse_rational("-1/2", "x") == F(-1, 2)
        assert parse_rational(2, "x") == F(2)

    @pytest.mark.parametrize("bad", [0.5, True, "1.5", "3/0", "1/-2", "", "a/b"])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            parse_rational(bad, "x")


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

    def test_stochastic_unknown_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, LAZY_PAIR)
        code, rep = run_json(["analyze", path, "--mode", "base"], capsys)
        assert code == 2
        res = rep["results"]
        assert res["is_proximal"]["status"] == "YES"
        assert res["strongly_proximal"]["status"] == "UNKNOWN"

    def test_verify_replays(self, capsys):
        code, rep = run_json(
            ["analyze", str(SPECS / "cerny4.json"), "--mode", "thm", "--verify"],
            capsys,
        )
        assert code == 0
        assert rep["verify"]["ok"] is True
        assert rep["verify"]["checked"] >= 1
        assert rep["verify"]["failures"] == []

    def test_verify_rejects_invariant_non_extreme(self, monkeypatch, capsys):
        # the swap's q=2 lift has orbits {(2,0), (0,2)} and {(1,1)}; the
        # uniform measure on their union is invariant but not extreme
        monkeypatch.setattr(
            cli, "invariant_metas", lambda system, q: [Measure.uniform(3)]
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

    def test_demo_grid_has_no_env_override(self, monkeypatch):
        monkeypatch.setenv("PROXILIFT_GRID", "3")
        assert build_parser().parse_args(["demo-sl"]).grid == 200
        assert build_parser().parse_args(["analyze", "x.json"]).grid == 3


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
        assert "strong proximality fails" in captured.err

    def test_gap_scales_inverse_n(self, tmp_path):
        out = tmp_path / "demo.csv"
        main(["demo-sl", "--n-max", "64", "--steps", "3", "--out", str(out)])
        rows = [
            line.split(",")
            for line in out.read_text().strip().splitlines()[1:]
        ]
        gap = {float(r[0]): float(r[1]) for r in rows}
        assert gap[64.0] == pytest.approx(gap[1.0] / 64.0)

    def test_bad_cubes_exit_1(self, capsys):
        assert main(["demo-sl", "--cubes", "2,1"]) == 1
        assert "error:" in capsys.readouterr().err
