"""CLI commands, exit codes, determinism, and golden reports."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conefix.cli import main
from conefix.problemfile import parse_problem_file
from golden.regen import CASES as GOLDEN_CASES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PROBLEMS = REPO_ROOT / "problems"


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def broken_metric_doc():
    return {
        "space": {
            "dim": 2,
            "norm": "infinity",
            "cone": {
                "generators": [[1.0, 0.0], [0.0, 1.0]],
                "facets": [[1.0, 0.0], [0.0, 1.0]],
            },
            "metric": {
                "kind": "table",
                "labels": ["a", "b"],
                "entries": [["a", "b", [1.0, 1.0]], ["b", "a", [2.0, 1.0]]],
            },
        },
    }


# (path to a key of banach_scalar.json, raw JSON token put there, command)
BAD_NUMBERS = [
    (("solve", "eps"), '"abc"', ["solve"]),
    (("solve", "max_iter"), '"x"', ["solve"]),
    (("check", "pair_source", "sampled", "n"), '"many"', ["check"]),
    (("check", "pair_source", "sampled", "seed"), "-1", ["check"]),
    (("check", "pair_source", "sampled", "n"), "0", ["validate"]),
    (("check", "pair_source", "sampled", "n"), "-3", ["check"]),
    (("solve", "eps"), "NaN", ["solve"]),
    (("solve", "beta"), "NaN", ["solve", "--force"]),
    (("solve", "eps"), "1e400", ["solve"]),
    (("space", "dim"), "true", ["check"]),
    (("space", "metric", "m"), "true", ["check"]),
    (("check", "tol"), "-1", ["validate"]),
]


def per_pair_doc():
    """A table metric with per-pair coefficients, the shapes no shipped problem has."""
    ops = {"A1": [[0.3]], "A2": [[0.1]], "A3": [[0.1]], "A4": [[0.05]]}
    return {
        "space": {
            "dim": 1,
            "norm": "two",
            "cone": {"generators": [[1.0]], "facets": [[1.0]]},
            "metric": {"kind": "table", "labels": ["a", "b"], "entries": [["a", "b", [1.0]]]},
        },
        "mapping": {"kind": "table", "table": {"a": "a", "b": "a"}},
        "coefficients": {
            "kind": "per_pair",
            "table": [{"x": x, "y": y, **ops} for x in "ab" for y in "ab"],
        },
        "solve": {"x0": "b", "eps": 1e-8},
    }


def half_line_doc(weight, positions, table):
    """A lifted euclidean metric on the half-line cone with A1 = 0.1 and the other coefficients 0."""
    zero = [[0.0]]
    return {
        "space": {
            "dim": 1,
            "norm": "two",
            "cone": {"generators": [[1.0]], "facets": [[1.0]]},
            "metric": {
                "kind": "lifted",
                "base": "euclidean",
                "weight": [weight],
                "labels": sorted(positions),
                "positions": positions,
            },
        },
        "mapping": {"kind": "table", "table": table},
        "coefficients": {"kind": "constant", "A1": [[0.1]], "A2": zero, "A3": zero, "A4": zero},
        "solve": {"x0": "a", "eps": 1e-8},
    }


PER_PAIR_ROWS = per_pair_doc()["coefficients"]["table"]
DUPLICATE_ROW = {**PER_PAIR_ROWS[1], "A1": [[5.0]]}  # a second (a, b) row
ZERO_OPS_2D = {name: [[0.0, 0.0], [0.0, 0.0]] for name in ("A1", "A2", "A3", "A4")}

# (problem, path to a key, value put there, section the error names)
BAD_STRUCTURE = [
    ("finite_ladder", ("space", "metric", "positions", "p03"), ["abc"], "space.metric.positions.p03"),
    ("finite_ladder", ("space", "metric", "positions"), [[0.0]], "space.metric.positions"),
    ("finite_ladder", ("space", "metric", "labels"), 5, "space.metric.labels"),
    ("finite_ladder", ("space", "norm"), {}, "space.norm"),
    ("finite_ladder", ("check",), {"pair_source": {}}, "check.pair_source"),
    ("per_pair", ("coefficients", "table"), 5, "coefficients.table"),
    ("per_pair", ("coefficients", "table"), [], "coefficients.table"),
    ("per_pair", ("space", "metric", "entries"), 5, "space.metric.entries"),
    ("per_pair", ("space", "metric", "labels"), None, "space.metric.labels"),
    # keys that belong to another kind of the same section
    ("finite_ladder", ("space", "metric", "m"), 7, "space.metric"),
    ("finite_ladder", ("space", "metric", "entries"), [], "space.metric"),
    ("banach_scalar", ("space", "metric", "positions"), {}, "space.metric"),
    ("per_pair", ("space", "metric", "weight"), [1.0], "space.metric"),
    ("finite_ladder", ("mapping", "B"), "junk", "mapping"),
    ("banach_scalar", ("mapping", "table"), {}, "mapping"),
    ("finite_ladder", ("coefficients", "table"), "junk", "coefficients"),
    ("per_pair", ("coefficients", "A1"), [[0.3]], "coefficients"),
    # each ordered pair once, and only pairs of the point labels
    ("per_pair", ("coefficients", "table"), [DUPLICATE_ROW, *PER_PAIR_ROWS], "coefficients.table.2"),
    ("per_pair", ("coefficients", "table"), [*PER_PAIR_ROWS, DUPLICATE_ROW], "coefficients.table.4"),
    ("per_pair", ("coefficients", "table"), [*PER_PAIR_ROWS, {**DUPLICATE_ROW, "x": "zz"}],
     "coefficients.table.4.x"),
    ("per_pair", ("space", "metric", "entries"), [["a", "b", [1.0]], ["a", "b", [1.0]]],
     "space.metric.entries.1"),
    ("per_pair", ("space", "metric", "entries"), [["a", "zz", [1.0]]], "space.metric.entries.0"),
    ("banach_scalar", ("coefficients",), {"kind": "per_pair", "table": [{"x": "a", "y": "b", **ZERO_OPS_2D}]},
     "coefficients.table.0.x"),
    ("banach_scalar", ("mapping",), {"kind": "table", "table": {"a": "a"}}, "mapping.table"),
    # positions only for the point labels, whatever their length
    ("finite_ladder", ("space", "metric", "positions", "zz"), [5.0], "space.metric.positions.zz"),
    ("finite_ladder", ("space", "metric", "positions", "zz"), [5.0, 1.0], "space.metric.positions.zz"),
]

# (path to an array key of banach_scalar.json, command); the key holds [1e400]
NON_FINITE_ARRAYS = [
    (("mapping", "c"), "validate"),
    (("mapping", "c"), "check"),
    (("solve", "x0"), "check"),
    (("solve", "x0"), "solve"),
]


class TestExitCodes:
    def test_validate_ok(self):
        code, out = run_cli(["validate", str(PROBLEMS / "banach_scalar.json")])
        assert code == 0
        assert "exit_status" in out

    def test_validate_asymmetric_table_names_axiom_b(self, tmp_path):
        path = write_problem(tmp_path, broken_metric_doc())
        code, out = run_cli(["validate", path, "--output", "machine"])
        assert code == 2
        assert "axiom (b)" in out
        assert "metric.axiom_b_pass=false" in out

    def test_generator_outside_facets_reported(self, tmp_path):
        doc = broken_metric_doc()
        doc["space"]["cone"]["generators"] = [[1.0, 0.0], [-0.5, 1.0]]
        doc["space"]["metric"] = {
            "kind": "lifted",
            "base": "euclidean",
            "weight": [1.0, 0.0],
            "labels": ["a", "b"],
            "positions": {"a": [0.0], "b": [1.0]},
        }
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["validate", path, "--output", "machine"])
        assert code == 2
        assert "consistency" in out

    def test_unknown_key_is_input_error(self, tmp_path):
        doc = broken_metric_doc()
        doc["surprise"] = True
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["check", path])
        assert code == 2
        assert "surprise" in out

    @pytest.mark.parametrize(
        "keys,token,argv", BAD_NUMBERS, ids=[".".join(k) + "=" + t for k, t, _ in BAD_NUMBERS]
    )
    def test_bad_number_is_input_error(self, tmp_path, keys, token, argv):
        doc = json.loads((PROBLEMS / "banach_scalar.json").read_text())
        block = doc
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = "@@"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"@@"', token), encoding="utf-8")
        code, out = run_cli([argv[0], str(path), "--output", "machine", *argv[1:]])
        assert code == 2
        assert "exit_status=input-error" in out
        assert "\nerror=" in out

    @pytest.mark.parametrize(
        "problem,keys,value,section",
        BAD_STRUCTURE,
        ids=[f"{p}:{'.'.join(k)}={json.dumps(v)}" for p, k, v, _ in BAD_STRUCTURE],
    )
    def test_bad_structure_is_input_error(self, tmp_path, problem, keys, value, section):
        if problem == "per_pair":
            doc = per_pair_doc()
        else:
            doc = json.loads((PROBLEMS / f"{problem}.json").read_text())
        block = doc
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path = write_problem(tmp_path, doc)
        for argv in (["check"], ["solve", "--audit-gap", "3"], ["validate"]):
            code, out = run_cli([argv[0], path, "--output", "machine", *argv[1:]])
            assert code == 2
            assert f"\nerror={section}:" in out

    @pytest.mark.parametrize(
        "keys,command", NON_FINITE_ARRAYS, ids=[f"{'.'.join(k)}:{c}" for k, c in NON_FINITE_ARRAYS]
    )
    def test_non_finite_array_entry_names_key(self, tmp_path, keys, command):
        doc = json.loads((PROBLEMS / "banach_scalar.json").read_text())
        doc[keys[0]][keys[1]] = "@@"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"@@"', "[1e400]"), encoding="utf-8")
        code, out = run_cli([command, str(path), "--output", "machine"])
        assert code == 2
        assert f"\nerror={'.'.join(keys)}: expected finite array entries" in out

    def test_table_metric_missing_a_pair_is_input_error(self, tmp_path):
        # finite_ladder.json with its metric written out as a table that lacks (p03, p04)
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        space = parse_problem_file(PROBLEMS / "finite_ladder.json").space
        labels = sorted(space.labels)
        entries = [[x, y, space.d(x, y).tolist()] for x in labels for y in labels if x < y]
        entries.remove(["p03", "p04", space.d("p03", "p04").tolist()])
        doc["space"]["metric"] = {"kind": "table", "labels": labels, "entries": entries}
        doc["solve"]["beta"] = 0.5
        path = write_problem(tmp_path, doc)
        for argv in (["validate"], ["check"], ["solve"], ["solve", "--force"]):
            code, out = run_cli([argv[0], path, "--output", "machine", *argv[1:]])
            assert code == 2, argv
            assert "\nerror=space: metric table has no entry for (p03, p04)\n" in out

    def test_table_metric_breaking_the_triangle_is_input_error(self, tmp_path):
        # d(a, c) = 10 > d(a, b) + d(b, c) = 1.1: a certificate on this table
        # promises a tail bound that the audit then finds broken
        doc = per_pair_doc()
        doc["space"]["metric"] = {
            "kind": "table",
            "labels": ["a", "b", "c"],
            "entries": [["a", "b", [1.0]], ["b", "c", [0.1]], ["a", "c", [10.0]]],
        }
        doc["mapping"]["table"] = {"a": "b", "b": "c", "c": "c"}
        doc["coefficients"] = {"kind": "constant", "A1": [[0.1]], "A2": [[0.0]], "A3": [[0.0]], "A4": [[0.0]]}
        doc["solve"] = {"x0": "a", "eps": 1e-8, "beta": 0.1}
        path = write_problem(tmp_path, doc)
        for argv in (["validate"], ["check"], ["solve"], ["solve", "--audit-gap", "3"]):
            code, out = run_cli([argv[0], path, "--output", "machine", *argv[1:]])
            assert code == 2, argv
            assert "axiom (c): triangle slack for (a, b, c) leaves the cone" in out
        assert "\nerror=space.metric: axiom (c): triangle slack for (a, b, c) leaves the cone\n" in out
        # --force checks nothing, the metric included
        code, out = run_cli(["solve", path, "--force", "--output", "machine"])
        assert code == 0 and "point=c" in out

    def test_duplicate_positions_are_input_error(self, tmp_path):
        # a and b coincide, so the identity map has two fixed points
        doc = half_line_doc(1.0, {"a": [0.0], "b": [0.0]}, {"a": "a", "b": "b"})
        path = write_problem(tmp_path, doc)
        for argv in (["validate"], ["check"], ["solve"]):
            code, out = run_cli([argv[0], path, "--output", "machine"])
            assert code == 2, argv
            assert "axiom (a): d(a, b) vanishes for distinct points" in out
        assert "\nerror=space.metric: axiom (a): d(a, b) vanishes for distinct points\n" in out

    def test_tiny_lifted_weight_is_a_metric(self, tmp_path):
        # distances of 1e-12 lie below the absolute tolerance, yet the lift
        # of distinct positions is a cone metric; every command agrees
        doc = half_line_doc(1e-12, {"a": [0.0], "b": [1.0], "c": [3.0]}, {"a": "c", "b": "a", "c": "b"})
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["validate", path, "--output", "machine"])
        assert code == 0
        assert "metric.route=construction" in out
        assert run_cli(["check", path])[0] != 2

    def test_generator_outside_facets_is_input_error(self, tmp_path):
        # the cone check runs before the hypotheses under every command
        eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
        doc = {
            "space": {
                "dim": 2,
                "norm": "infinity",
                "cone": {"generators": [[1.0, 0.0], [-0.5, 1.0]], "facets": eye, "normal_constant": 2.0},
                "metric": {"kind": "lifted", "base": "discrete", "weight": [1.0, 1.0], "labels": ["a", "b"]},
            },
            "mapping": {"kind": "table", "table": {"a": "a", "b": "a"}},
            "coefficients": {"kind": "constant", "A1": [[0.2, 0.0], [0.0, 0.2]], "A2": zero, "A3": zero, "A4": zero},
            "solve": {"x0": "b", "eps": 1e-8},
        }
        path = write_problem(tmp_path, doc)
        for argv in (["validate"], ["check"], ["solve"]):
            code, out = run_cli([argv[0], path, "--output", "machine"])
            assert code == 2, argv
            assert "consistency: generator 1 violates a facet inequality" in out
        assert "\nerror=space.cone: consistency: generator 1 violates a facet inequality\n" in out

    def test_file_tol_is_the_tol_of_every_command(self, tmp_path):
        # d(a, c) exceeds d(a, b) + d(b, c) by 1e-8 in its first coordinate
        doc = json.loads((PROBLEMS / "finite_pairwise.json").read_text())
        entry = next(e for e in doc["space"]["metric"]["entries"] if e[:2] == ["a", "c"])
        entry[2][0] = 0.75 + 1e-8
        by_flag = write_problem(tmp_path, doc, "by_flag.json")
        doc["check"] = {"pair_source": "all", "tol": 1e-6}
        by_file = write_problem(tmp_path, doc, "by_file.json")
        for argv in (["validate"], ["check"], ["solve"]):
            code, out = run_cli([argv[0], by_flag, "--output", "machine"])
            assert code == 2, argv
            assert "axiom (c): triangle slack for (a, b, c) leaves the cone" in out
            assert run_cli([argv[0], by_flag, "--tol", "1e-6"])[0] == 0, argv
            assert run_cli([argv[0], by_file])[0] == 0, argv

    def test_per_pair_table_problem_solves(self, tmp_path):
        path = write_problem(tmp_path, per_pair_doc())
        code, out = run_cli(["solve", path, "--audit-gap", "3", "--output", "machine"])
        assert code == 0
        assert "point=a" in out

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(PROBLEMS / "banach_scalar.json"), "--seed", seed])
        assert exc.value.code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "x"])
    def test_bad_tol_is_usage_error(self, tol, capsys):
        # with inf every membership test passes, with nan every one fails
        for command in ("validate", "check", "solve"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(PROBLEMS / "finite_ladder.json"), "--tol", tol])
            assert exc.value.code == 2
            assert "tol must be a finite nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tol", "0.5", "validate", "problems/finite_ladder.json"],
            ["--output", "machine", "validate", "problems/finite_ladder.json"],
            ["--seed", "3", "check", "problems/banach_scalar.json"],
            ["probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9", "--instances", "2", "--tol", "5"],
        ],
        ids=["top-level-tol", "top-level-output", "top-level-seed", "probe-tol"],
    )
    def test_option_where_it_does_not_act_is_usage_error(self, argv, capsys, monkeypatch):
        # options go after the command, and only to the commands they act on
        monkeypatch.chdir(REPO_ROOT)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: conefix" in capsys.readouterr().err

    def test_options_after_the_command_act(self):
        code, out = run_cli(["validate", str(PROBLEMS / "finite_ladder.json"), "--tol", "0.5", "--output", "machine"])
        assert code == 0
        assert "\ntol=0.5\n" in out

    def test_negative_file_tol_names_the_key(self, tmp_path):
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        doc["check"] = {"tol": -1}
        code, out = run_cli(["check", write_problem(tmp_path, doc), "--output", "machine"])
        assert code == 2
        assert "\nerror=check: tol must be nonnegative, got -1.0\n" in out

    def test_negative_audit_gap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(PROBLEMS / "finite_ladder.json"), "--audit-gap", "-1"])
        assert exc.value.code == 2
        assert "audit-gap must be a nonnegative integer" in capsys.readouterr().err

    def test_negative_instances_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9", "--instances", "-3"])
        assert exc.value.code == 2
        assert "instances must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_start_step_is_input_error(self, tmp_path):
        # |d(a, b)| of [1e200, 1e200] overflows the two-norm, so no iteration count bounds the tail
        eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
        doc = {
            "space": {
                "dim": 2,
                "norm": "two",
                "cone": {"generators": eye, "facets": eye},
                "metric": {"kind": "table", "labels": ["a", "b"], "entries": [["a", "b", [1e200, 1e200]]]},
            },
            "mapping": {"kind": "table", "table": {"a": "a", "b": "a"}},
            "coefficients": {"kind": "constant", "A1": [[0.5, 0.0], [0.0, 0.5]], "A2": zero, "A3": zero, "A4": zero},
            "solve": {"x0": "b", "eps": 1e-8},
        }
        path = write_problem(tmp_path, doc)
        assert run_cli(["check", path])[0] == 0
        code, out = run_cli(["solve", path, "--output", "machine"])
        assert code == 2
        assert "\nerror=" in out and "not finite" in out

    def test_check_ok(self):
        code, out = run_cli(["check", str(PROBLEMS / "finite_ladder.json"), "--output", "machine"])
        assert code == 0
        assert "i1_pass=true" in out
        assert "contraction_pass=true" in out

    def test_check_missing_coefficients(self, tmp_path):
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        del doc["coefficients"]
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["check", path])
        assert code == 2
        assert "coefficients" in out

    def test_check_hypothesis_failure_names_i4(self, tmp_path):
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        doc["coefficients"]["A4"] = [[0.0, 0.0], [-0.1, 0.0]]
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["check", path, "--output", "machine"])
        assert code == 3
        assert "i4_pass=false" in out
        assert "witness.0.condition=i4" in out

    def test_declared_k_below_audit_is_input_error(self, tmp_path):
        # obtuse cone with normal constant ~1.6, declared 1.0
        import conefix

        cone = conefix.skewed_cone_2d(1.6)
        doc = {
            "space": {
                "dim": 2,
                "norm": "two",
                "cone": {
                    "generators": cone.generators.tolist(),
                    "facets": cone.facets.tolist(),
                    "normal_constant": 1.0,
                },
                "metric": {
                    "kind": "lifted",
                    "base": "euclidean",
                    "weight": cone.generators.sum(axis=0).tolist(),
                    "labels": ["a", "b"],
                    "positions": {"a": [0.0], "b": [1.0]},
                },
            },
            "mapping": {"kind": "table", "table": {"a": "a", "b": "a"}},
            "coefficients": {
                "kind": "constant",
                "A1": [[0.2, 0.0], [0.0, 0.2]],
                "A2": [[0.0, 0.0], [0.0, 0.0]],
                "A3": [[0.0, 0.0], [0.0, 0.0]],
                "A4": [[0.0, 0.0], [0.0, 0.0]],
            },
        }
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["check", path])
        assert code == 2
        assert "audit" in out

    def test_two_norm_alpha_not_under_reported(self, tmp_path):
        # norm(A1) = 1 and norm(A2) = 0.25 in the two norm, so alpha = 1.25 >= 1/k;
        # the all-ones vector is a singular vector for A1's smaller singular value
        doc = {
            "space": {
                "dim": 2,
                "norm": "two",
                "cone": {
                    "generators": [[1.0, 0.0], [0.0, 1.0]],
                    "facets": [[1.0, 0.0], [0.0, 1.0]],
                },
                "metric": {
                    "kind": "lifted",
                    "base": "discrete",
                    "weight": [1.0, 1.0],
                    "labels": ["a", "b", "c"],
                },
            },
            "mapping": {"kind": "table", "table": {"a": "a", "b": "a", "c": "a"}},
            "coefficients": {
                "kind": "constant",
                "A1": [[0.75, -0.25], [-0.25, 0.75]],
                "A2": [[0.0, 0.25], [0.25, 0.0]],
                "A3": [[0.0, 0.0], [0.0, 0.0]],
                "A4": [[0.0, 0.0], [0.0, 0.0]],
            },
        }
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["check", path, "--output", "machine"])
        assert code == 3
        assert "i1_pass=false" in out
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert float(fields["alpha"]) == pytest.approx(1.25, rel=1e-12)
        assert "witness.0.condition=i1" in out

    def test_solve_ok(self):
        code, out = run_cli(["solve", str(PROBLEMS / "banach_scalar.json"), "--output", "machine"])
        assert code == 0
        assert "point=" in out
        assert "certificate.beta_source=witnessed" in out

    def test_solve_hypothesis_failed(self, tmp_path):
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        doc["coefficients"]["A4"] = [[0.0, 0.0], [-0.1, 0.0]]
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["solve", path])
        assert code == 3

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_declaration_mismatch_exits_3(self, tmp_path, name):
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        _, out = run_cli(["check", str(PROBLEMS / "finite_ladder.json"), "--output", "machine"])
        witnessed = float(dict(line.split("=", 1) for line in out.splitlines())[name])
        doc["check"] = {name: witnessed + 0.01}
        path = write_problem(tmp_path, doc, "wrong.json")
        for command in ("check", "solve"):
            code, out = run_cli([command, path, "--output", "machine"])
            assert code == 3, command
            assert "exit_status=hypothesis-failed" in out
            # the declarations are audited after the conditions, which all hold
            assert f"contraction_pass=true\ndeclaration_mismatch.0=declared {name} " in out
            assert "disagrees with witnessed" in out and "declaration_mismatch.1" not in out
        # within the slack of 1e-9 max(1, |value|)
        doc["check"] = {name: witnessed * (1 + 1e-10)}
        path = write_problem(tmp_path, doc, "close.json")
        for command in ("check", "solve"):
            code, out = run_cli([command, path, "--output", "machine"])
            assert code == 0, command
            assert "\ndeclaration_mismatch" not in out

    def test_declared_solve_beta_below_witnessed_is_refused(self, tmp_path):
        # beta = 1e-6 would plan 2 steps where the witnessed 0.709 needs more;
        # the certificate it gave failed the audit at gap 10
        doc = json.loads((PROBLEMS / "finite_ladder.json").read_text())
        doc["solve"]["beta"] = 1e-6
        path = write_problem(tmp_path, doc, "low.json")
        for command in (["solve", "--audit-gap", "10"], ["check"]):
            code, out = run_cli([command[0], path, *command[1:], "--output", "machine"])
            assert code == 3, command
            assert "\ndeclaration_mismatch.0=declared solve beta 9.9999999999999995e-07 is below witnessed 0.7089" in out
            assert "certificate." not in out
        # --force takes a declared beta unchecked
        code, out = run_cli(["solve", path, "--force", "--output", "machine"])
        assert code == 0
        assert "certificate.beta=9.9999999999999995e-07" in out
        # a larger beta is conservative: more steps, and a clean audit
        doc["solve"]["beta"] = 0.9
        path = write_problem(tmp_path, doc, "high.json")
        code, out = run_cli(["solve", path, "--audit-gap", "10", "--output", "machine"])
        assert code == 0
        assert "certificate.beta=0.90000000000000002" in out
        assert "audit.step_violations=0" in out and "audit.gap_violations=0" in out
        assert "\ndeclaration_mismatch" not in out

    def test_solve_non_convergence(self, tmp_path):
        doc = {
            "space": {
                "dim": 2,
                "norm": "infinity",
                "cone": {
                    "generators": [[1.0, 0.0], [0.0, 1.0]],
                    "facets": [[1.0, 0.0], [0.0, 1.0]],
                },
                "metric": {"kind": "lifted", "base": "euclidean", "weight": [1.0, 1.0], "m": 1},
            },
            "mapping": {"kind": "affine", "B": [[1.0]], "c": [1.0]},
            "solve": {"x0": [0.0], "eps": 1e-8, "beta": 0.5},
        }
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["solve", path, "--force", "--output", "machine"])
        assert code == 4
        assert "exit_status=non-convergence" in out
        assert "trace_tail" in out

    def test_force_requires_beta(self, tmp_path):
        doc = json.loads((PROBLEMS / "banach_scalar.json").read_text())
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["solve", path, "--force"])
        assert code == 2
        assert "beta" in out

    def test_force_recorded(self, tmp_path):
        doc = json.loads((PROBLEMS / "banach_scalar.json").read_text())
        doc["solve"]["beta"] = 0.5
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["solve", path, "--force", "--output", "machine"])
        assert code == 0
        assert "forced=true" in out

    def test_probe_bad_range(self):
        code, out = run_cli(
            ["probe", "--k", "2", "--alpha-min", "0.2", "--alpha-max", "0.9"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option,value",
        [("--eps", "nan"), ("--eps", "inf"), ("--k", "inf"), ("--k", "nan"),
         ("--alpha-min", "nan"), ("--alpha-max", "nan"), ("--k", "1e999")],
    )
    def test_probe_non_finite_number_is_usage_error(self, option, value, capsys):
        options = {"--k": "2", "--alpha-min": "0.5", "--alpha-max": "0.9", "--instances": "1"}
        options[option] = value
        with pytest.raises(SystemExit) as exc:
            main(["probe", *(token for item in options.items() for token in item)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{option[2:]} must be a finite number, got '{value}'" in err
        assert "Traceback" not in err

    def test_probe_zero_instances(self):
        code, out = run_cli(
            [
                "probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9",
                "--instances", "0", "--output", "machine",
            ]
        )
        assert code == 0
        assert "row.0" not in out


class TestDeterminismAndGolden:
    @pytest.mark.parametrize("name,argv", list(GOLDEN_CASES.items()))
    def test_byte_identical_to_golden(self, name, argv, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestModuleEntryPoint:
    def test_python_dash_m_matches_golden(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        argv = ["check", "problems/banach_scalar.json", "--output", "machine"]
        run = subprocess.run(
            [sys.executable, "-m", "conefix", *argv],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDEN_DIR / "check_banach_scalar.txt").read_text(encoding="utf-8")


class TestSolveExtras:
    def test_trace_rows(self):
        code, out = run_cli(
            ["solve", str(PROBLEMS / "banach_scalar.json"), "--trace", "--output", "machine"]
        )
        assert code == 0
        assert "trace.0=" in out
        n_planned = int(next(l for l in out.splitlines() if l.startswith("certificate.n_planned=")).split("=")[1])
        assert f"trace.{n_planned}=" in out

    def test_audit_gap_zero_violations(self):
        code, out = run_cli(
            ["solve", str(PROBLEMS / "banach_scalar.json"), "--audit-gap", "10", "--output", "machine"]
        )
        assert code == 0
        assert "audit.step_violations=0" in out
        assert "audit.gap_violations=0" in out

    def test_probe_rows_marked_experimental(self):
        code, out = run_cli(
            [
                "probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9",
                "--instances", "3", "--seed", "1", "--output", "machine",
            ]
        )
        assert code == 0
        for i in range(3):
            assert f"row.{i}.label=EXPERIMENTAL" in out
        assert "label=EXPERIMENTAL" in out.splitlines()[2]


class TestHumanOutput:
    def test_human_mode_readable(self):
        code, out = run_cli(["check", str(PROBLEMS / "banach_scalar.json")])
        assert code == 0
        assert "exit_status" in out
        # six significant digits in human mode
        assert "0.5" in out
