"""Strict problem-file parsing."""

import json

import numpy as np
import pytest

from conefix import ConefixError, FinitePoints, LinearOperator, ProblemFileError
from conefix.problemfile import parse_problem_text


def base_doc():
    return {
        "space": {
            "dim": 2,
            "norm": "infinity",
            "cone": {
                "generators": [[1.0, 0.0], [0.0, 1.0]],
                "facets": [[1.0, 0.0], [0.0, 1.0]],
                "normal_constant": 1.0,
            },
            "metric": {
                "kind": "lifted",
                "base": "euclidean",
                "weight": [1.0, 1.0],
                "labels": ["a", "b"],
                "positions": {"a": [0.0], "b": [1.0]},
            },
        },
        "mapping": {"kind": "table", "table": {"a": "a", "b": "a"}},
        "coefficients": {
            "kind": "constant",
            "A1": [[0.5, 0.0], [0.0, 0.5]],
            "A2": [[0.0, 0.0], [0.0, 0.0]],
            "A3": [[0.0, 0.0], [0.0, 0.0]],
            "A4": [[0.0, 0.0], [0.0, 0.0]],
        },
        "solve": {"x0": "b", "eps": 1e-8},
        "check": {"pair_source": "all"},
    }


def parse(doc):
    return parse_problem_text(json.dumps(doc))


class TestParsing:
    def test_full_document(self):
        problem = parse(base_doc())
        assert problem.space.is_finite
        assert problem.space.labels == ("a", "b")
        assert problem.mapping.table == {"a": "a", "b": "a"}
        assert problem.solve.x0 == "b"
        assert problem.check.pair_source == "all"

    def test_euclidean_affine_document(self):
        doc = base_doc()
        doc["space"]["metric"] = {
            "kind": "lifted",
            "base": "euclidean",
            "weight": [1.0, 1.0],
            "m": 1,
        }
        doc["mapping"] = {"kind": "affine", "B": [[0.5]], "c": [1.0]}
        doc["solve"] = {"x0": [0.0], "eps": 1e-8}
        doc["check"] = {"pair_source": {"sampled": {"n": 50, "seed": 3}}}
        problem = parse(doc)
        assert not problem.space.is_finite
        assert problem.check.pair_source == ("sampled", 50, 3)

    def test_finite_space_is_swept_whole(self):
        # a sample of a finite space could witness too low an alpha and beta
        doc = base_doc()
        doc["check"] = {"pair_source": {"sampled": {"n": 50, "seed": 3}}}
        with pytest.raises(ProblemFileError, match=r"^check\.pair_source: a finite space is swept whole"):
            parse(doc)

    def test_table_metric_document(self):
        doc = base_doc()
        doc["space"]["metric"] = {
            "kind": "table",
            "labels": ["a", "b"],
            "entries": [["a", "b", [1.0, 1.0]]],
        }
        problem = parse(doc)
        assert np.allclose(problem.space.d("a", "b"), [1.0, 1.0])
        assert np.allclose(problem.space.d("b", "a"), [1.0, 1.0])

    def test_per_pair_coefficients(self, monkeypatch):
        # per-pair rows parse into one float stack, with no operator per matrix
        def refuse(op):
            raise AssertionError("a LinearOperator was built")

        monkeypatch.setattr(LinearOperator, "__post_init__", refuse)
        doc = base_doc()
        zero = [[0.0, 0.0], [0.0, 0.0]]
        half = [[0.5, 0.0], [0.0, 0.5]]
        entries = []
        for x in ("a", "b"):
            for y in ("a", "b"):
                entries.append({"x": x, "y": y, "A1": half, "A2": zero, "A3": zero, "A4": zero})
        doc["coefficients"] = {"kind": "per_pair", "table": entries}
        problem = parse(doc)
        assert problem.coeffs.stack.shape == (4, 4, 2, 2)
        quad = problem.coeffs.at("a", "b")
        assert quad.dtype == float and quad.shape == (4, 2, 2)
        assert quad[0].tolist() == half and quad[1:].tolist() == [zero] * 3

    def test_null_optional_number_is_left_out(self):
        doc = base_doc()
        doc["solve"].update(beta=None)
        doc["check"].update(tol=None, alpha=None)
        problem = parse(doc)
        assert problem.solve.beta is None
        assert problem.check.tol is None and problem.check.alpha is None
        assert problem.space.cone.normal_constant == 1.0

    def test_top_level_normal_constant_is_unknown_key(self):
        # k is set once, in space.cone
        doc = base_doc()
        doc["normal_constant"] = 2.0
        with pytest.raises(ProblemFileError, match=r"^top level: unknown key\(s\) \['normal_constant'\]$"):
            parse(doc)

    def test_weighted_norm(self):
        doc = base_doc()
        doc["space"]["norm"] = {"weighted": [2.0, 1.0]}
        problem = parse(doc)
        assert problem.space.cone.space.kind == "weighted"


class TestStrictness:
    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(ProblemFileError, match="extra"):
            parse(doc)

    def test_unknown_space_key(self):
        doc = base_doc()
        doc["space"]["color"] = "red"
        with pytest.raises(ProblemFileError, match="color"):
            parse(doc)

    def test_unknown_cone_key(self):
        doc = base_doc()
        doc["space"]["cone"]["rays"] = []
        with pytest.raises(ProblemFileError, match="rays"):
            parse(doc)

    def test_unknown_solve_key(self):
        doc = base_doc()
        doc["solve"]["tolerance"] = 1e-3
        with pytest.raises(ProblemFileError, match="tolerance"):
            parse(doc)

    def test_missing_required_key(self):
        doc = base_doc()
        del doc["space"]["dim"]
        with pytest.raises(ProblemFileError, match="dim"):
            parse(doc)

    def test_ragged_matrix_rejected(self):
        doc = base_doc()
        doc["coefficients"]["A1"] = [[0.5, 0.0], [0.0]]
        with pytest.raises(ProblemFileError):
            parse(doc)

    def test_wrong_dimension_rejected(self):
        doc = base_doc()
        doc["space"]["cone"]["generators"] = [[1.0, 0.0, 0.0]]
        with pytest.raises(ProblemFileError):
            parse(doc)

    @pytest.mark.parametrize("b", [[1.0, 2.0], [[1.0]]], ids=["mixed", "matrix"])
    def test_positions_must_be_vectors_of_one_dimension(self, b):
        # a one-coordinate and a two-coordinate point would broadcast silently
        doc = base_doc()
        doc["space"]["metric"]["positions"] = {"a": [0.0], "b": b}
        with pytest.raises(ConefixError, match="one common dimension"):
            parse(doc)

    def test_positions_of_unknown_labels_rejected(self):
        with pytest.raises(ConefixError, match=r"unknown labels \['zz'\]"):
            FinitePoints(("a", "b"), {"a": [0.0], "b": [1.0], "zz": [5.0]})

    def test_non_finite_position_names_its_label(self):
        doc = base_doc()
        doc["space"]["metric"]["positions"]["b"] = ["@@"]
        with pytest.raises(ProblemFileError, match=r"space\.metric\.positions\.b: expected finite"):
            parse_problem_text(json.dumps(doc).replace('"@@"', "1e400"))

    def test_scalar_positions_are_one_coordinate(self):
        doc = base_doc()
        doc["space"]["metric"]["positions"] = {"a": 0.0, "b": 1.0}
        assert np.array_equal(parse(doc).space.d("a", "b"), parse(base_doc()).space.d("a", "b"))

    @pytest.mark.parametrize("keys", [("space", "dim"), ("space", "metric", "m")])
    def test_sizes_must_be_positive(self, keys):
        doc = base_doc()
        doc["space"]["metric"] = {"kind": "lifted", "base": "euclidean", "weight": [1.0, 1.0], "m": 1}
        del doc["mapping"], doc["solve"]
        block = doc
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = 0
        with pytest.raises(ProblemFileError, match="positive"):
            parse(doc)

    def test_matrix_must_be_two_dimensional(self):
        doc = base_doc()
        doc["space"]["metric"] = {"kind": "lifted", "base": "euclidean", "weight": [1.0, 1.0], "m": 1}
        doc["mapping"] = {"kind": "affine", "B": [0.5], "c": [1.0]}
        doc["solve"] = {"x0": [0.0], "eps": 1e-8}
        with pytest.raises(ProblemFileError, match=r"mapping\.B: expected an array of shape 1x1"):
            parse(doc)

    @pytest.mark.parametrize(
        "add,remove,message",
        [({"m": 1}, (), r"unknown key\(s\) \['m'\]"), ({}, ("labels", "positions"), "missing required key 'm'")],
        ids=["labels-and-m", "neither"],
    )
    def test_lifted_metric_form_follows_labels(self, add, remove, message):
        # a lifted metric with labels is over those labels, else over R^m
        doc = base_doc()
        metric = doc["space"]["metric"]
        metric.update(add)
        for key in remove:
            del metric[key]
        with pytest.raises(ProblemFileError, match=message):
            parse(doc)

    @pytest.mark.parametrize("entry", [["a", "b"], "ab", ["a", "b", [1.0, 1.0], 0]])
    def test_metric_entries_must_be_triples(self, entry):
        doc = base_doc()
        doc["space"]["metric"] = {"kind": "table", "labels": ["a", "b"], "entries": [entry]}
        with pytest.raises(ProblemFileError, match=r"space\.metric\.entries\.0: table entries must be"):
            parse(doc)

    def test_affine_mapping_needs_euclidean_domain(self):
        doc = base_doc()
        doc["mapping"] = {"kind": "affine", "B": [[0.5]], "c": [1.0]}
        with pytest.raises(ProblemFileError, match="euclidean point domain"):
            parse(doc)

    def test_normal_constant_below_one_rejected(self):
        doc = base_doc()
        doc["space"]["cone"]["normal_constant"] = 0.5
        with pytest.raises(ProblemFileError, match="normal constant"):
            parse(doc)

    def test_partial_mapping_rejected(self):
        doc = base_doc()
        doc["mapping"]["table"] = {"a": "a"}
        with pytest.raises(ProblemFileError, match="total"):
            parse(doc)

    def test_mapping_outside_labels_rejected(self):
        doc = base_doc()
        doc["mapping"]["table"] = {"a": "a", "b": "zzz"}
        with pytest.raises(ProblemFileError):
            parse(doc)

    def test_x0_must_be_a_label(self):
        doc = base_doc()
        doc["solve"]["x0"] = "nope"
        with pytest.raises(ProblemFileError, match="x0"):
            parse(doc)

    def test_invalid_json(self):
        with pytest.raises(ProblemFileError, match="JSON"):
            parse_problem_text("{not json")

    def test_unknown_pair_source(self):
        doc = base_doc()
        doc["check"]["pair_source"] = "every"
        with pytest.raises(ProblemFileError):
            parse(doc)

    def test_eps_must_be_positive(self):
        doc = base_doc()
        doc["solve"]["eps"] = 0.0
        with pytest.raises(ProblemFileError, match="eps"):
            parse(doc)


class TestRoundTrip:
    def test_generated_instance_round_trips(self, orthant2_inf):
        from conefix import check_hypotheses, generate_certified_instance

        inst = generate_certified_instance(9, 4, orthant2_inf)
        problem = parse(inst.to_problem_dict())
        report = check_hypotheses(problem.space, problem.mapping, problem.coeffs)
        assert report.passed
        direct = check_hypotheses(inst.space, inst.mapping, inst.coeffs)
        assert report.alpha == direct.alpha
        assert report.beta == direct.beta
