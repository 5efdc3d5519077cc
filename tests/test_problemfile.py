"""Strict problem-file parsing."""

import json

import numpy as np
import pytest

from conefix import ConefixError, ProblemFileError
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

    def test_per_pair_coefficients(self):
        doc = base_doc()
        zero = [[0.0, 0.0], [0.0, 0.0]]
        half = [[0.5, 0.0], [0.0, 0.5]]
        entries = []
        for x in ("a", "b"):
            for y in ("a", "b"):
                entries.append({"x": x, "y": y, "A1": half, "A2": zero, "A3": zero, "A4": zero})
        doc["coefficients"] = {"kind": "per_pair", "table": entries}
        problem = parse(doc)
        assert problem.coeffs.at("a", "b")[0].matrix[0, 0] == 0.5

    def test_top_level_normal_constant_overrides(self):
        doc = base_doc()
        doc["normal_constant"] = 2.0
        problem = parse(doc)
        assert problem.space.cone.normal_constant == 2.0

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
