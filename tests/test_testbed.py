"""Example spaces, the brute-force oracle, and the instance generators."""

import numpy as np
import pytest

from conefix import (
    ContractViolationError,
    NormedSpace,
    TableMapping,
    brute_force_fixed_points,
    check_hypotheses,
    check_metric_axioms,
    generate_certified_instance,
    make_finite_lifted_space,
    make_lifted_space,
    make_scalar_space,
    normal_constant_lower_bound,
    orthant,
    picard_solve,
    skewed_cone_2d,
    validate_cone,
    verify_corollary_equivalence,
)
from conefix.testbed import FiniteInstance
from references import cone_contains


class TestScalarSpace:
    def test_discrete_two_points(self):
        space = make_scalar_space(labels=("a", "b"), base="discrete")
        assert np.allclose(space.d("a", "b"), [1.0])
        assert cone_contains(space.cone, space.d("a", "b"))

    def test_euclidean_line(self):
        space = make_scalar_space()
        assert np.allclose(space.d([0.0], [2.5]), [2.5])

    def test_axioms_exhaustive_on_finite(self):
        space = make_scalar_space(
            labels=("a", "b", "c"), positions={"a": [0.0], "b": [1.5], "c": [-2.0]}
        )
        report = check_metric_axioms(space)
        assert report.passed and report.route == "construction" and report.pairs_checked == 9

    def test_positions_required_for_euclidean_base(self):
        with pytest.raises(ContractViolationError):
            make_scalar_space(labels=("a", "b"))


class TestLiftedSpace:
    def test_weight_direction(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 2.0])
        assert np.allclose(space.d([0.0], [1.0]), [1.0, 2.0])

    def test_triangle_slack_in_cone(self, orthant2_two, rng):
        space = make_lifted_space(2, orthant2_two, [1.0, 2.0])
        w = np.array([1.0, 2.0])
        for _ in range(100):
            x, y, z = (rng.uniform(-3, 3, 2) for _ in range(3))
            slack = space.d(x, z) + space.d(z, y) - space.d(x, y)
            rho_slack = (
                np.linalg.norm(x - z) + np.linalg.norm(z - y) - np.linalg.norm(x - y)
            )
            assert np.allclose(slack, rho_slack * w, atol=1e-12)
            assert cone_contains(orthant2_two, slack, 1e-9)

    def test_axioms_by_construction(self, orthant2_two):
        space = make_lifted_space(2, orthant2_two, [0.3, 1.7])
        assert check_metric_axioms(space).passed

    def test_weight_outside_cone_rejected(self, orthant2_two):
        with pytest.raises(ContractViolationError):
            make_lifted_space(1, orthant2_two, [1.0, -0.5])

    def test_zero_weight_rejected(self, orthant2_two):
        with pytest.raises(ContractViolationError):
            make_lifted_space(1, orthant2_two, [0.0, 0.0])


class TestBruteForce:
    def _instance(self, cone, table):
        labels = tuple(sorted(table))
        positions = {l: [float(i)] for i, l in enumerate(labels)}
        space = make_finite_lifted_space(labels, positions, cone, [1.0, 1.0])
        from conefix import ConstantCoefficients, LinearOperator

        zero = LinearOperator(np.zeros((2, 2)), cone.space)
        coeffs = ConstantCoefficients(
            LinearOperator(0.5 * np.eye(2), cone.space), zero, zero, zero
        )
        return FiniteInstance(space, TableMapping(table), coeffs)

    def test_constant_target(self, orthant2_inf):
        inst = self._instance(orthant2_inf, {"x0": "x1", "x1": "x1", "x2": "x1"})
        assert brute_force_fixed_points(inst) == ["x1"]

    def test_identity_finds_all(self, orthant2_inf):
        inst = self._instance(orthant2_inf, {"a": "a", "b": "b"})
        assert brute_force_fixed_points(inst) == ["a", "b"]

    def test_matches_solver_on_certified_instance(self, orthant2_inf):
        inst = generate_certified_instance(11, 6, orthant2_inf)
        fixed = brute_force_fixed_points(inst)
        assert len(fixed) == 1
        report = check_hypotheses(inst.space, inst.mapping, inst.coeffs)
        start = max(
            sorted(inst.space.labels), key=lambda l: inst.space.d_norm(l, fixed[0])
        )
        result = picard_solve(inst.space, inst.mapping, None, report.beta, start, 1e-10)
        assert result.point == fixed[0]


class TestSkewedCone:
    def test_valid_and_solid(self):
        cone = skewed_cone_2d(1.6)
        assert validate_cone(cone).passed
        assert cone.solid

    def test_normal_constant_approached_from_below(self):
        cone = skewed_cone_2d(2.0)
        bound = normal_constant_lower_bound(cone, n_samples=4000, seed=2)
        assert 1.8 < bound <= 2.0 * (1 + 1e-12)

    def test_needs_k_above_one(self):
        with pytest.raises(ContractViolationError):
            skewed_cone_2d(1.0)


class TestCorollaryEquivalence:
    def test_reference_quadruple(self):
        report = verify_corollary_equivalence(0.2, 0.1, 0.1, 0.1)
        assert report.passed
        assert report.expected_beta == pytest.approx(0.5, abs=1e-15)
        assert report.expected_alpha == pytest.approx(0.6, abs=1e-15)

    def test_banach_reduction(self):
        report = verify_corollary_equivalence(0.7, 0.0, 0.0, 0.0)
        assert report.passed
        assert report.witnessed_beta == pytest.approx(0.7, abs=1e-12)
        assert report.witnessed_alpha == pytest.approx(0.7, abs=1e-12)

    def test_zero_family(self):
        report = verify_corollary_equivalence(0.0, 0.0, 0.0, 0.0)
        assert report.passed
        assert report.witnessed_beta == 0.0

    def test_denominator_precondition(self):
        with pytest.raises(ContractViolationError):
            verify_corollary_equivalence(0.1, 0.1, 0.6, 0.4)


class TestGenerator:
    def test_certified_flags(self, orthant2_inf):
        inst = generate_certified_instance(1, 5, orthant2_inf)
        report = check_hypotheses(inst.space, inst.mapping, inst.coeffs)
        assert report.passed and report.exhaustive
        assert report.alpha <= 0.9 + 1e-12
        assert report.beta <= 0.9 + 1e-12

    @pytest.mark.parametrize("cone", [orthant(NormedSpace(3, "infinity")), skewed_cone_2d(1.6)],
                             ids=["orthant3", "skewed"])
    def test_coefficients_keep_their_operator_fields(self, cone):
        # the benchmark's batch workload reads coeffs.a1.matrix .. a4.matrix
        coeffs = generate_certified_instance(4, 5, cone).coeffs
        p = cone.space.dim
        mats = [coeffs.a1.matrix, coeffs.a2.matrix, coeffs.a3.matrix, coeffs.a4.matrix]
        assert all(isinstance(m, np.ndarray) and m.dtype == float and m.shape == (p, p) for m in mats)
        assert np.array_equal(coeffs.at("p00", "p01"), mats)

    def test_deterministic(self, orthant2_inf):
        a = generate_certified_instance(5, 7, orthant2_inf)
        b = generate_certified_instance(5, 7, orthant2_inf)
        assert a.to_problem_dict() == b.to_problem_dict()

    def test_distinct_seeds_differ(self, orthant2_inf):
        a = generate_certified_instance(5, 7, orthant2_inf)
        b = generate_certified_instance(6, 7, orthant2_inf)
        assert a.to_problem_dict() != b.to_problem_dict()

    def test_respects_skewed_cone_budget(self):
        cone = skewed_cone_2d(1.6)
        inst = generate_certified_instance(3, 6, cone)
        report = check_hypotheses(inst.space, inst.mapping, inst.coeffs, k=1.6)
        assert report.passed
        assert report.alpha <= 0.9 / 1.6 + 1e-12

    def test_solver_matches_oracle(self, orthant3_inf):
        inst = generate_certified_instance(21, 9, orthant3_inf)
        fixed = brute_force_fixed_points(inst)
        report = check_hypotheses(inst.space, inst.mapping, inst.coeffs)
        result = picard_solve(
            inst.space, inst.mapping, None, report.beta, sorted(inst.space.labels)[0], 1e-10
        )
        assert [result.point] == fixed or inst.space.d_norm(result.point, fixed[0]) <= 1e-10

    def test_scalar_embedding_stepwise_consistency(self):
        # the cone-metric iteration over a scalar space reproduces the plain
        # scalar iteration point for point
        space = make_scalar_space()
        from conefix import AffineMapping

        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.25], 1e-9)
        plain = [0.25]
        for _ in range(result.iterations_used):
            plain.append(0.5 * plain[-1] + 1.0)
        for mine, ref in zip(result.trace.points, plain):
            assert mine[0] == ref
