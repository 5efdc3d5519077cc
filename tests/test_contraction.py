"""Metric axioms, contraction residuals, and the hypothesis checker."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix import (
    AffineMapping,
    CallableCoefficients,
    ConeMetricSpace,
    ConstantCoefficients,
    ContractViolationError,
    FinitePoints,
    LinearOperator,
    NormedSpace,
    PerPairCoefficients,
    TableMapping,
    TableMetric,
    check_hypotheses,
    check_metric_axioms,
    cone_contains,
    contraction_residual,
    induced_norm,
    make_finite_lifted_space,
    make_lifted_space,
    make_scalar_space,
    orthant,
    reduce_scalar,
)


def two_point_space(cone, w=(1.0, 1.0)):
    return make_finite_lifted_space(
        ("a", "b"), {"a": [0.0], "b": [1.0]}, cone, np.asarray(w, dtype=float)
    )


class TestMetricAxioms:
    def test_lifted_weight_evaluation(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 2.0])
        assert np.allclose(space.d([0.0], [1.0]), [1.0, 2.0])

    def test_triangle_slack_formula(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 2.0])
        x, y, z = [0.0], [3.0], [1.0]
        slack = space.d(x, z) + space.d(z, y) - space.d(x, y)
        rho_slack = abs(x[0] - z[0]) + abs(z[0] - y[0]) - abs(x[0] - y[0])
        assert np.allclose(slack, rho_slack * np.array([1.0, 2.0]))

    def test_sampled_suite_passes(self, orthant2_two):
        space = make_lifted_space(3, orthant2_two, [0.5, 1.5])
        report = check_metric_axioms(space, n_samples=100, seed=2)
        assert report.passed
        assert not report.exhaustive

    def test_finite_suite_exhaustive(self, orthant2_inf):
        space = two_point_space(orthant2_inf)
        report = check_metric_axioms(space)
        assert report.passed and report.exhaustive
        assert report.pairs_checked == 4 and report.triples_checked == 8

    def test_asymmetric_table_fails_axiom_b(self, orthant2_inf):
        metric = TableMetric(
            {("a", "b"): np.array([1.0, 1.0]), ("b", "a"): np.array([2.0, 1.0])}
        )
        space = ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b")), metric)
        report = check_metric_axioms(space)
        assert not report.axiom_b_pass
        assert any("axiom (b)" in m for m in report.messages)

    def test_table_value_outside_cone_fails_axiom_a(self, orthant2_inf):
        metric = TableMetric({("a", "b"): np.array([1.0, -0.5])})
        space = ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b")), metric)
        report = check_metric_axioms(space)
        assert not report.axiom_a_pass

    def test_nonzero_diagonal_fails_axiom_a(self, orthant2_inf):
        metric = TableMetric(
            {("a", "a"): np.array([1.0, 0.0]), ("a", "b"): np.array([1.0, 1.0])}
        )
        space = ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b")), metric)
        report = check_metric_axioms(space)
        assert not report.axiom_a_pass

    def test_discrete_base(self, orthant2_inf):
        space = make_finite_lifted_space(
            ("a", "b", "c"), None, orthant2_inf, [1.0, 1.0], base="discrete"
        )
        assert check_metric_axioms(space).passed
        assert np.allclose(space.d("a", "b"), [1.0, 1.0])
        assert np.allclose(space.d("a", "a"), [0.0, 0.0])


class TestContractionResidual:
    def test_fixed_point_pair_vanishes(self, orthant2_inf):
        space = two_point_space(orthant2_inf)
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = _scalar_quad(orthant2_inf.space, 0.3, 0.1, 0.1, 0.05)
        r = contraction_residual(space, mapping, coeffs, "a", "a")
        assert np.allclose(r, 0.0, atol=1e-15)

    def test_banach_case_sampled(self, orthant2_two):
        # leading coefficient q dominates an affine map of factor L <= q, so
        # the residual is (q rho(x,y) - rho(Tx,Ty)) * w, a cone member
        q = 0.6
        space = make_lifted_space(1, orthant2_two, [1.0, 2.0])
        mapping = AffineMapping([[0.5]], [1.0])
        coeffs = _scalar_quad(orthant2_two.space, q, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-5, 5, 2)
            r = contraction_residual(space, mapping, coeffs, [x], [y])
            rho = abs(x - y)
            rho_t = abs(0.5 * x - 0.5 * y)
            assert np.allclose(r, (q * rho - rho_t) * np.array([1.0, 2.0]), atol=1e-12)
            assert cone_contains(orthant2_two, r, 1e-12)

    def test_table_mapping_needs_finite_points(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 2.0])
        with pytest.raises(ContractViolationError, match="finite point sets only"):
            TableMapping({"a": "a"}).apply(space, [0.0])

    def test_handcrafted_violation(self, orthant2_inf):
        # swap map with a leading coefficient too small to dominate
        space = two_point_space(orthant2_inf)
        mapping = TableMapping({"a": "b", "b": "a"})
        coeffs = _scalar_quad(orthant2_inf.space, 0.5, 0.0, 0.0, 0.0)
        r = contraction_residual(space, mapping, coeffs, "a", "b")
        assert np.allclose(r, [-0.5, -0.5])
        assert float(np.min(orthant2_inf.facets @ r)) < 0
        assert not cone_contains(orthant2_inf, r)


def _scalar_quad(space, a1, a2, a3, a4):
    return ConstantCoefficients(
        LinearOperator(a1 * np.eye(space.dim), space),
        LinearOperator(a2 * np.eye(space.dim), space),
        LinearOperator(a3 * np.eye(space.dim), space),
        LinearOperator(a4 * np.eye(space.dim), space),
    )


class TestCheckHypotheses:
    def test_scalar_family_witnessed_values(self):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = reduce_scalar(0.2, 0.1, 0.1, 0.1)
        report = check_hypotheses(space, mapping, coeffs, k=1.0)
        assert report.passed
        assert report.alpha == pytest.approx(0.6, abs=1e-12)
        assert report.beta == pytest.approx(0.5, abs=1e-12)
        assert report.exhaustive and report.pairs_checked == 4

    def test_negative_a4_fails_i4_with_witness(self, orthant2_inf):
        space = two_point_space(orthant2_inf)
        mapping = TableMapping({"a": "a", "b": "a"})
        zero = LinearOperator(np.zeros((2, 2)), orthant2_inf.space)
        a4 = LinearOperator(np.array([[0.0, 0.0], [-0.1, 0.0]]), orthant2_inf.space)
        coeffs = ConstantCoefficients(
            LinearOperator(0.3 * np.eye(2), orthant2_inf.space), zero, zero, a4
        )
        report = check_hypotheses(space, mapping, coeffs)
        assert not report.i4_pass
        assert any(w.condition == "i4" for w in report.witnesses)

    def test_sum_at_point_nine_fails_i1_for_k_two(self):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = reduce_scalar(0.3, 0.2, 0.2, 0.1)
        report = check_hypotheses(space, mapping, coeffs, k=2.0)
        assert report.alpha == pytest.approx(0.9, abs=1e-12)
        assert not report.i1_pass
        assert report.i2_pass  # beta = 0.6 / 0.7 < 1
        assert any(w.condition == "i1" for w in report.witnesses)

    def test_k_below_one_rejected(self):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        with pytest.raises(ContractViolationError):
            check_hypotheses(space, mapping, reduce_scalar(0.1, 0, 0, 0), k=0.5)

    def test_per_pair_coefficients(self, orthant2_inf):
        space = two_point_space(orthant2_inf)
        mapping = TableMapping({"a": "a", "b": "a"})
        sp = orthant2_inf.space
        mild = _scalar_quad(sp, 0.3, 0.0, 0.0, 0.0)
        strong = _scalar_quad(sp, 0.5, 0.1, 0.0, 0.0)
        table = {}
        for x in ("a", "b"):
            for y in ("a", "b"):
                table[(x, y)] = (strong if (x, y) == ("b", "a") else mild).at(x, y)
        report = check_hypotheses(space, mapping, PerPairCoefficients(table))
        assert report.passed
        assert report.alpha == pytest.approx(0.6, abs=1e-12)
        assert report.alpha_pair == ("b", "a")

    @pytest.mark.parametrize(
        "table,message",
        [
            ({}, "table is empty"),
            ({("a", "a"): np.zeros((3, 2, 2))}, r"must be \(4, p, p\) arrays, got shape \(3, 2, 2\)"),
            ({("a", "a"): np.zeros((4, 2, 3))}, r"got shape \(4, 2, 3\)"),
            ({("a", "a"): np.zeros((4, 2, 2)), ("a", "b"): np.full((4, 2, 2), np.inf)}, "non-finite"),
        ],
        ids=["empty", "three", "not-square", "inf"],
    )
    def test_per_pair_table_refused(self, table, message):
        with pytest.raises(ContractViolationError, match=message):
            PerPairCoefficients(table)

    def test_callable_coefficients(self, orthant2_inf):
        from conefix import CallableCoefficients

        space = two_point_space(orthant2_inf)
        mapping = TableMapping({"a": "a", "b": "a"})
        mild = _scalar_quad(orthant2_inf.space, 0.3, 0.0, 0.0, 0.0)
        strong = _scalar_quad(orthant2_inf.space, 0.5, 0.0, 0.0, 0.0)
        coeffs = CallableCoefficients(
            lambda x, y: (strong if x == "b" else mild).at(x, y)
        )
        report = check_hypotheses(space, mapping, coeffs)
        assert report.passed
        assert report.alpha == pytest.approx(0.5, abs=1e-12)
        assert report.alpha_pair[0] == "b"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_callable_non_finite_coefficients_refused(self, value):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = CallableCoefficients(lambda x, y: [[[value if x == "b" else 0.1]], [[0.0]], [[0.0]], [[0.0]]])
        with pytest.raises(ContractViolationError, match="coefficients have non-finite entries"):
            check_hypotheses(space, mapping, coeffs)

    @pytest.mark.parametrize("odd", ["a", "b"])
    def test_callable_mixed_shapes_refused(self, odd):
        # a (4, 2, 2) quadruple at one pair among (4, 1, 1) ones: the first
        # pair whose shape differs from the first pair's is named
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = CallableCoefficients(
            lambda x, y: np.zeros((4, 2, 2)) if x == odd else np.full((4, 1, 1), 0.1)
        )
        shapes = [(4, 2, 2), (4, 1, 1)] if odd == "a" else [(4, 1, 1), (4, 2, 2)]
        message = f"coefficients at (b, a) have shape {shapes[1]}, unlike {shapes[0]} at the first pair"
        with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
            check_hypotheses(space, mapping, coeffs)
        # a consistent shape that does not fit the cone keeps its own message
        coeffs = CallableCoefficients(lambda x, y: np.zeros((4, 2, 2)))
        with pytest.raises(ContractViolationError, match="operator and cone live in different dimensions"):
            check_hypotheses(space, mapping, coeffs)

    def test_declaration_mismatch_flagged(self):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = reduce_scalar(0.2, 0.1, 0.1, 0.1)
        report = check_hypotheses(space, mapping, coeffs, k=1.0, declared_alpha=0.55)
        assert report.declaration_mismatches
        clean = check_hypotheses(space, mapping, coeffs, k=1.0, declared_alpha=0.6, declared_beta=0.5)
        assert not clean.declaration_mismatches

    def test_sampling_monotonicity(self):
        # a drifting map with a tiny leading coefficient: contraction fails at
        # every distinct sampled pair, and more pairs never un-fail a flag
        space = make_scalar_space()
        mapping = AffineMapping([[1.0]], [1.0])
        coeffs = reduce_scalar(0.4, 0.0, 0.0, 0.0)
        small = check_hypotheses(space, mapping, coeffs, k=1.0, pair_source=("sampled", 20, 5))
        large = check_hypotheses(space, mapping, coeffs, k=1.0, pair_source=("sampled", 70, 5))
        assert not small.contraction_pass and not large.contraction_pass
        assert set(small.failing_conditions()) <= set(large.failing_conditions())

    def test_exhaustive_requires_finite(self):
        space = make_scalar_space()
        mapping = AffineMapping([[0.5]], [1.0])
        with pytest.raises(ContractViolationError):
            check_hypotheses(space, mapping, reduce_scalar(0.5, 0, 0, 0), pair_source="all")


class TestReduceScalar:
    def test_norms_are_exact(self):
        coeffs = reduce_scalar(0.5, 0.0, 0.0, 0.0)
        norms = induced_norm(coeffs.at("a", "b"), coeffs.a1.space)
        assert norms.tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_negative_rejected(self):
        with pytest.raises(ContractViolationError):
            reduce_scalar(-0.1, 0.0, 0.0, 0.0)

    def test_zero_family(self):
        space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
        mapping = TableMapping({"a": "a", "b": "a"})
        report = check_hypotheses(space, mapping, reduce_scalar(0, 0, 0, 0), k=1.0)
        assert report.beta == 0.0 and report.alpha == 0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    a1=st.floats(0.0, 1.0),
    a2=st.floats(0.0, 1.0),
    a3=st.floats(0.0, 0.5),
    a4=st.floats(0.0, 0.45),
)
def test_scalar_reduction_fidelity(a1, a2, a3, a4):
    space = make_scalar_space(labels=("a", "b"), positions={"a": [0.0], "b": [1.0]})
    mapping = TableMapping({"a": "a", "b": "a"})
    report = check_hypotheses(space, mapping, reduce_scalar(a1, a2, a3, a4), k=1.0)
    expected_beta = (a1 + a2 + a4) / (1.0 - a3 - a4)
    assert abs(report.beta - expected_beta) <= 1e-12 * max(1.0, expected_beta)
    assert abs(report.alpha - (a1 + a2 + a3 + 2 * a4)) <= 1e-12


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    w1=st.floats(0.1, 3.0),
    w2=st.floats(0.0, 3.0),
    scale=st.floats(0.1, 4.0),
)
def test_lifted_metric_axioms_property(w1, w2, scale):
    cone = orthant(NormedSpace(2, "two"))
    space = make_lifted_space(2, cone, [w1, w2])
    rng = np.random.default_rng(17)
    for _ in range(10):
        x, y, z = (rng.uniform(-scale, scale, 2) for _ in range(3))
        assert cone_contains(cone, space.d(x, y), 1e-9)
        assert np.allclose(space.d(x, y), space.d(y, x))
        assert cone_contains(cone, space.d(x, z) + space.d(z, y) - space.d(x, y), 1e-9)
