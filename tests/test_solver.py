"""Iteration counts, the solver, bound audits, uniqueness, and the probe."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix import (
    AffineMapping,
    ContractViolationError,
    HypothesisFailureError,
    IterationTrace,
    NonConvergenceError,
    NormedSpace,
    NumericError,
    ProbeReport,
    TableMapping,
    a_priori_iterations,
    make_finite_lifted_space,
    make_lifted_space,
    make_scalar_space,
    orthant,
    picard_solve,
    probe_open_problem,
    tail_bound,
    uniqueness_probe,
    verify_proof_bounds,
)


class TestAPrioriIterations:
    def test_reference_count(self):
        # bound at 20 is ~1.907e-6 > 1e-6; at 21 it is ~9.537e-7 <= 1e-6
        assert tail_bound(1.0, 0.5, 1.0, 20) > 1e-6
        assert tail_bound(1.0, 0.5, 1.0, 21) <= 1e-6
        assert a_priori_iterations(1.0, 0.5, 1.0, 1e-6) == 21

    def test_zero_start_step(self):
        assert a_priori_iterations(1.0, 0.5, 0.0, 1e-6) == 0

    def test_beta_zero(self):
        assert a_priori_iterations(1.0, 0.0, 1.0, 1e-6) == 1
        assert a_priori_iterations(1.0, 0.0, 1.0, 10.0) == 0  # bound(0) = 1 <= 10

    def test_beta_one_rejected(self):
        with pytest.raises(HypothesisFailureError):
            a_priori_iterations(1.0, 1.0, 1.0, 1e-6)

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractViolationError):
            a_priori_iterations(1.0, 0.5, 1.0, 0.0)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        k=st.floats(1.0, 3.0),
        beta=st.floats(0.0, 0.95),
        d01=st.floats(0.0, 10.0),
        eps=st.floats(1e-9, 1.0),
    )
    def test_result_is_minimal(self, k, beta, d01, eps):
        n = a_priori_iterations(k, beta, d01, eps)
        assert tail_bound(k, beta, d01, n) <= eps
        if n > 0:
            assert tail_bound(k, beta, d01, n - 1) > eps

    @pytest.mark.parametrize("d01", [math.inf, math.nan])
    def test_non_finite_start_step_rejected(self, d01):
        with pytest.raises(NumericError, match="not finite"):
            a_priori_iterations(1.0, 0.5, d01, 1e-8)

    @pytest.mark.parametrize(
        "k,beta,eps",
        [
            (math.nan, 0.5, 1e-8),
            (math.inf, 0.5, 1e-8),
            (1.0, math.nan, 1e-8),
            (1.0, -math.inf, 1e-8),
            (1.0, 0.5, math.nan),
            (1.0, 0.5, math.inf),
        ],
        ids=["k-nan", "k-inf", "beta-nan", "beta-minus-inf", "eps-nan", "eps-inf"],
    )
    def test_non_finite_parameter_rejected(self, k, beta, eps):
        with pytest.raises(ContractViolationError, match="must be finite"):
            a_priori_iterations(k, beta, 1.0, eps)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        k=st.floats(1.0, 100.0),
        beta=st.floats(0.001, 0.99),
        d01=st.floats(1e-300, 1e308),
        eps=st.floats(1e-300, 1.0),
    )
    def test_extreme_magnitudes_are_minimal(self, k, beta, d01, eps):
        # k^2 d01 may overflow and eps (1 - beta) / (k^2 d01) underflow to zero
        n = a_priori_iterations(k, beta, d01, eps)
        assert tail_bound(k, beta, d01, n) <= eps
        if n > 0:
            assert not tail_bound(k, beta, d01, n - 1) <= eps

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        beta=st.floats(0.05, 0.9),
        eps=st.floats(1e-8, 1e-2),
    )
    def test_monotonicity(self, beta, eps):
        base = a_priori_iterations(1.0, beta, 1.0, eps)
        assert a_priori_iterations(1.0, beta, 1.0, eps * 2) <= base
        assert a_priori_iterations(1.0, min(0.95, beta + 0.05), 1.0, eps) >= base
        assert a_priori_iterations(1.5, beta, 1.0, eps) >= base
        assert a_priori_iterations(1.0, beta, 2.0, eps) >= base


class TestPicardSolve:
    def test_scalar_affine_contraction(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-8)
        assert abs(result.point[0] - 2.0) <= 1e-8
        assert result.residual_norm <= 1e-8
        assert result.certificate.bound_at_n <= 1e-8

    def test_finite_table_early_exact_stop(self, orthant2_inf):
        space = make_finite_lifted_space(
            ("a", "b", "c"), {"a": [0.0], "b": [1.0], "c": [2.0]}, orthant2_inf, [1.0, 1.0]
        )
        mapping = TableMapping({"a": "b", "b": "b", "c": "b"})
        result = picard_solve(space, mapping, 1.0, 0.5, "a", 1e-9)
        assert result.point == "b"
        assert result.residual_norm == 0.0
        assert result.iterations_used <= 2

    def test_rotation_scaling_against_linear_solve(self, orthant2_two):
        space = make_lifted_space(2, orthant2_two, [1.0, 0.5])
        th = 0.7
        b = 0.6 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        c = np.array([2.0, -1.0])
        mapping = AffineMapping(b, c)
        result = picard_solve(space, mapping, 1.0, 0.6, [4.0, 4.0], 1e-9)
        oracle = np.linalg.solve(np.eye(2) - b, c)
        assert np.linalg.norm(np.asarray(result.point) - oracle) <= 1e-8

    def test_non_convergence_carries_trace(self):
        space = make_scalar_space()
        drift = AffineMapping([[1.0]], [1.0])  # no fixed point
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(space, drift, 1.0, 0.5, [0.0], 1e-6)
        assert err.value.trace is not None
        assert err.value.residual_norm > 1e-6

    def test_geometric_decay_of_steps(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-8)
        d01 = result.trace.step_norms[0]
        for n, step in enumerate(result.trace.step_norms):
            assert step <= 1.0 * 0.5**n * d01 * (1 + 1e-9)

    def test_idempotence_at_fixed_point(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-8)
        moved = mapping.apply(space, result.point)
        assert space.d_norm(result.point, moved) <= 1e-8

    def test_start_at_fixed_point(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [2.0], 1e-8)
        assert result.iterations_used == 0
        assert result.certificate.n_planned == 0


class TestVerifyProofBounds:
    def test_banach_dyadic_zero_violations(self, orthant2_two):
        # factor-0.5 iteration over dyadic values: steps halve exactly
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-8)
        audit = verify_proof_bounds(space, result.trace, 1.0, 0.5, max_gap=10)
        assert audit.passed
        assert audit.step_checks == len(result.trace.step_norms)
        assert audit.gap_checks > 0

    def test_drifting_map_violates_declared_bounds(self):
        space = make_scalar_space()
        drift = AffineMapping([[1.0]], [1.0])
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(space, drift, 1.0, 0.5, [0.0], 1e-6)
        audit = verify_proof_bounds(space, err.value.trace, 1.0, 0.5, max_gap=5)
        assert not audit.passed
        assert audit.step_violations > 0

    def test_single_point_trace_vacuous(self):
        space = make_scalar_space()
        audit = verify_proof_bounds(space, IterationTrace([[0.0]], []), 1.0, 0.5)
        assert audit.passed
        assert audit.step_checks == 0 and audit.gap_checks == 0

    def test_negative_gap_cap_is_refused(self):
        space = make_scalar_space()
        trace = IterationTrace([[0.0], [1.0], [1.5]], [1.0, 0.5])
        with pytest.raises(ContractViolationError, match="max_gap >= 0"):
            verify_proof_bounds(space, trace, 1.0, 0.5, max_gap=-1)

    def test_gap_cap_respected(self, orthant2_two):
        space = make_lifted_space(1, orthant2_two, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-6)
        audit3 = verify_proof_bounds(space, result.trace, 1.0, 0.5, max_gap=3)
        audit10 = verify_proof_bounds(space, result.trace, 1.0, 0.5, max_gap=10)
        assert audit3.gap_checks < audit10.gap_checks


class TestUniquenessProbe:
    def test_scalar_contraction_agrees(self):
        space = make_scalar_space()
        mapping = AffineMapping([[0.5]], [1.0])
        assert uniqueness_probe(space, mapping, 1.0, 0.5, [[-10.0], [0.0], [50.0]], 1e-8)

    def test_identity_on_two_points_fails(self, orthant2_inf):
        space = make_finite_lifted_space(
            ("a", "b"), {"a": [0.0], "b": [1.0]}, orthant2_inf, [1.0, 1.0]
        )
        identity = TableMapping({"a": "a", "b": "b"})
        assert not uniqueness_probe(space, identity, 1.0, 0.5, ["a", "b"], 1e-8)

    def test_single_fixed_point_finite(self, orthant2_inf):
        space = make_finite_lifted_space(
            ("a", "b"), {"a": [0.0], "b": [1.0]}, orthant2_inf, [1.0, 1.0]
        )
        mapping = TableMapping({"a": "a", "b": "a"})
        assert uniqueness_probe(space, mapping, 1.0, 0.5, ["a", "b"], 1e-9)

    def test_needs_two_seeds(self):
        space = make_scalar_space()
        mapping = AffineMapping([[0.5]], [1.0])
        with pytest.raises(ContractViolationError):
            uniqueness_probe(space, mapping, 1.0, 0.5, [[0.0]], 1e-8)


class TestProbeOpenProblem:
    def test_empty_range_empty_report(self):
        report = probe_open_problem(1, 2.0, 0.9, 0.6, 10)
        assert report.rows == []

    def test_zero_instances(self):
        report = probe_open_problem(1, 2.0, 0.6, 0.8, 0)
        assert report.rows == []

    def test_requires_k_above_one(self):
        with pytest.raises(ContractViolationError):
            probe_open_problem(1, 1.0, 0.5, 0.9, 2)

    def test_range_outside_regime_rejected(self):
        with pytest.raises(ContractViolationError):
            probe_open_problem(1, 2.0, 0.2, 0.9, 2)

    @pytest.mark.parametrize("alpha_min,alpha_max,n", [(0.2, 0.9, 0), (0.3, 0.2, 3), (0.6, 1.0, 0)])
    def test_range_checked_before_empty_shortcut(self, alpha_min, alpha_max, n):
        with pytest.raises(ContractViolationError, match="must lie inside"):
            probe_open_problem(1, 2.0, alpha_min, alpha_max, n)

    def test_instance_in_range_converges(self):
        # sums at or above 1/k with the composite norm below 1 still converge
        report = probe_open_problem(7, 2.0, 0.55, 0.65, 4)
        assert len(report.rows) == 4
        for row in report.rows:
            assert 0.5 <= row.witnessed_alpha < 1.0
            assert row.witnessed_beta < 1.0
            assert row.converged
            assert row.multiplicity == 1
            assert row.experimental

    def test_deterministic_and_roundtrips(self):
        a = probe_open_problem(3, 2.0, 0.5, 0.9, 6)
        b = probe_open_problem(3, 2.0, 0.5, 0.9, 6)
        assert a.equals(b)
        restored = ProbeReport.from_dict(json.loads(json.dumps(a.to_dict())))
        assert restored.equals(a)
        assert restored.label == "EXPERIMENTAL"
