"""Induced norms, invariance, resolvents."""

import numpy as np
import pytest

from conefix import (
    HypothesisFailureError,
    NormedSpace,
    induced_norm,
    invariance_check,
    orthant,
    reduce_scalar,
    resolvent_stack,
)

SPACES = [
    NormedSpace(3, "one"),
    NormedSpace(3, "two"),
    NormedSpace(3, "infinity"),
    NormedSpace(3, "weighted", (2.0, 0.5, 1.5)),
]


def sampling_norm_oracle(matrix, space, n=4000, seed=0):
    """Independent estimate of the induced norm: maximize over a dense sample."""
    rng = np.random.default_rng(seed)
    best = 0.0
    p = matrix.shape[0]
    candidates = list(rng.uniform(-1.0, 1.0, (n, p)))
    # sign patterns maximize the infinity norm, basis vectors the one norm
    for signs in np.ndindex(*(2,) * p):
        candidates.append(np.array([1.0 if s else -1.0 for s in signs]))
    for i in range(p):
        candidates.append(np.eye(p)[i])
        candidates.append(-np.eye(p)[i])
    for v in candidates:
        nv = space.norm(v)
        if nv == 0.0:
            continue
        best = max(best, space.norm(matrix @ v) / nv)
    return best


def resolvent_of_one(m3, m4, space):
    """``resolvent_stack`` on a stack of one ``A3``, ``A4``; its inverse and its error."""
    inv, error = resolvent_stack(np.asarray(m3, dtype=float)[None], np.asarray(m4, dtype=float)[None], space)
    return inv[0], error


def composite(a1, a2, a3, a4, space):
    """``(I - A3 - A4)^{-1} (A1 + A2 + A4)``, the operator whose norm is beta."""
    inv, error = resolvent_of_one(a3, a4, space)
    assert error is None
    return inv @ (a1 + a2 + a4)


class TestOperatorNorm:
    @pytest.mark.parametrize("kind", ["one", "two", "infinity"])
    def test_identity_norm_is_one(self, kind):
        space = NormedSpace(3, kind)
        assert induced_norm(np.eye(3), space) == pytest.approx(1.0, abs=1e-12)

    def test_diag_infinity_norm_with_oracle(self):
        space = NormedSpace(2, "infinity")
        m = np.diag([0.5, 0.2])
        assert induced_norm(m, space) == pytest.approx(0.5, abs=1e-12)
        assert sampling_norm_oracle(m, space) == pytest.approx(0.5, abs=1e-9)

    def test_nilpotent_one_norm_with_oracle(self):
        space = NormedSpace(2, "one")
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert induced_norm(m, space) == pytest.approx(1.0, abs=1e-12)
        assert sampling_norm_oracle(m, space) == pytest.approx(1.0, abs=1e-9)

    def test_two_norm_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        matrices = [rng.normal(size=(3, 3)) for _ in range(20)] + [
            # the all-ones vector is a singular vector for the smaller singular value
            np.array([[1.5, -0.5], [-0.5, 1.5]]),
            np.array([[0.75, -0.25], [-0.25, 0.75]]),
        ]
        for m in matrices:
            expected = float(np.linalg.svd(m, compute_uv=False)[0])
            space = NormedSpace(m.shape[0], "two")
            assert induced_norm(m, space) == pytest.approx(expected, rel=1e-8)

    def test_two_norm_adversarial_start(self):
        # all-ones start is orthogonal to the dominant singular direction
        space = NormedSpace(2, "two")
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert induced_norm(m, space) == pytest.approx(2.0, rel=1e-9)

    def test_weighted_norm_with_oracle(self):
        space = NormedSpace(2, "weighted", (2.0, 0.5))
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(2, 2))
            oracle = sampling_norm_oracle(m, space, n=8000)
            exact = induced_norm(m, space)
            assert exact >= oracle - 1e-9
            assert exact == pytest.approx(oracle, rel=2e-3)

    def test_norm_bounds_application(self, rng):
        for kind in ("one", "two", "infinity"):
            space = NormedSpace(3, kind)
            for _ in range(20):
                m = rng.normal(size=(3, 3))
                v = rng.normal(size=3)
                bound = induced_norm(m, space) * space.norm(v)
                assert space.norm(m @ v) <= bound * (1 + 1e-9)

    def test_submultiplicative(self, rng):
        space = NormedSpace(3, "infinity")
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            assert induced_norm(a @ b, space) <= induced_norm(a, space) * induced_norm(b, space) * (1 + 1e-9)


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.kind)
class TestStacks:
    """A stack ``(..., p, p)`` gives what each of its matrices gives alone, bit for bit."""

    def test_induced_norm(self, space):
        stack = np.random.default_rng(5).normal(size=(6, 4, 3, 3))
        norms = induced_norm(stack, space)
        assert norms.shape == (6, 4)
        assert norms.tolist() == [[induced_norm(m, space) for m in row] for row in stack]

    def test_invariance_check(self, space):
        cone = orthant(space)
        stack = np.random.default_rng(6).uniform(-0.05, 1.0, (6, 4, 3, 3))
        flags = invariance_check(stack, cone)
        assert flags.shape == (6, 4)
        expected = [[invariance_check(m, cone) for m in row] for row in stack]
        assert flags.tolist() == expected
        assert {True, False} <= set(flags.ravel().tolist())

    def test_resolvent(self, space):
        rng = np.random.default_rng(7)
        m3 = rng.uniform(-0.3, 0.3, (8, 3, 3))
        m4 = rng.uniform(-0.2, 0.2, (8, 3, 3))
        m3[2], m4[2] = np.eye(3), 0.0  # I - A3 - A4 is singular
        m3[5] *= 4.0
        inv, error = resolvent_stack(m3, m4, space)
        errors = []
        for q in range(8):
            expected, exc = resolvent_of_one(m3[q], m4[q], space)
            if exc is not None:
                errors.append(exc)
                assert np.isnan(inv[q]).all() and np.isnan(expected).all()
            else:
                assert np.array_equal(inv[q], expected)
        assert type(error) is type(errors[0]) and str(error) == str(errors[0])
        assert "cannot certify the resolvent" in str(error)

    def test_resolvent_matches_numpy_inverse(self, space):
        # an independent reference: numpy's own inverse of I - A3 - A4, on
        # stacks scaled so that every entry is certified
        rng = np.random.default_rng(17)
        m3 = rng.uniform(-1.0, 1.0, (40, 3, 3))
        m4 = rng.uniform(-1.0, 1.0, (40, 3, 3))
        sums = induced_norm(m3, space) + induced_norm(m4, space)
        scale = rng.uniform(0.05, 0.95, 40) / sums
        m3 *= scale[:, None, None]
        m4 *= scale[:, None, None]
        inv, error = resolvent_stack(m3, m4, space)
        assert error is None
        expected = np.linalg.inv(np.eye(3) - m3 - m4)
        diff = induced_norm(inv - expected, space)
        assert np.all(diff <= 1e-12 * induced_norm(expected, space))


class TestInvariance:
    def test_nonnegative_preserves_orthant(self, orthant2_inf, rng):
        for _ in range(10):
            assert invariance_check(rng.uniform(0, 1, (2, 2)), orthant2_inf)

    def test_sign_flip_escapes(self, orthant2_inf):
        assert not invariance_check(np.array([[1.0, 0.0], [0.0, -1.0]]), orthant2_inf)

    def test_rotation_escapes(self, orthant2_inf):
        th = np.radians(10.0)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        # e2 rotates to (-sin, cos): a facet inner product goes negative
        assert (rot @ np.array([0.0, 1.0]))[0] < 0
        assert not invariance_check(rot, orthant2_inf)

    def test_closure_under_sum_and_product(self, orthant2_inf, rng):
        for _ in range(10):
            a = rng.uniform(0, 1, (2, 2))
            b = rng.uniform(0, 1, (2, 2))
            assert invariance_check(a, orthant2_inf) and invariance_check(b, orthant2_inf)
            assert invariance_check(a + b, orthant2_inf)
            assert invariance_check(a @ b, orthant2_inf)


class TestResolvent:
    def test_zero_operators_give_identity(self):
        space = NormedSpace(2, "infinity")
        inv, error = resolvent_of_one(np.zeros((2, 2)), np.zeros((2, 2)), space)
        assert error is None
        assert np.allclose(inv, np.eye(2), atol=1e-12)

    def test_scalar_case(self):
        space = NormedSpace(1, "two")
        inv, error = resolvent_of_one([[0.1]], [[0.1]], space)
        assert error is None
        assert inv[0, 0] == pytest.approx(1.25, abs=1e-12)

    def test_diagonal_case(self):
        space = NormedSpace(2, "infinity")
        inv, error = resolvent_of_one(np.diag([0.2, 0.0]), np.zeros((2, 2)), space)
        assert error is None
        assert np.allclose(inv, np.diag([1.25, 1.0]), atol=1e-12)

    def test_precondition_violation_names_condition(self):
        space = NormedSpace(2, "infinity")
        inv, error = resolvent_of_one(0.6 * np.eye(2), 0.5 * np.eye(2), space)
        assert isinstance(error, HypothesisFailureError)
        assert error.condition == "i1"
        assert str(error) == "cannot certify the resolvent: norm(A3) + norm(A4) = 1.1000000000000001 >= 1"
        assert np.isnan(inv).all()

    def test_matches_partial_sums_oracle(self, rng):
        space = NormedSpace(3, "infinity")
        for _ in range(10):
            m3 = rng.uniform(-0.2, 0.2, (3, 3))
            m4 = rng.uniform(-0.2, 0.2, (3, 3))
            if induced_norm(m3, space) + induced_norm(m4, space) >= 0.95:
                continue
            inv, error = resolvent_of_one(m3, m4, space)
            assert error is None
            total = np.eye(3)
            term = np.eye(3)
            for _ in range(2000):
                term = term @ (m3 + m4)
                total += term
            assert induced_norm(inv - total, space) <= 1e-8

    @pytest.mark.parametrize("total", [0.9999, 0.999999])
    def test_norm_sum_near_one_is_accepted(self, total):
        # A3 + A4 = total * S with S row-stochastic, so norm(A3) + norm(A4)
        # equals total and the inverse has norm 1 / (1 - total)
        space = NormedSpace(3, "infinity")
        s = np.random.default_rng(11).uniform(0.1, 1.0, (3, 3))
        s /= s.sum(axis=1, keepdims=True)
        m3, m4 = 0.6 * total * s, 0.4 * total * s
        inv, error = resolvent_of_one(m3, m4, space)
        assert error is None
        expected = np.linalg.inv(np.eye(3) - m3 - m4)
        assert induced_norm(inv - expected, space) <= 1e-8 * induced_norm(expected, space)
        assert induced_norm(inv, space) == pytest.approx(1.0 / (1.0 - total), rel=1e-6)


class TestSOperator:
    def test_corollary_quotient(self):
        coeffs = reduce_scalar(0.2, 0.1, 0.1, 0.1)
        s = composite(*coeffs.at("a", "b"), coeffs.a1.space)
        assert s[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_leading_coefficient_only(self):
        space = NormedSpace(2, "infinity")
        q = 0.7
        zero = np.zeros((2, 2))
        s = composite(q * np.eye(2), zero, zero, zero, space)
        assert np.allclose(s, q * np.eye(2), atol=1e-12)

    def test_all_zero(self):
        space = NormedSpace(2, "infinity")
        zero = np.zeros((2, 2))
        s = composite(zero, zero, zero, zero, space)
        assert np.allclose(s, 0.0, atol=1e-12)

    def test_invariance_follows_from_conditions(self, orthant2_inf, rng):
        # nonnegative quadruples satisfy the three invariance conditions,
        # and then the composite operator preserves the cone too
        space = orthant2_inf.space
        for _ in range(15):
            a1 = rng.uniform(-0.15, 0.15, (2, 2))
            a2 = rng.uniform(0.0, 0.15, (2, 2))
            if not invariance_check(a1 + a2, orthant2_inf):
                continue  # only the summed condition is required
            a3 = rng.uniform(0.0, 0.15, (2, 2))
            a4 = rng.uniform(0.0, 0.15, (2, 2))
            if induced_norm(a3, space) + induced_norm(a4, space) >= 0.9:
                continue
            inv, error = resolvent_of_one(a3, a4, space)
            assert error is None
            assert invariance_check(inv, orthant2_inf)
            assert invariance_check(composite(a1, a2, a3, a4, space), orthant2_inf)
