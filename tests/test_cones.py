"""Cone membership, ordering, axiom validation, and normal-constant audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix import (
    ContractViolationError,
    NormedSpace,
    PolyhedralCone,
    UnsupportedError,
    check_declared_normal_constant,
    cone_contains,
    leq,
    normal_constant_lower_bound,
    orthant,
    skewed_cone_2d,
    strictly_interior,
    validate_cone,
)


class TestMembership:
    def test_orthant_contains_positive(self, orthant2_two):
        assert cone_contains(orthant2_two, [1.0, 2.0], tol=0.0)

    def test_orthant_rejects_negative_coordinate(self, orthant2_two):
        assert not cone_contains(orthant2_two, [1.0, -0.1], tol=0.0)

    def test_origin_is_member(self, orthant2_two):
        assert cone_contains(orthant2_two, [0.0, 0.0], tol=0.0)

    def test_dimension_mismatch_raises(self, orthant2_two):
        with pytest.raises(ContractViolationError):
            cone_contains(orthant2_two, [1.0, 2.0, 3.0])


class TestOrder:
    def test_leq_basic(self, orthant2_two):
        assert leq(orthant2_two, [0.0, 0.0], [1.0, 1.0])

    def test_incomparable_pair(self, orthant2_two):
        assert not leq(orthant2_two, [1.0, 0.0], [0.0, 1.0])

    def test_reflexive(self, orthant2_two):
        assert leq(orthant2_two, [0.3, 0.7], [0.3, 0.7])

    def test_transitive_on_sampled_triples(self, orthant2_two, rng):
        for _ in range(50):
            x = rng.uniform(0, 1, 2)
            y = x + rng.uniform(0, 1, 2)
            z = y + rng.uniform(0, 1, 2)
            assert leq(orthant2_two, x, y) and leq(orthant2_two, y, z)
            assert leq(orthant2_two, x, z)

    def test_antisymmetric_up_to_tol(self, orthant2_two, rng):
        for _ in range(50):
            v = rng.uniform(-1, 1, 2)
            if cone_contains(orthant2_two, v, 1e-12) and cone_contains(orthant2_two, -v, 1e-12):
                assert np.linalg.norm(v) <= 1e-12


class TestInterior:
    def test_interior_point(self, orthant2_two):
        # min facet product is 1; margin * two-norm of (1,1) is ~0.1414
        margin = 0.1
        assert margin * np.sqrt(2.0) < 1.0
        assert strictly_interior(orthant2_two, [1.0, 1.0], margin)

    def test_boundary_point_never_interior(self, orthant2_two):
        for margin in (1e-9, 0.1, 0.5):
            assert not strictly_interior(orthant2_two, [1.0, 0.0], margin)

    def test_origin_never_interior(self, orthant2_two):
        assert not strictly_interior(orthant2_two, [0.0, 0.0], 0.1)

    def test_interior_implies_membership(self, orthant2_two, rng):
        for _ in range(50):
            v = rng.uniform(-1, 2, 2)
            if strictly_interior(orthant2_two, v, 0.05):
                assert cone_contains(orthant2_two, v)

    def test_non_solid_cone_unsupported(self):
        space = NormedSpace(2, "two")
        # a single ray in the plane has empty interior
        ray = PolyhedralCone(space, [[1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert not ray.solid
        with pytest.raises(UnsupportedError):
            strictly_interior(ray, [1.0, 0.0], 0.1)


def _ice_cream_cone():
    # octagonal approximation of a circular cone in R^3
    thetas = [2.0 * np.pi * j / 8.0 for j in range(8)]
    gens = np.array([[np.cos(t), np.sin(t), 1.0] for t in thetas])
    facets = []
    for j in range(8):
        n = np.cross(gens[j], gens[(j + 1) % 8])
        if np.min(gens @ n) < -1e-9:  # orient inward; adjacent products are ~0
            n = -n
        facets.append(n)
    return PolyhedralCone(NormedSpace(3, "two"), gens, np.array(facets))


class TestValidation:
    def test_orthant_all_pass(self, orthant2_two):
        report = validate_cone(orthant2_two)
        assert report.passed
        assert report.nonzero_pass and report.conic_closure_pass and report.pointed_pass

    def test_opposite_generators_fail_pointedness(self):
        space = NormedSpace(2, "two")
        cone = PolyhedralCone(space, [[1.0, 0.0], [-1.0, 0.0]], [[0.0, 1.0]])
        report = validate_cone(cone)
        assert not report.pointed_pass
        assert not report.passed
        assert any("axiom (iii)" in m for m in report.messages)

    def test_ice_cream_cone_passes(self):
        cone = _ice_cream_cone()
        report = validate_cone(cone, n_samples=128)
        assert report.passed
        # enumeration: every generator satisfies every facet inequality
        assert np.min(cone.facets @ cone.generators.T) >= -1e-12

    def test_generator_outside_facets_reported(self):
        space = NormedSpace(2, "two")
        cone = PolyhedralCone(space, [[1.0, 0.0], [-0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        report = validate_cone(cone)
        assert not report.generators_consistent
        assert any("consistency" in m for m in report.messages)


class TestNormalConstant:
    @pytest.mark.parametrize("kind", ["one", "two", "infinity"])
    def test_orthant_bound_is_exactly_one(self, kind):
        cone = orthant(NormedSpace(2, kind))
        bound = normal_constant_lower_bound(cone, n_samples=400, seed=3)
        assert abs(bound - 1.0) <= 1e-12

    def test_includes_equal_pair(self, orthant3_inf):
        assert normal_constant_lower_bound(orthant3_inf, n_samples=1, seed=0) >= 1.0 - 1e-12

    def test_skewed_acute_cone_grid_oracle(self):
        # cone generated by (1,0) and (1,1) under the two norm: brute-force a
        # coefficient grid for the extreme ratio, then compare with sampling
        space = NormedSpace(2, "two")
        gens = np.array([[1.0, 0.0], [1.0, 1.0]])
        facets = np.array([[0.0, 1.0], [1.0, -1.0]])
        cone = PolyhedralCone(space, gens, facets)
        grid = np.linspace(0.0, 2.0, 21)
        best = 0.0
        for a in grid:
            for b in grid:
                x = a * gens[0] + b * gens[1]
                nx = np.linalg.norm(x)
                if nx == 0:
                    continue
                for c in grid:
                    for d in grid:
                        y = x + c * gens[0] + d * gens[1]
                        best = max(best, nx / np.linalg.norm(y))
        sampled = normal_constant_lower_bound(cone, n_samples=400, seed=5)
        assert best >= 1.0 - 1e-12
        assert sampled >= 1.0 - 1e-12
        assert abs(sampled - best) <= 1e-6  # both should find the ratio-1 extreme

    def test_obtuse_cone_bound_stays_below_declared(self):
        cone = skewed_cone_2d(1.6)
        bound = normal_constant_lower_bound(cone, n_samples=4000, seed=11)
        assert 1.0 < bound <= 1.6 * (1 + 1e-12)
        assert bound > 1.5  # the sampler actually finds the obtuse regime

    def test_declared_below_audit_rejected(self):
        space = NormedSpace(2, "two")
        cone = skewed_cone_2d(1.6)
        lying = PolyhedralCone(space, cone.generators, cone.facets, normal_constant=1.0)
        with pytest.raises(ContractViolationError, match="audit"):
            check_declared_normal_constant(lying, n_samples=2000, seed=1)

    def test_declared_at_least_audit_accepted(self):
        cone = skewed_cone_2d(1.6)
        bound = check_declared_normal_constant(cone, n_samples=2000, seed=1)
        assert bound <= 1.6 * (1 + 1e-9)


class TestConstruction:
    def test_normal_constant_below_one_rejected(self):
        space = NormedSpace(2, "two")
        with pytest.raises(ContractViolationError, match="normal constant"):
            PolyhedralCone(space, np.eye(2), np.eye(2), normal_constant=0.5)

    def test_dimension_cap(self):
        space = NormedSpace(17, "two")
        with pytest.raises(ContractViolationError, match="16"):
            PolyhedralCone(space, np.eye(17), np.eye(17))

    def test_zero_generators_rejected(self):
        space = NormedSpace(2, "two")
        with pytest.raises(ContractViolationError):
            PolyhedralCone(space, [[0.0, 0.0]], [[1.0, 0.0]])

    def test_weighted_space_norm(self):
        space = NormedSpace(2, "weighted", (2.0, 1.0))
        assert space.norm([1.0, 1.0]) == 2.0
        assert space.norm([0.5, 3.0]) == 3.0

    def test_weighted_needs_positive_weights(self):
        with pytest.raises(ContractViolationError):
            NormedSpace(2, "weighted", (1.0, 0.0))

    @pytest.mark.parametrize("kind", ["one", "two", "infinity", "weighted"])
    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_stacked_norms_match_per_vector_reference(self, kind, dim, rng):
        weights = tuple(rng.uniform(0.1, 3.0, dim)) if kind == "weighted" else None
        space = NormedSpace(dim, kind, weights)
        scale = 10.0 ** rng.uniform(-8, 8, (5, 7, dim))
        stack = rng.normal(size=(5, 7, dim)) * scale
        stack[0, 0] = 0.0
        stack[1, 2, 0] = np.nan
        reference = {
            "one": lambda v: np.sum(np.abs(v)),
            "two": np.linalg.norm,
            "infinity": lambda v: np.max(np.abs(v)),
            "weighted": lambda v: np.max(np.asarray(weights) * np.abs(v)),
        }[kind]
        expected = np.array([[reference(v) for v in row] for row in stack])
        assert space.norms(stack).tobytes() == expected.tobytes()
        assert space.norm(stack[3, 4]) == expected[3, 4]


@settings(max_examples=40, derandomize=True)
@given(
    coeffs=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
    scalars=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)
def test_conic_closure_property(coeffs, scalars):
    cone = orthant(NormedSpace(2, "two"))
    x = coeffs[0] * cone.generators[0] + coeffs[1] * cone.generators[1]
    y = coeffs[2] * cone.generators[0] + coeffs[3] * cone.generators[1]
    a, b = scalars
    assert cone_contains(cone, a * x + b * y, 1e-9)
