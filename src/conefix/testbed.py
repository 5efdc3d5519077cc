"""Example spaces, randomized certified instances, and brute-force oracles.

The generator builds finite instances that satisfy the certifying
conditions *by construction* with explicit margins (coefficient norm sum at
most ``0.9 / k``, composite norm at most 0.9) and then re-verifies them with
an exhaustive hypothesis sweep; blind rejection sampling would almost never
hit that target.  Brute-force enumeration of fixed points on the finite
point set is the independent ground truth the solver is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import NormedSpace, PolyhedralCone
from .contraction import (
    ConeMetricSpace,
    ConstantCoefficients,
    FinitePoints,
    EuclideanPoints,
    HypothesisReport,
    LiftedMetric,
    TableMapping,
    check_hypotheses,
    reduce_scalar,
)
from .errors import ContractViolationError, GenerationError
from .linops import LinearOperator

GENERATOR_ALPHA_MARGIN = 0.9
GENERATOR_MAX_RETRIES = 20


def make_scalar_space(labels=None, positions=None, base: str = "euclidean") -> ConeMetricSpace:
    """Classical metric space embedded as a cone metric space.

    E = R with the half-line cone [0, inf) and normal constant 1.  With
    ``labels`` None the point domain is the euclidean line; otherwise it is
    the given finite label set with a euclidean base over ``positions`` or
    the discrete 0/1 base.
    """
    space = NormedSpace(1, "two")
    cone = PolyhedralCone(space, [[1.0]], [[1.0]], normal_constant=1.0)
    metric = LiftedMetric(base, np.array([1.0]))
    points = EuclideanPoints(1) if labels is None else FinitePoints(tuple(labels), positions)
    return ConeMetricSpace(cone, points, metric)


def make_lifted_space(m: int, cone: PolyhedralCone, w, base: str = "euclidean") -> ConeMetricSpace:
    """Cone metric space over R^m with ``d(x, y) = rho(x, y) * w``.

    ``w`` must be a nonzero cone element; rho is the euclidean or discrete
    base metric on the points.
    """
    return ConeMetricSpace(cone, EuclideanPoints(m), LiftedMetric(base, w))


def make_finite_lifted_space(
    labels, positions, cone: PolyhedralCone, w, base: str = "euclidean"
) -> ConeMetricSpace:
    """Finite-label variant of :func:`make_lifted_space`."""
    return ConeMetricSpace(cone, FinitePoints(tuple(labels), positions), LiftedMetric(base, w))


def skewed_cone_2d(k: float = 1.6) -> PolyhedralCone:
    """Planar cone whose two-norm normal constant equals k (> 1).

    The cone spans the angle from 0 to ``pi - arcsin(1/k)``; opening past a
    right angle is what makes ordered pairs shrink in norm, and the extreme
    ratio works out to exactly k.
    """
    if k <= 1.0:
        raise ContractViolationError("skewed cones here need k > 1")
    space = NormedSpace(2, "two")
    theta = math.pi - math.asin(1.0 / k)
    g2 = np.array([math.cos(theta), math.sin(theta)])
    generators = np.array([[1.0, 0.0], g2])
    facets = np.array([[0.0, 1.0], [math.sin(theta), -math.cos(theta)]])
    return PolyhedralCone(space, generators, facets, normal_constant=k)


@dataclass(eq=False)
class FiniteInstance:
    """A finite cone metric space with a mapping and coefficient family.

    ``certification`` optionally carries the exhaustive hypothesis report
    the instance was generated under.
    """

    space: ConeMetricSpace
    mapping: TableMapping
    coeffs: ConstantCoefficients
    certification: HypothesisReport | None = None

    @property
    def k(self) -> float:
        return self.space.cone.normal_constant

    def to_problem_dict(self, x0=None, eps: float = 1e-10) -> dict:
        """Serialize to the CLI problem-file structure."""
        cone = self.space.cone
        sp = cone.space
        norm = {"weighted": list(sp.weights)} if sp.kind == "weighted" else sp.kind
        points = self.space.points
        metric = {
            "kind": "lifted",
            "base": self.space.metric.base,
            "weight": self.space.metric.weight.tolist(),
            "labels": list(points.labels),
        }
        if points.positions is not None:
            metric["positions"] = dict(zip(points.order, points.positions.tolist()))
        labels = sorted(points.labels)
        return {
            "space": {
                "dim": sp.dim,
                "norm": norm,
                "cone": {
                    "generators": cone.generators.tolist(),
                    "facets": cone.facets.tolist(),
                    "normal_constant": cone.normal_constant,
                },
                "metric": metric,
            },
            "mapping": {"kind": "table", "table": dict(sorted(self.mapping.table.items()))},
            "coefficients": {
                "kind": "constant",
                "A1": self.coeffs.a1.matrix.tolist(),
                "A2": self.coeffs.a2.matrix.tolist(),
                "A3": self.coeffs.a3.matrix.tolist(),
                "A4": self.coeffs.a4.matrix.tolist(),
            },
            "solve": {"x0": labels[-1] if x0 is None else x0, "eps": eps},
            "check": {"pair_source": "all"},
        }


def brute_force_fixed_points(instance: FiniteInstance) -> list[str]:
    """Exact fixed-point list by full enumeration, in label order."""
    t = instance.space.image_indices(instance.mapping)
    return [instance.space.points.order[i] for i in np.flatnonzero(t == np.arange(t.size))]


# ---------------------------------------------------------------------------
# Scalar reduction checks
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CorollaryReport:
    """Witnessed versus closed-form coefficient bounds for a scalar family."""

    witnessed_alpha: float
    expected_alpha: float
    witnessed_beta: float
    expected_beta: float
    tol: float = 1e-12

    @property
    def alpha_match(self) -> bool:
        return abs(self.witnessed_alpha - self.expected_alpha) <= self.tol * max(
            1.0, abs(self.expected_alpha)
        )

    @property
    def beta_match(self) -> bool:
        return abs(self.witnessed_beta - self.expected_beta) <= self.tol * max(
            1.0, abs(self.expected_beta)
        )

    @property
    def passed(self) -> bool:
        return self.alpha_match and self.beta_match


def verify_corollary_equivalence(a1: float, a2: float, a3: float, a4: float) -> CorollaryReport:
    """Check the scalar reduction against its closed forms.

    The hypothesis checker's witnessed maxima must reproduce
    ``alpha = a1 + a2 + a3 + 2 a4`` and
    ``beta = (a1 + a2 + a4) / (1 - a3 - a4)`` exactly (to 1e-12).
    """
    if a3 + a4 >= 1.0:
        raise ContractViolationError("scalar reduction needs a3 + a4 < 1")
    coeffs = reduce_scalar(a1, a2, a3, a4)
    space = make_scalar_space(labels=("p0", "p1"), positions={"p0": [0.0], "p1": [1.0]})
    mapping = TableMapping({"p0": "p0", "p1": "p0"})
    report = check_hypotheses(space, mapping, coeffs, k=1.0, pair_source="all")
    return CorollaryReport(
        witnessed_alpha=report.alpha,
        expected_alpha=a1 + a2 + a3 + 2.0 * a4,
        witnessed_beta=report.beta,
        expected_beta=(a1 + a2 + a4) / (1.0 - a3 - a4),
    )


# ---------------------------------------------------------------------------
# Randomized certified instances
# ---------------------------------------------------------------------------


def _ladder_space(rng, size: int, cone: PolyhedralCone, gamma: float):
    """Finite space whose mapping walks a geometric ladder into a fixed point.

    Rung i > 0 sits at distance ``c * gamma^i`` from the target (all rungs
    on one side, so distances never cancel) and maps one rung further in;
    the worst-case stretch factor of the map stays below
    ``gamma / (1 - gamma)``.  The fixed point is the rung at distance zero.
    """
    labels = tuple(f"p{i:02d}" for i in range(size))
    order = rng.permutation(size)
    c = rng.uniform(0.5, 2.0)
    offset = rng.uniform(-5.0, 5.0)
    sign = float(rng.choice([-1.0, 1.0]))
    positions = {}
    table = {}
    for rung, idx in enumerate(order):
        label = labels[idx]
        if rung == 0:
            positions[label] = np.array([offset])
            table[label] = label
        else:
            positions[label] = np.array([offset + sign * c * gamma**rung])
            next_label = labels[order[rung + 1]] if rung + 1 < size else labels[order[0]]
            table[label] = next_label

    w = _random_cone_weight(rng, cone)
    space = make_finite_lifted_space(labels, positions, cone, w)
    return space, TableMapping(table)


def _scalarish_coefficients(space: NormedSpace, a_quad) -> ConstantCoefficients:
    """Quadruple of operators from scalars (multiples of I) or raw matrices."""
    ops = tuple(
        LinearOperator(a if isinstance(a, np.ndarray) else float(a) * np.eye(space.dim), space)
        for a in a_quad
    )
    return ConstantCoefficients(*ops)


def _random_cone_weight(rng, cone: PolyhedralCone) -> np.ndarray:
    coeffs = rng.uniform(0.5, 2.0, cone.generators.shape[0])
    return coeffs @ cone.generators


def _lipschitz_factor(space: ConeMetricSpace, mapping: TableMapping) -> float:
    """Exact worst-case stretch of the mapping over all distinct pairs."""
    norms = space.norm_table()
    t = space.image_indices(mapping)
    moved = (norms != 0.0) & ~np.eye(t.size, dtype=bool)
    return float(np.max(norms[np.ix_(t, t)][moved] / norms[moved], initial=0.0))


def _is_orthant(cone: PolyhedralCone) -> bool:
    eye = np.eye(cone.space.dim)
    return cone.generators.shape == eye.shape and np.array_equal(cone.generators, eye)


def generate_certified_instance(
    seed: int, space_size: int, cone: PolyhedralCone
) -> FiniteInstance:
    """Deterministic-in-seed finite instance passing every certifying condition.

    Construction: a geometric ladder mapping with stretch factor below the
    drawn leading coefficient, scalar (plus, on orthants, nonnegative
    matrix) coefficients budgeted so the witnessed norm sum stays at most
    ``0.9 / k`` and the witnessed composite norm at most 0.9.  The result is
    re-verified with an exhaustive sweep; persistent failure raises instead
    of silently weakening the instance.
    """
    if space_size < 2:
        raise ContractViolationError("instance needs at least 2 points")
    rng = np.random.default_rng(int(seed))
    k = cone.normal_constant
    budget = GENERATOR_ALPHA_MARGIN / k
    for _ in range(GENERATOR_MAX_RETRIES):
        # gamma / (1 - gamma) <= 0.57 * budget keeps the ladder's stretch
        # safely under the leading coefficient drawn below.
        t = 0.57 * budget
        gamma_hi = min(0.45, t / (1.0 + t))
        gamma = rng.uniform(0.10, gamma_hi) if gamma_hi > 0.10 else gamma_hi * 0.9
        space, mapping = _ladder_space(rng, space_size, cone, gamma)
        lip = _lipschitz_factor(space, mapping)

        lo = min(1.02 * lip, 0.69 * budget)
        a1 = rng.uniform(lo, 0.70 * budget)
        if a1 < lip:
            continue
        rest = budget - a1
        raw = rng.uniform(0.1, 1.0, 3)
        scale = (rest * rng.uniform(0.3, 0.9)) / (raw[0] + raw[1] + 2.0 * raw[2])
        a2, a3, a4 = (raw * scale).tolist()

        quad: list = [a1, a2, a3, a4]
        if _is_orthant(cone) and rng.uniform() < 0.5:
            # Orthants tolerate nonnegative matrix coefficients; spend a bit
            # of the a2 budget on off-diagonal mass.  Normalizing by both row
            # and column sums keeps the induced norm under 0.3 * a2 for every
            # supported norm kind.
            p = cone.space.dim
            noise = rng.uniform(0.0, 1.0, (p, p))
            denom = max(
                1.0, float(np.max(np.sum(noise, axis=1))), float(np.max(np.sum(noise, axis=0)))
            )
            noise *= 0.3 * a2 / denom
            quad[1] = 0.7 * a2 * np.eye(p) + noise

        instance = FiniteInstance(space, mapping, _scalarish_coefficients(cone.space, quad))
        report = check_hypotheses(instance.space, instance.mapping, instance.coeffs, k=k)
        if report.passed and report.alpha <= budget + 1e-12 and report.beta <= 0.9 + 1e-12:
            instance.certification = report
            return instance
    raise GenerationError(
        f"no certified instance found for seed {seed}, size {space_size} "
        f"after {GENERATOR_MAX_RETRIES} attempts"
    )


def generate_probe_instance(rng, k: float, alpha_min: float, alpha_max: float):
    """Instance for the k > 1 regime: norm sum in [alpha_min, alpha_max].

    Scalar coefficients on a cone with genuine normal constant k; the
    leading coefficient takes at least half the target sum so the ladder
    mapping fits under it.  Returns the instance and its exhaustive report;
    the report's i1 flag fails by design while the rest pass.
    """
    cone = skewed_cone_2d(k)
    target = rng.uniform(alpha_min, alpha_max)
    f1 = rng.uniform(0.55, 0.75)
    a1 = f1 * target
    raw = rng.uniform(0.1, 1.0, 3)
    scale = (target - a1) / (raw[0] + raw[1] + 2.0 * raw[2])
    a2, a3, a4 = (raw * scale).tolist()
    t = 0.9 * a1
    gamma = min(0.45, 0.9 * t / (1.0 + t))
    size = int(rng.integers(3, 9))
    space, mapping = _ladder_space(rng, size, cone, gamma)
    instance = FiniteInstance(space, mapping, _scalarish_coefficients(cone.space, (a1, a2, a3, a4)))
    report = check_hypotheses(instance.space, instance.mapping, instance.coeffs, k=k)
    if not set(report.failing_conditions()) <= {"i1"}:
        raise GenerationError("probe instance failed a condition it was built to satisfy")
    return instance, report
