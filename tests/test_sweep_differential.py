"""Array sweeps against their per-pair and per-triple references.

The exhaustive hypothesis sweep and the finite metric-axiom sweep work on
the whole distance tensor at once.  Their references here go pair by pair
(through the public single-pair ``contraction_residual``) and triple by
triple, the way the sweeps were first written, and every field of the
reports must agree exactly.
"""

import numpy as np
import pytest

from conefix import (
    AffineMapping,
    CallableCoefficients,
    ConefixError,
    ConeMetricSpace,
    ConstantCoefficients,
    ContractViolationError,
    FinitePoints,
    LiftedMetric,
    LinearOperator,
    NormedSpace,
    PerPairCoefficients,
    TableMapping,
    TableMetric,
    check_hypotheses,
    check_metric_axioms,
    cone_contains,
    contraction_residual,
    invariance_check,
    make_lifted_space,
    normal_constant_lower_bound,
    operator_norm,
    orthant,
    resolvent,
    s_operator,
    skewed_cone_2d,
)
from conefix.contraction import MAX_WITNESSES

TOL = 1e-9


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_report(space, mapping, coeffs, pairs=None, k=None, tol=TOL):
    """Pair-by-pair sweep (canonical order by default); returns the report's fields."""
    cone = space.cone
    k = cone.normal_constant if k is None else k
    if pairs is None:
        labels = sorted(space.labels)
        pairs = [(x, y) for x in labels for y in labels]
    alpha = beta = -np.inf
    alpha_pair = beta_pair = None
    flags = {"i3": True, "hb": True, "i4": True, "i5": True}
    beta_defined = True
    witnesses = []
    failing = 0
    for x, y in pairs:
        a1, a2, a3, a4 = coeffs.at(x, y)
        norm_sum = sum(operator_norm(op) for op in (a1, a2, a3)) + 2.0 * operator_norm(a4)
        ok = {
            "i3": invariance_check(a1 + a2, cone, tol),
            "hb": invariance_check(a2, cone, tol),
            "i4": invariance_check(a4, cone, tol),
        }
        try:
            inv = resolvent(a3, a4)
            ok["i5"] = invariance_check(inv, cone, tol)
            i5_detail = "resolvent maps a generator out of the cone"
            s_norm = operator_norm(s_operator(a1, a2, a3, a4))
        except ConefixError as exc:
            ok["i5"], i5_detail, s_norm = False, str(exc), None
        if norm_sum > alpha:
            alpha, alpha_pair = norm_sum, (point_key(x), point_key(y))
        for name in ("i3", "hb", "i4", "i5"):
            if not ok[name] and flags[name]:
                flags[name] = False
                detail = i5_detail if name == "i5" else f"{name}: operator maps a generator out of the cone"
                witnesses.append((name, point_key(x), point_key(y), detail, None, None))
        if s_norm is None:
            beta_defined = False
        elif s_norm > beta:
            beta, beta_pair = s_norm, (point_key(x), point_key(y))
        r = contraction_residual(space, mapping, coeffs, x, y)
        if not cone_contains(cone, r, tol):
            failing += 1
            worst = float(np.min(cone.facets @ r))
            detail = f"residual leaves the cone (worst facet product {worst:.6g})"
            witnesses.append(("contraction", point_key(x), point_key(y), detail, worst, tuple(r)))
    witnesses = witnesses[:MAX_WITNESSES]
    i1 = alpha < 1.0 / k
    if not i1:
        detail = f"coefficient norm sum {alpha:.17g} is not below 1/k = {1.0 / k:.17g}"
        witnesses.append(("i1", *alpha_pair, detail, alpha, None))
    if beta == -np.inf:
        beta, beta_defined = float("nan"), False
    i2 = beta_defined and beta < 1.0
    if beta_defined and not i2:
        witnesses.append(("i2", *beta_pair, f"composite operator norm {beta:.17g} is not below 1", beta, None))
    return {
        "alpha": alpha,
        "beta": None if np.isnan(beta) else beta,
        "flags": (i1, i2, flags["i3"], flags["hb"], flags["i4"], flags["i5"], failing == 0),
        "alpha_pair": alpha_pair,
        "beta_pair": beta_pair,
        "witnesses": witnesses[:MAX_WITNESSES],
        "pairs_checked": len(pairs),
    }


def point_key(x):
    """Labels as they are, euclidean points as tuples, so reports compare with ==."""
    return x if x is None or isinstance(x, str) else tuple(np.atleast_1d(x))


def pair_key(pair):
    return None if pair is None else tuple(point_key(x) for x in pair)


def report_fields(report):
    assert all(type(f) is bool for f in (report.i1_pass, report.i2_pass, report.contraction_pass))
    return {
        "alpha": report.alpha,
        "beta": None if np.isnan(report.beta) else report.beta,
        "flags": (
            report.i1_pass,
            report.i2_pass,
            report.i3_pass,
            report.hb_pass,
            report.i4_pass,
            report.i5_pass,
            report.contraction_pass,
        ),
        "alpha_pair": pair_key(report.alpha_pair),
        "beta_pair": pair_key(report.beta_pair),
        "witnesses": [
            (
                w.condition,
                point_key(w.x),
                point_key(w.y),
                w.detail,
                w.value,
                None if w.vector is None else tuple(w.vector),
            )
            for w in report.witnesses
        ],
        "pairs_checked": report.pairs_checked,
    }


def reference_axioms(space, tol=TOL):
    """Pair-by-pair and triple-by-triple axiom sweep, messages capped at 25."""
    cone = space.cone
    labels = sorted(space.labels)
    a_ok = b_ok = c_ok = True
    messages = []
    for x in labels:
        for y in labels:
            dxy = space.d(x, y)
            nxy = cone.space.norm(dxy)
            if not cone_contains(cone, dxy, tol):
                a_ok = False
                messages.append(f"axiom (a): d({x}, {y}) is not a cone member")
            if x == y and nxy > tol:
                a_ok = False
                messages.append(f"axiom (a): d({x}, {x}) = {nxy:.6g} is nonzero")
            if x != y and nxy <= tol:
                a_ok = False
                messages.append(f"axiom (a): d({x}, {y}) vanishes for distinct points")
            if cone.space.norm(dxy - space.d(y, x)) > tol:
                b_ok = False
                messages.append(f"axiom (b): d({x}, {y}) != d({y}, {x})")
    for x in labels:
        for y in labels:
            for z in labels:
                slack = space.d(x, z) + space.d(z, y) - space.d(x, y)
                if not cone_contains(cone, slack, tol):
                    c_ok = False
                    messages.append(f"axiom (c): triangle slack for ({x}, {z}, {y}) leaves the cone")
    n = len(labels)
    return (a_ok, b_ok, c_ok, n * n, n**3, messages[:25])


def axiom_fields(report):
    # plain bools: the CLI prints true/false only for those
    assert all(type(f) is bool for f in (report.axiom_a_pass, report.axiom_b_pass, report.axiom_c_pass))
    return (
        report.axiom_a_pass,
        report.axiom_b_pass,
        report.axiom_c_pass,
        report.pairs_checked,
        report.triples_checked,
        report.messages,
    )


# ---------------------------------------------------------------------------
# Seeded random finite instances
# ---------------------------------------------------------------------------

CONES = {
    "orthant1_two": lambda: orthant(NormedSpace(1, "two")),
    "orthant2_one": lambda: orthant(NormedSpace(2, "one")),
    "orthant3_inf": lambda: orthant(NormedSpace(3, "infinity")),
    "skewed": lambda: skewed_cone_2d(1.6),
}


def random_space(rng, cone, metric, n):
    labels = tuple(f"q{i}" for i in rng.permutation(n))
    w = rng.uniform(0.2, 2.0, cone.generators.shape[0]) @ cone.generators
    if metric == "euclidean":
        m = int(rng.integers(1, 4))
        positions = {l: rng.uniform(-3.0, 3.0, m) for l in labels}
        return ConeMetricSpace(cone, FinitePoints(labels, positions), LiftedMetric("euclidean", w))
    if metric == "discrete":
        return ConeMetricSpace(cone, FinitePoints(labels), LiftedMetric("discrete", w))
    if rng.uniform() < 0.3:
        # a consistent table: the discrete metric, each pair given one way
        order = sorted(labels)
        entries = {(a, b): w for i, a in enumerate(order) for b in order[i + 1 :]}
        return ConeMetricSpace(cone, FinitePoints(labels), TableMetric(entries))
    # An inconsistent table: some entries only one way round, some pairs
    # given both ways with different values, nonzero or missing diagonals,
    # and a few values outside the cone.
    p = cone.space.dim
    entries = {}
    for a in labels:
        for b in labels:
            r = rng.uniform()
            if a == b:
                if r < 0.3:
                    entries[(a, b)] = rng.uniform(0.0, 0.5, p) * (r < 0.15)
            elif r < 0.85 or (b, a) not in entries:
                value = rng.uniform(0.1, 2.0, cone.generators.shape[0]) @ cone.generators
                entries[(a, b)] = value if r < 0.95 else -value
    return ConeMetricSpace(cone, FinitePoints(labels), TableMetric(entries))


def random_quad(rng, space, scale):
    p = space.dim
    # a small negative floor lets the invariance conditions fail sometimes
    return tuple(
        LinearOperator(rng.uniform(-0.05, 1.0, (p, p)) * scale * s / p, space)
        for s in (1.0, 0.3, 0.3, 0.2)
    )


def random_coeffs(rng, space, family, labels):
    if family == "constant":
        return ConstantCoefficients(*random_quad(rng, space, rng.uniform(0.1, 0.9)))
    table = {(x, y): random_quad(rng, space, rng.uniform(0.1, 1.2)) for x in labels for y in labels}
    if family == "per_pair":
        return PerPairCoefficients(table)
    return CallableCoefficients(lambda x, y: table[(x, y)])


def random_instance(seed, metric, family, failing):
    rng = np.random.default_rng(seed)
    cone = CONES[list(CONES)[seed % len(CONES)]]()
    n = int(rng.integers(1, 9))
    space = random_space(rng, cone, metric, n)
    labels = space.labels
    if failing:
        # a swap-like map with nothing to pay for it: fails contraction
        # wherever the images are apart
        order = sorted(labels)
        mapping = TableMapping({x: order[-1 - i] for i, x in enumerate(order)})
    else:
        mapping = TableMapping({x: labels[int(rng.integers(0, n))] for x in labels})
    return space, mapping, random_coeffs(rng, cone.space, family, labels)


CASES = [
    (metric, family, failing)
    for metric in ("euclidean", "discrete", "table")
    for family in ("constant", "per_pair", "callable")
    for failing in (False, True)
]


@pytest.mark.parametrize("metric,family,failing", CASES)
def test_sweep_matches_per_pair_reference(metric, family, failing):
    contraction_failures = 0
    for seed in range(10):
        space, mapping, coeffs = random_instance(seed, metric, family, failing)
        expected = reference_report(space, mapping, coeffs)
        report = check_hypotheses(space, mapping, coeffs, tol=TOL)
        assert report_fields(report) == expected, f"seed {seed}"
        assert report.exhaustive
        contraction_failures += not report.contraction_pass
    if failing:
        assert contraction_failures >= 6


@pytest.mark.parametrize("family", ["constant", "callable"])
def test_sampled_sweep_matches_per_pair_reference(family):
    # the sampled euclidean sweep keeps its pair loop but shares the
    # reduction to a report with the exhaustive sweep
    outcomes = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        cone = CONES[list(CONES)[seed % len(CONES)]]()
        m = int(rng.integers(1, 3))
        w = rng.uniform(0.2, 2.0, cone.generators.shape[0]) @ cone.generators
        space = make_lifted_space(m, cone, w)
        mapping = AffineMapping(rng.uniform(-0.9, 0.9, (m, m)) / m, rng.uniform(-1.0, 1.0, m))
        quad = random_quad(rng, cone.space, rng.uniform(0.2, 0.9))
        if family == "constant":
            coeffs = ConstantCoefficients(*quad)
        else:
            coeffs = CallableCoefficients(lambda x, y: quad)
        draw = np.random.default_rng(seed + 100)
        pairs = [(space.sample_point(draw), space.sample_point(draw)) for _ in range(40)]
        expected = reference_report(space, mapping, coeffs, pairs=pairs)
        report = check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 40, seed + 100))
        assert report_fields(report) == expected, f"seed {seed}"
        assert not report.exhaustive
        outcomes.add(report.contraction_pass)
    assert outcomes == {True, False}


@pytest.mark.parametrize("metric", ["euclidean", "discrete", "table"])
def test_axioms_match_per_triple_reference(metric):
    verdicts = set()
    for seed in range(16):
        space, _, _ = random_instance(seed, metric, "constant", False)
        report = check_metric_axioms(space, tol=TOL)
        assert axiom_fields(report) == reference_axioms(space), f"seed {seed}"
        assert report.exhaustive
        verdicts.add(report.passed)
    if metric == "table":
        assert verdicts == {True, False}


def test_callable_coefficients_called_once_per_pair(orthant2_inf):
    rng = np.random.default_rng(3)
    space = random_space(rng, orthant2_inf, "euclidean", 5)
    quad = random_quad(rng, orthant2_inf.space, 0.5)
    calls = []
    coeffs = CallableCoefficients(lambda x, y: calls.append((x, y)) or quad)
    mapping = TableMapping({x: x for x in space.labels})
    check_hypotheses(space, mapping, coeffs)
    labels = sorted(space.labels)
    assert calls == [(x, y) for x in labels for y in labels]


def test_large_space_counts():
    # untimed: the array sweeps must cover N^2 pairs and N^3 triples
    n = 120
    cone = orthant(NormedSpace(3, "infinity"))
    rng = np.random.default_rng(5)
    labels = tuple(f"p{i:03d}" for i in range(n))
    positions = {l: rng.uniform(-1.0, 1.0, 2) for l in labels}
    space = ConeMetricSpace(cone, FinitePoints(labels, positions), LiftedMetric("euclidean", [1.0, 0.5, 2.0]))
    mapping = TableMapping({l: labels[0] for l in labels})
    coeffs = ConstantCoefficients(
        *(LinearOperator(a * np.eye(3), cone.space) for a in (0.3, 0.1, 0.1, 0.05))
    )
    axioms = check_metric_axioms(space)
    assert axioms.passed
    assert axioms.pairs_checked == n * n and axioms.triples_checked == n**3
    report = check_hypotheses(space, mapping, coeffs)
    assert report.pairs_checked == n * n
    assert report.passed
    for x, y in [(labels[0], labels[1]), (labels[-1], labels[7]), (labels[5], labels[5])]:
        assert cone_contains(cone, contraction_residual(space, mapping, coeffs, x, y))


class TestSweepErrors:
    def test_unmapped_label(self, orthant2_inf):
        space = random_space(np.random.default_rng(1), orthant2_inf, "discrete", 3)
        mapping = TableMapping({"q0": "q0", "q1": "q0"})
        coeffs = ConstantCoefficients(*random_quad(np.random.default_rng(2), orthant2_inf.space, 0.3))
        with pytest.raises(ContractViolationError, match="not defined at 'q2'"):
            check_hypotheses(space, mapping, coeffs)

    def test_missing_table_entry(self, orthant2_inf):
        entries = {("a", "b"): np.array([1.0, 1.0])}
        space = ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b", "c")), TableMetric(entries))
        mapping = TableMapping({"a": "a", "b": "a", "c": "a"})
        coeffs = ConstantCoefficients(*random_quad(np.random.default_rng(2), orthant2_inf.space, 0.3))
        with pytest.raises(ContractViolationError, match=r"no entry for \(a, c\)"):
            check_hypotheses(space, mapping, coeffs)
        with pytest.raises(ContractViolationError, match=r"no entry for \(a, c\)"):
            check_metric_axioms(space)

    def test_non_finite_residual(self, orthant2_inf):
        entries = {("a", "b"): np.array([np.inf, 1.0])}
        space = ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b")), TableMetric(entries))
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = ConstantCoefficients(*random_quad(np.random.default_rng(2), orthant2_inf.space, 0.3))
        with pytest.raises(ContractViolationError, match="non-finite"):
            check_hypotheses(space, mapping, coeffs)
        with pytest.raises(ContractViolationError, match="non-finite"):
            check_metric_axioms(space)


def reference_normal_constant_bound(cone, n_samples=512, seed=0):
    """The sample-by-sample loop the batched bound replaced."""
    sp = cone.space
    rng = np.random.default_rng(seed)
    gens = cone.generators
    n_gen = gens.shape[0]
    pairs = [(gens.sum(axis=0), gens.sum(axis=0))]
    for g in gens:
        pairs.append((g, g))
        for h in gens:
            for t in (0.25, 0.5, 0.8, 1.0, 1.5, 2.0):
                pairs.append((g, g + t * h))
    for _ in range(n_samples):
        mask_x = rng.uniform(0.0, 1.0, n_gen) < 0.7
        cx = rng.uniform(0.0, 2.0, n_gen) * mask_x
        cq = rng.uniform(0.0, 2.0, n_gen) * (rng.uniform(0.0, 1.0, n_gen) < 0.7)
        x = cx @ gens
        pairs.append((x, x + cq @ gens))
    best = 0.0
    for x, y in pairs:
        ny = sp.norm(y)
        if ny > 0.0:
            best = max(best, sp.norm(x) / ny)
    return best


@pytest.mark.parametrize(
    "make",
    [
        lambda: orthant(NormedSpace(2, "infinity")),
        lambda: orthant(NormedSpace(3, "infinity")),
        lambda: skewed_cone_2d(1.6),
    ],
    ids=["orthant2_inf", "orthant3_inf", "skewed_1.6"],
)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_batched_normal_constant_bound_matches_loop(make, seed):
    cone = make()
    expected = reference_normal_constant_bound(cone, seed=seed)
    assert normal_constant_lower_bound(cone, seed=seed) == pytest.approx(expected, rel=1e-15, abs=0)
