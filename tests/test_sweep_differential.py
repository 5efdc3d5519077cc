"""Array sweeps against their per-pair and per-triple references.

The exhaustive and sampled hypothesis sweeps, the finite metric-axiom
sweep, the distance lookups of a finite space and the bound audit work on
whole arrays at once.  Their references here go pair by pair (through the public
single-pair ``contraction_residual``) and triple by triple, the way they
were first written, and every field of the results must agree exactly.
The fast facet products that decide most pairs of the exhaustive sweep
must lie within their rounding band of the reference products.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

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
    IterationTrace,
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
    generate_certified_instance,
    induced_norm,
    invariance_check,
    make_lifted_space,
    normal_constant_lower_bound,
    orthant,
    picard_solve,
    resolvent_stack,
    skewed_cone_2d,
    verify_proof_bounds,
)
from conefix import cli, contraction, solver
from conefix.contraction import CONDITIONS, MAX_WITNESSES
from conefix.solver import BOUND_AUDIT_RTOL, tail_bound

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
        norm_sum = sum(float(induced_norm(m, cone.space)) for m in (a1, a2, a3))
        norm_sum += 2.0 * float(induced_norm(a4, cone.space))
        ok = {
            "i3": invariance_check(a1 + a2, cone, tol),
            "hb": invariance_check(a2, cone, tol),
            "i4": invariance_check(a4, cone, tol),
        }
        inv, error = resolvent_stack(a3[None], a4[None], cone.space)
        if error is None:
            ok["i5"] = invariance_check(inv[0], cone, tol)
            i5_detail = "resolvent maps a generator out of the cone"
            s_norm = float(induced_norm(inv[0] @ (a1 + a2 + a4), cone.space))
        else:
            ok["i5"], i5_detail, s_norm = False, str(error), None
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
    assert tuple(report.conditions) == CONDITIONS
    assert all(type(f) is bool for f in report.conditions.values())
    return {
        "alpha": report.alpha,
        "beta": None if np.isnan(report.beta) else report.beta,
        "flags": tuple(report.conditions.values()),
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
    assert tuple(report.axioms) == ("a", "b", "c")
    assert all(type(f) is bool for f in report.axioms.values())
    return (
        *report.axioms.values(),
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
    """The ``(4, p, p)`` matrices ``A1..A4`` of one random quadruple."""
    p = space.dim
    # a small negative floor lets the invariance conditions fail sometimes
    return np.array([rng.uniform(-0.05, 1.0, (p, p)) * scale * s / p for s in (1.0, 0.3, 0.3, 0.2)])


def constant(quad, space):
    return ConstantCoefficients(*(LinearOperator(m, space) for m in quad))


def random_coeffs(rng, space, family, labels):
    if family == "constant":
        return constant(random_quad(rng, space, rng.uniform(0.1, 0.9)), space)
    table = {(x, y): random_quad(rng, space, rng.uniform(0.1, 1.2)) for x in labels for y in labels}
    if family == "per_pair":
        return PerPairCoefficients(table)
    return CallableCoefficients(lambda x, y: table[(x, y)])


def random_instance(seed, metric, family, failing, n=None):
    rng = np.random.default_rng(seed)
    cone = CONES[list(CONES)[seed % len(CONES)]]()
    n = int(rng.integers(1, 9)) if n is None else n
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
        contraction_failures += not report.conditions["contraction"]
    if failing:
        assert contraction_failures >= 6


@pytest.mark.parametrize("metric,family,failing", CASES)
def test_finite_sampled_sweep_matches_per_pair_reference(metric, family, failing):
    # the sample draws labels one at a time, in the order the space was given them
    outcomes = set()
    for seed in range(10):
        space, mapping, coeffs = random_instance(seed, metric, family, failing)
        for n in (1, 7, 60):
            draw = np.random.default_rng(seed + 100)
            labels = space.points.labels
            pairs = [tuple(labels[int(draw.integers(0, len(labels)))] for _ in "xy") for _ in range(n)]
            expected = reference_report(space, mapping, coeffs, pairs=pairs)
            report = check_hypotheses(space, mapping, coeffs, pair_source=("sampled", n, seed + 100), tol=TOL)
            assert report_fields(report) == expected, f"seed {seed}, n {n}"
            assert not report.exhaustive
            outcomes.add(report.conditions["contraction"])
    assert outcomes == {True, False}


@pytest.mark.parametrize("family", ["constant", "callable"])
def test_sampled_sweep_matches_per_pair_reference(family):
    # the euclidean sample is drawn one point at a time here
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
            coeffs = constant(quad, cone.space)
        else:
            coeffs = CallableCoefficients(lambda x, y: quad)
        draw = np.random.default_rng(seed + 100)
        pairs = [(draw.uniform(-10.0, 10.0, m), draw.uniform(-10.0, 10.0, m)) for _ in range(40)]
        expected = reference_report(space, mapping, coeffs, pairs=pairs)
        report = check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 40, seed + 100))
        assert report_fields(report) == expected, f"seed {seed}"
        assert not report.exhaustive
        outcomes.add(report.conditions["contraction"])
    assert outcomes == {True, False}


@pytest.mark.parametrize("metric", ["euclidean", "discrete", "table"])
def test_axioms_match_per_triple_reference(metric):
    verdicts = set()
    for seed in range(16):
        space, _, _ = random_instance(seed, metric, "constant", False)
        report = check_metric_axioms(space, tol=TOL)
        expected = reference_axioms(space)
        if metric == "table":
            assert report.route == "sweep"
            assert axiom_fields(report) == expected, f"seed {seed}"
        else:
            # a lifted metric is decided by construction: the reference's
            # verdict, from the N^2 norms alone
            n = len(space.labels)
            assert report.route == "construction"
            assert axiom_fields(report) == (*expected[:3], n * n, 0, expected[5][:1]), f"seed {seed}"
        verdicts.add(report.passed)
    if metric == "table":
        assert verdicts == {True, False}


@pytest.mark.parametrize("cone_name", sorted(CONES))
def test_axioms_by_construction_refuse_duplicate_positions(cone_name):
    cone = CONES[cone_name]()
    w = cone.generators.sum(axis=0)
    positions = {"a": [0.0, 1.0], "b": [2.0, 0.0], "c": [0.0, 1.0], "d": [2.0, 0.0]}
    space = ConeMetricSpace(cone, FinitePoints(tuple("dcba"), positions), LiftedMetric("euclidean", w))
    report = check_metric_axioms(space, tol=TOL)
    expected = reference_axioms(space)
    assert expected[:3] == (False, True, True)
    assert axiom_fields(report) == (*expected[:3], 16, 0, expected[5][:1])
    assert report.messages == ["axiom (a): d(a, c) vanishes for distinct points"]


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


def test_per_pair_stack_gathered_like_at(orthant2_inf):
    rng = np.random.default_rng(6)
    space = random_space(rng, orthant2_inf, "euclidean", 6)
    labels = sorted(space.labels)
    pairs = [(x, y) for x in labels for y in labels]
    coeffs = random_coeffs(rng, orthant2_inf.space, "per_pair", space.labels)
    assert coeffs.take(pairs).tobytes() == np.array([coeffs.at(x, y) for x, y in pairs]).tobytes()
    assert coeffs.take(pairs[::-3]).tobytes() == np.array([coeffs.at(x, y) for x, y in pairs[::-3]]).tobytes()
    # the first undeclared pair in sweep order is named, as coeffs.at names it
    mapping = TableMapping({x: labels[0] for x in labels})
    table = {pair: quad for pair, quad in coeffs.table.items() if pair not in (pairs[29], pairs[9])}
    with pytest.raises(ContractViolationError, match=r"^no coefficients declared for pair \('%s', '%s'\)$" % pairs[9]):
        check_hypotheses(space, mapping, PerPairCoefficients(table))


def test_singular_quadruple_is_the_i5_witness(orthant2_inf):
    # nonnegative quadruples keep every certified resolvent in the orthant,
    # so the one pair whose I - A3 - A4 is singular is the only i5 failure
    rng = np.random.default_rng(4)
    space = random_space(rng, orthant2_inf, "discrete", 4)
    labels = sorted(space.labels)
    table = {
        (x, y): [rng.uniform(0.0, 0.1, (2, 2)) for _ in range(4)] for x in labels for y in labels
    }
    pair = (labels[1], labels[2])
    a1, a2, _, _ = table[pair]
    table[pair] = [a1, a2, np.eye(2), np.zeros((2, 2))]
    coeffs = PerPairCoefficients(table)
    mapping = TableMapping({x: labels[0] for x in labels})
    report = check_hypotheses(space, mapping, coeffs, tol=TOL)
    assert report_fields(report) == reference_report(space, mapping, coeffs)
    (i5,) = [w for w in report.witnesses if w.condition == "i5"]
    assert (i5.x, i5.y) == pair
    assert i5.detail.startswith("cannot certify the resolvent")
    assert not report.conditions["i2"]  # beta is not defined at that pair


def test_large_space_counts():
    # untimed: the array sweeps must cover N^2 pairs and N^3 triples
    n = 120
    cone = orthant(NormedSpace(3, "infinity"))
    rng = np.random.default_rng(5)
    labels = tuple(f"p{i:03d}" for i in range(n))
    positions = {l: rng.uniform(-1.0, 1.0, 2) for l in labels}
    space = ConeMetricSpace(cone, FinitePoints(labels, positions), LiftedMetric("euclidean", [1.0, 0.5, 2.0]))
    mapping = TableMapping({l: labels[0] for l in labels})
    coeffs = constant([a * np.eye(3) for a in (0.3, 0.1, 0.1, 0.05)], cone.space)
    axioms = check_metric_axioms(space)
    assert axioms.passed and axioms.route == "construction"
    assert axioms.pairs_checked == n * n and axioms.triples_checked == 0
    order = sorted(labels)
    table = TableMetric({(x, y): space.d(x, y) for x in order for y in order})
    axioms = check_metric_axioms(ConeMetricSpace(cone, FinitePoints(labels), table))
    assert axioms.passed and axioms.route == "sweep"
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
        coeffs = constant(random_quad(np.random.default_rng(2), orthant2_inf.space, 0.3), orthant2_inf.space)
        with pytest.raises(ContractViolationError, match="not defined at 'q2'"):
            check_hypotheses(space, mapping, coeffs)

    def test_image_indices_match_apply(self, orthant2_inf):
        space = random_space(np.random.default_rng(1), orthant2_inf, "discrete", 4)
        order = sorted(space.labels)
        mapping = TableMapping({x: order[(i * 3 + 1) % 4] for i, x in enumerate(order)})
        expected = [order.index(mapping.apply(space, x)) for x in order]
        assert space.image_indices(mapping).tolist() == expected
        # a missed lookup raises what apply raises, at the first label in order
        for table, message in [
            ({**mapping.table, "q1": "zz", "q3": "yy"}, "unknown point label 'zz'"),
            ({x: y for x, y in mapping.table.items() if x != "q2"}, "mapping table is not defined at 'q2'"),
        ]:
            with pytest.raises(ContractViolationError, match=f"^{message}$"):
                space.image_indices(TableMapping(table))

    def test_table_mapping_over_euclidean_domain(self, orthant2_inf):
        space = make_lifted_space(2, orthant2_inf, [1.0, 1.0])
        coeffs = constant([0.1 * np.eye(2)] * 4, orthant2_inf.space)
        with pytest.raises(ContractViolationError, match="^table mappings act on finite point sets only$"):
            check_hypotheses(space, TableMapping({"a": "a"}), coeffs, pair_source=("sampled", 3, 0))

    def test_missing_table_entry(self, orthant2_inf):
        # no sweep ever meets a missing pair: the space refuses the table
        entries = {("a", "b"): np.array([1.0, 1.0])}
        with pytest.raises(ContractViolationError, match=r"no entry for \(a, c\)$"):
            ConeMetricSpace(orthant2_inf, FinitePoints(("a", "b", "c")), TableMetric(entries))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_residual(self, orthant2_inf):
        points = FinitePoints(("a", "b"))
        with pytest.raises(ContractViolationError, match=r"d\(a, b\) has non-finite"):
            ConeMetricSpace(orthant2_inf, points, TableMetric({("a", "b"): [np.inf, 1.0]}))
        # finite distances whose residual overflows still raise in the sweep
        space = ConeMetricSpace(orthant2_inf, points, TableMetric({("a", "b"): [1.7e308, 1.0]}))
        mapping = TableMapping({"a": "a", "b": "a"})
        coeffs = constant([0.9 * np.eye(2)] * 4, orthant2_inf.space)
        with pytest.raises(ContractViolationError, match=r"residual at \(a, b\) has non-finite"):
            check_hypotheses(space, mapping, coeffs)


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


# ---------------------------------------------------------------------------
# The distance table of a finite space and the bound audit
# ---------------------------------------------------------------------------


def reference_d(space, x, y):
    """``d(x, y)`` computed from the metric alone, without the space's tables."""
    metric = space.metric
    if isinstance(metric, LiftedMetric):
        if metric.base == "discrete":
            same = x == y if space.is_finite else np.array_equal(x, y)
            rho = 0.0 if same else 1.0
        else:
            if space.is_finite:
                index, positions = space.points.index, space.points.positions
                x, y = positions[index[x]], positions[index[y]]
            rho = float(np.linalg.norm(x - y))
        return rho * metric.weight
    for key in ((x, y), (y, x)):
        if key in metric.entries:
            return metric.entries[key].copy()
    if x == y:
        return np.zeros(space.cone.space.dim)
    raise ContractViolationError(f"metric table has no entry for ({x}, {y})")


def outcome(fn, *args):
    """The bits of a result, or the error it raised, so outcomes compare with ==."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except ContractViolationError as exc:
        return str(exc)


TABLE_CONES = {
    **CONES,
    "orthant9_one": lambda: orthant(NormedSpace(9, "one")),
    "orthant3_weighted": lambda: orthant(NormedSpace(3, "weighted", (0.5, 2.0, 1.0))),
}


@pytest.mark.parametrize("metric", ["euclidean", "discrete", "table"])
@pytest.mark.parametrize("cone_name", sorted(TABLE_CONES))
def test_distance_lookups_match_per_pair_reference(metric, cone_name):
    missing = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        space = random_space(rng, TABLE_CONES[cone_name](), metric, int(rng.integers(2, 8)))
        labels = sorted(space.labels)
        pairs = [(x, y) for x in labels for y in labels]
        if metric == "table" and seed % 2:
            # drop some entries, so that some pairs have none either way round
            entries = {key: v for key, v in space.metric.entries.items() if rng.uniform() < 0.6}
            gaps = [(x, y) for x, y in pairs if x != y and not {(x, y), (y, x)} & entries.keys()]
            if gaps:
                missing += 1
                with pytest.raises(ContractViolationError, match=r"no entry for \(%s, %s\)$" % gaps[0]):
                    ConeMetricSpace(space.cone, FinitePoints(space.labels), TableMetric(entries))
                continue
            space = ConeMetricSpace(space.cone, FinitePoints(space.labels), TableMetric(entries))
        norm = space.cone.space.norm
        # lookups in a scrambled order
        for i in rng.permutation(len(pairs)):
            x, y = pairs[i]
            assert outcome(space.d, x, y) == outcome(reference_d, space, x, y), (seed, x, y)
            assert outcome(space.d_norm, x, y) == outcome(lambda: norm(reference_d(space, x, y)))
    if metric == "table":
        assert missing > 0


@pytest.mark.parametrize("base", ["euclidean", "discrete"])
@pytest.mark.parametrize("cone_name", sorted(TABLE_CONES))
def test_euclidean_domain_lookups_match_per_pair_reference(base, cone_name):
    rng = np.random.default_rng(len(cone_name))
    cone = TABLE_CONES[cone_name]()
    weight = rng.uniform(0.2, 2.0, cone.generators.shape[0]) @ cone.generators
    space = make_lifted_space(3, cone, weight, base=base)
    points = list(rng.uniform(-5.0, 5.0, (6, 3)))
    points[4] = points[1].copy()  # a repeated point
    points[5] = points[2] + [0.0, 0.0, 1e-12]  # a point one coordinate away
    norm = space.cone.space.norm
    a, b = (ix.ravel() for ix in np.indices((len(points), len(points))))
    expected = [norm(reference_d(space, points[i], points[j])) for i, j in zip(a, b)]
    for i, j, value in zip(a, b, expected):
        x, y = points[i], points[j]
        assert outcome(space.d, x, y) == outcome(reference_d, space, x, y)
        assert outcome(space.d_norm, x, y) == np.float64(value).tobytes()
    assert space._pair_norms(points, a, b).tobytes() == np.array(expected).tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_distances_raise_like_reference(orthant2_two):
    labels = ("a", "b", "c")
    huge = {("a", "b"): [1e200, 1e200], ("a", "c"): [np.inf, 1.0], ("b", "c"): [1.0, 1.0]}
    with pytest.raises(ContractViolationError, match=r"d\(a, c\) has non-finite entries$"):
        ConeMetricSpace(orthant2_two, FinitePoints(labels), TableMetric(huge))
    far = {"a": [1e308], "b": [-1e308], "c": [0.0]}  # b - a overflows
    with pytest.raises(ContractViolationError, match=r"d\(a, b\) has non-finite entries$"):
        ConeMetricSpace(orthant2_two, FinitePoints(labels, far), LiftedMetric("euclidean", [1.0, 1.0]))
    huge[("a", "c")] = [3.0, 4.0]
    space = ConeMetricSpace(orthant2_two, FinitePoints(labels), TableMetric(huge))
    assert space.d_norm("a", "b") == np.inf  # a finite vector whose norm overflows
    assert space.d_norm("c", "a") == 5.0
    assert space.d_norm("b", "c") == orthant2_two.space.norm([1.0, 1.0])
    norms = space._pair_norms(["a", "b", "c"], [0, 1, 2], [1, 2, 0])
    assert norms.tolist() == [np.inf, space.d_norm("b", "c"), 5.0]


@pytest.mark.filterwarnings("ignore:overflow")
def test_lift_that_overflows_is_refused(orthant2_two):
    # every rho is finite, but rho * w overflows at the pairs with c
    positions = {"a": [0.0], "b": [1.0], "c": [1e300], "d": [2.0]}
    with pytest.raises(ContractViolationError, match=r"^distance d\(a, c\) has non-finite entries$"):
        ConeMetricSpace(orthant2_two, FinitePoints(tuple("dcba"), positions), LiftedMetric("euclidean", [1e10, 1.0]))


def test_positions_are_one_array_in_sorted_order():
    points = FinitePoints(("c", "a", "b"), {"b": [1.0, 2.0], "c": np.array([3.0, 4.0]), "a": (5.0, 6.0)})
    assert points.positions.tolist() == [[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]]
    # numbers are points of R^1, alone or among 1-vectors
    for given in ({"a": 1.0, "b": 2.0}, {"a": [1.0], "b": 2.0}):
        assert FinitePoints(("b", "a"), given).positions.tolist() == [[1.0], [2.0]]
    for given, message in [
        ({"a": [1.0]}, r"^positions missing for labels \['b'\]$"),
        ({"a": [1.0], "b": [2.0], "zz": [3.0]}, r"^positions given for unknown labels \['zz'\]$"),
        ({"a": [1.0], "b": [2.0, 3.0]}, "^positions must be vectors of one common dimension$"),
        ({"a": 1.0, "b": [2.0, 3.0]}, "^positions must be vectors of one common dimension$"),
        ({"a": [[1.0]], "b": [[2.0]]}, "^positions must be vectors of one common dimension$"),
    ]:
        with pytest.raises(ContractViolationError, match=message):
            FinitePoints(("a", "b"), given)


@pytest.mark.parametrize("chunk", [1, 200, 800, contraction.CHUNK_ELEMENTS])
def test_rho_table_matches_per_pair_norms(chunk, orthant3_inf, monkeypatch):
    # small chunks split the table into blocks of 1, 2 or 8 rows, so that
    # most entries come from the mirror image of an earlier block
    monkeypatch.setattr(contraction, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(5)
    labels = tuple(f"q{i:02d}" for i in rng.permutation(25))
    coords = rng.uniform(-3.0, 3.0, (25, 4)) * 10.0 ** rng.integers(-3, 4, (25, 1))
    coords[7] = coords[3]  # a repeated point
    positions = dict(zip(labels, coords))
    w = [1.0, 0.3, 2.5]
    space = ConeMetricSpace(orthant3_inf, FinitePoints(labels, positions), LiftedMetric("euclidean", w))
    order = space.points.order
    expected = np.array([[np.linalg.norm(positions[x] - positions[y]) for y in order] for x in order])
    table, weight = space.distance_factors()
    assert table.shape == (25, 25, 1) and weight.tolist() == [[v] for v in w]
    assert table[..., 0].tobytes() == expected.tobytes()
    assert space.distance_tensor().tobytes() == (expected[:, :, None] * np.array(w)).tobytes()


def test_cached_tables_are_read_only(orthant3_inf):
    space = random_space(np.random.default_rng(4), orthant3_inf, "euclidean", 5)
    dist, norms = space.distance_tensor(), space.norm_table()
    for table in (dist, norms):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert space.distance_tensor() is dist and space.norm_table() is norms
    x, y = sorted(space.labels)[:2]
    vector = space.d(x, y)
    vector[:] = -1.0  # a caller's copy, not the table
    assert np.array_equal(space.d(x, y), dist[0, 1])
    assert norms.shape == dist.shape[:2]


class TestMissingTableEntries:
    """A table that gives some pair of distinct labels in neither order is refused."""

    def space(self, cone, entries):
        return ConeMetricSpace(cone, FinitePoints(("c", "b", "a")), TableMetric(entries))

    def test_lookups_name_the_pair_asked_for(self, orthant2_inf):
        # each pair given one way round is enough; lookups read it either way
        entries = {("a", "b"): [1.0, 2.0], ("c", "a"): [3.0, 0.0], ("b", "c"): [0.0, 1.0]}
        space = self.space(orthant2_inf, entries)
        assert space.d_norm("b", "a") == 2.0
        assert np.array_equal(space.d("b", "a"), [1.0, 2.0])
        assert np.array_equal(space.d("a", "c"), [3.0, 0.0])
        assert np.array_equal(space.d("c", "c"), [0.0, 0.0])
        with pytest.raises(ContractViolationError, match=r"no entry for \(b, c\)$"):
            self.space(orthant2_inf, {("a", "b"): [1.0, 2.0], ("c", "a"): [3.0, 0.0]})

    def test_whole_table_names_first_missing_pair(self, orthant2_inf):
        order = ("a", "b", "c")
        full = {(x, y): [1.0, 1.0] for x in order for y in order if x != y}
        for gap in [("a", "b"), ("a", "c"), ("b", "c")]:
            entries = {key: v for key, v in full.items() if set(key) != set(gap)}
            with pytest.raises(ContractViolationError, match=r"no entry for \(%s, %s\)$" % gap):
                self.space(orthant2_inf, entries)
        # with two pairs missing, the first in canonical order is named
        with pytest.raises(ContractViolationError, match=r"no entry for \(a, c\)$"):
            self.space(orthant2_inf, {("a", "b"): [1.0, 2.0]})

    def test_solve_on_known_entries_succeeds(self, orthant2_inf):
        mapping = TableMapping({"a": "a", "b": "a", "c": "a"})
        entries = {("a", "b"): [1.0, 2.0]}
        with pytest.raises(ContractViolationError, match=r"no entry for \(a, c\)$"):
            self.space(orthant2_inf, entries)
        # with every pair known, solving works from every start, c included
        entries.update({("c", "a"): [2.0, 2.0], ("b", "c"): [1.0, 1.0]})
        space = self.space(orthant2_inf, entries)
        for start in ("a", "b", "c"):
            result = picard_solve(space, mapping, 1.0, 0.5, start, 1e-9)
            assert result.point == "a"
            assert verify_proof_bounds(space, result.trace, 1.0, 0.5).passed


class TestTableLimit:
    """A finite space whose distance table would exceed the limit is refused."""

    def test_oversized_space_is_refused(self, orthant3_inf, monkeypatch):
        inst = generate_certified_instance(3, 4, orthant3_inf)  # 4 x 4 x 3 = 48 entries
        x, y = sorted(inst.space.labels)[:2]
        parts = inst.space.cone, inst.space.points, inst.space.metric
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 47)
        with pytest.raises(ContractViolationError, match=r"too large .*\(4x4x3 "):
            ConeMetricSpace(*parts)
        make_lifted_space(2, orthant3_inf, [1.0, 1.0, 1.0])  # a euclidean domain has no table
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 48)
        space = ConeMetricSpace(*parts)
        assert np.array_equal(space.d(x, y), reference_d(space, x, y))
        assert space.d_norm(x, y) == orthant3_inf.space.norm(reference_d(space, x, y))
        check_hypotheses(space, inst.mapping, inst.coeffs, pair_source=("sampled", 5, 0))
        assert check_hypotheses(space, inst.mapping, inst.coeffs).passed

    def test_oversized_sample_is_refused(self, orthant3_inf, monkeypatch):
        # 5 pairs: 5 x 2 x 2 = 20 coordinates on R^2, 5 x 3 = 15 residual entries
        space = make_lifted_space(2, orthant3_inf, [1.0, 1.0, 1.0])
        mapping = AffineMapping(0.5 * np.eye(2), [1.0, 0.0])
        coeffs = constant([0.1 * np.eye(3)] * 4, orthant3_inf.space)
        inst = generate_certified_instance(3, 4, orthant3_inf)
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 19)
        with pytest.raises(ContractViolationError, match=r"^sample of 5 pairs is too large .*limit 19\)$"):
            check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 5, 0))
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 20)
        assert check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 5, 0)).pairs_checked == 5
        # on a finite space the residuals are the larger: 5 x 2 positions, 5 x 3 entries
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 14)
        with pytest.raises(ContractViolationError, match=r"5x2x1 points, 5x3 residuals, limit 14"):
            check_hypotheses(inst.space, inst.mapping, inst.coeffs, pair_source=("sampled", 5, 0))

    def test_oversized_coefficient_stack_is_refused(self, orthant2_inf, monkeypatch):
        # 10 pairs of R^1: 10 x 2 x 1 coordinates and 10 x 2 residual entries
        # fit a limit of 20, the 10 x 4 x 2 x 2 quadruples do not
        space = make_lifted_space(1, orthant2_inf, [1.0, 1.0])
        mapping = AffineMapping([[0.5]], [0.0])
        calls = []
        coeffs = CallableCoefficients(lambda x, y: calls.append((x, y)) or np.zeros((4, 2, 2)))
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 20)
        with pytest.raises(ContractViolationError, match=r"^coefficients of 10 pairs are too large \(10x4x2x2 entries, limit 20\)$"):
            check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 10, 0))
        assert not calls
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 160)
        assert check_hypotheses(space, mapping, coeffs, pair_source=("sampled", 10, 0)).pairs_checked == 10
        assert len(calls) == 10

    def test_oversized_sample_cli_exits_2(self, monkeypatch):
        # banach_scalar.json samples 200 pairs of R^1 into a 2-D cone: 400 entries each
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 399)
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        for command in ("check", "solve"):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main([command, "problems/banach_scalar.json", "--output", "machine"])
            assert code == 2
            assert "error=sample of 200 pairs is too large" in out.getvalue()

    def test_cli_exits_2(self, monkeypatch):
        monkeypatch.setattr(contraction, "TABLE_MAX_ELEMENTS", 1)
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        for argv in (["check"], ["solve"], ["validate"]):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main([*argv, "problems/finite_ladder.json", "--output", "machine"])
            assert code == 2
            assert "too large for its distance table" in out.getvalue()


def reference_audit(space, trace, k, beta, max_gap=10):
    """The per-pair audit loop: check counts and every violation as a tuple."""
    if len(trace.points) < 2:
        return 0, 0, []
    norm = space.cone.space.norm
    d01 = trace.step_norms[0]
    slack = 1.0 + BOUND_AUDIT_RTOL
    steps, gaps, violations = 0, 0, []
    for n, step in enumerate(trace.step_norms):
        steps += 1
        rhs = k * beta**n * d01
        if step > rhs * slack:
            violations.append(("step", n, 1, step, rhs))
    last = len(trace.points) - 1
    for n in range(last):
        for p in range(1, min(max_gap, last - n) + 1):
            gaps += 1
            lhs = norm(reference_d(space, trace.points[n], trace.points[n + p]))
            rhs = tail_bound(k, beta, d01, n)
            if lhs > rhs * slack:
                violations.append(("gap", n, p, lhs, rhs))
    return steps, gaps, violations


def audit_fields(audit):
    violations = [(v.kind, v.n, v.p, v.lhs, v.rhs) for v in audit.violations]
    assert all(type(v.n) is int and type(v.lhs) is float for v in audit.violations)
    return audit.step_checks, audit.gap_checks, violations


def finite_traces():
    for seed in range(6):
        cone = list(CONES.values())[seed % len(CONES)]()
        inst = generate_certified_instance(seed, 4 + seed, cone)
        beta = inst.certification.beta
        (fixed,) = [x for x, y in inst.mapping.table.items() if x == y]
        start = max(sorted(inst.space.labels), key=lambda x: inst.space.d_norm(x, fixed))
        trace = picard_solve(inst.space, inst.mapping, None, beta, start, 1e-12).trace
        yield inst.space, trace, inst.k, beta
    # a wandering trace over a discrete space, revisiting points
    cone = orthant(NormedSpace(2, "one"))
    space = random_space(np.random.default_rng(9), cone, "discrete", 4)
    points = [sorted(space.labels)[i] for i in (3, 1, 3, 0, 0, 2, 1, 1, 0)]
    steps = [space.d_norm(x, y) for x, y in zip(points, points[1:])]
    yield space, IterationTrace(points, steps), 1.0, 0.6


def euclidean_traces():
    for seed, base in enumerate(("euclidean", "discrete", "euclidean")):
        rng = np.random.default_rng(seed)
        cone = list(CONES.values())[seed % len(CONES)]()
        m = 2
        w = rng.uniform(0.2, 2.0, cone.generators.shape[0]) @ cone.generators
        space = make_lifted_space(m, cone, w, base=base)
        mapping = AffineMapping(0.4 * np.linalg.qr(rng.normal(size=(m, m)))[0], rng.uniform(-1, 1, m))
        points = [rng.uniform(-5.0, 5.0, m)]
        for _ in range(30):
            points.append(mapping.apply(space, points[-1]))
        points[7:7] = [points[6]]  # a repeated point: a zero step
        steps = [space.d_norm(x, y) for x, y in zip(points, points[1:])]
        yield space, IterationTrace(points, steps), 1.0, 0.45


@pytest.mark.parametrize("domain", ["finite", "euclidean"])
def test_audit_matches_per_pair_reference(domain, monkeypatch):
    traces = finite_traces() if domain == "finite" else euclidean_traces()
    failing = 0
    for space, trace, k, beta in traces:
        for audit_beta in (beta, 0.3 * beta):  # the second is too small
            for max_gap in (0, 1, 3, 10, 50):
                expected = reference_audit(space, trace, k, audit_beta, max_gap)
                got = verify_proof_bounds(space, trace, k, audit_beta, max_gap=max_gap)
                assert audit_fields(got) == expected
                failing += bool(expected[2])
            # blocks of rows smaller than the trace still list gaps in (n, p) order
            monkeypatch.setattr(solver, "AUDIT_BLOCK_PAIRS", 7)
            expected = reference_audit(space, trace, k, audit_beta, 4)
            assert audit_fields(verify_proof_bounds(space, trace, k, audit_beta, max_gap=4)) == expected
            monkeypatch.undo()
    assert failing > 0


def test_distance_tensor_built_once_per_space(monkeypatch):
    built = []
    build = ConeMetricSpace._build_distances

    def counting(space):
        built.append(space)
        return build(space)

    monkeypatch.setattr(ConeMetricSpace, "_build_distances", counting)
    argv = ["solve", "problems/finite_ladder.json", "--audit-gap", "10", "--output", "machine"]
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # check, solve and audit
    assert len(built) == 1

    built.clear()
    inst = generate_certified_instance(7, 9, orthant(NormedSpace(3, "infinity")))
    result = picard_solve(inst.space, inst.mapping, None, inst.certification.beta, "p00", 1e-10)
    verify_proof_bounds(inst.space, result.trace, inst.k, inst.certification.beta)
    assert inst.space in built
    assert len(built) == len(set(map(id, built)))


# ---------------------------------------------------------------------------
# The fast facet products of the exhaustive sweep and their rounding band
# ---------------------------------------------------------------------------


def rescaled(space, scale):
    """The same space with every distance multiplied by ``scale``."""
    metric = space.metric
    if isinstance(metric, LiftedMetric):
        metric = LiftedMetric(metric.base, metric.weight * scale)
    else:
        metric = TableMetric({key: v * scale for key, v in metric.entries.items()})
    return ConeMetricSpace(space.cone, space.points, metric)


def reference_products(space, mapping, coeffs):
    """Facet products of every residual, pair by pair in canonical order, shape (N * N, m)."""
    labels = sorted(space.labels)
    return np.array([
        space.cone.facets @ contraction_residual(space, mapping, coeffs, x, y)
        for x in labels
        for y in labels
    ])


@pytest.mark.parametrize("metric,family,failing", CASES)
def test_fast_products_match_per_pair_reference(metric, family, failing, monkeypatch):
    # the instances of test_sweep_matches_per_pair_reference, every one of
    # them through the fast products
    monkeypatch.setattr(contraction, "FAST_MIN_PAIRS", 0)
    for seed in range(10):
        space, mapping, coeffs = random_instance(seed, metric, family, failing)
        report = check_hypotheses(space, mapping, coeffs, tol=TOL)
        assert report_fields(report) == reference_report(space, mapping, coeffs), f"seed {seed}"


@st.composite
def banded_instances(draw, families=("constant", "per_pair"), metrics=("euclidean", "discrete", "table"),
                     sizes=None):
    """A random finite instance at a drawn distance scale, and a tolerance
    a few ulps from one of its facet products, so that pairs land inside the
    band of the fast products.  ``sizes`` bounds the number of points, one to
    eight by default."""
    seed = draw(st.integers(0, 2**20))
    metric = draw(st.sampled_from(metrics))
    family = draw(st.sampled_from(families))
    failing = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(-12, 12))
    n = None if sizes is None else draw(st.integers(*sizes))
    space, mapping, coeffs = random_instance(seed, metric, family, failing, n)
    space = rescaled(space, scale)
    products = reference_products(space, mapping, coeffs)
    # tolerances are nonnegative: aim at a negative worst product of a
    # pair, or at zero ones
    worst = products.min(axis=-1)
    negative = worst[worst < 0.0]
    tol = -float(negative[draw(st.integers(0, 2**20)) % negative.size]) if negative.size else 0.0
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        tol = float(np.nextafter(tol, np.copysign(np.inf, ulps)))
    return space, mapping, coeffs, max(tol, 0.0), products


@settings(max_examples=80, deadline=None)
@given(banded_instances())
def test_filtered_sweep_matches_reference_inside_the_band(instance):
    # every space takes the fast products, however few its pairs
    space, mapping, coeffs, tol, _ = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "FAST_MIN_PAIRS", 0)
        report = check_hypotheses(space, mapping, coeffs, tol=tol)
    assert report_fields(report) == reference_report(space, mapping, coeffs, tol=tol)


def assert_band_holds(space, mapping, coeffs, products):
    t = space.image_indices(mapping)
    quad = coeffs.at(None, None)
    fast, band = contraction._facet_products(*space.distance_factors(), t, quad, space.cone.facets)
    assert fast.shape == products.T.shape
    assert (np.abs(fast - products.T) <= band[:, None]).all()


@settings(max_examples=80, deadline=None)
@given(banded_instances(families=("constant",)))
def test_band_bounds_fast_products(instance):
    # the fast products serve constant families only
    space, mapping, coeffs, _, products = instance
    assert_band_holds(space, mapping, coeffs, products)


#: Point counts whose spaces have at least FAST_MIN_PAIRS pairs.
FAST_SIZES = (10, 14)


@settings(max_examples=40, deadline=None)
@given(banded_instances(families=("constant",), metrics=("euclidean", "discrete"), sizes=FAST_SIZES))
def test_lifted_fast_sweep_matches_reference(instance):
    # lifted spaces large enough for the fast products, unpatched: they
    # sweep on the scalar table rho
    space, mapping, coeffs, tol, _ = instance
    assert len(space.labels) ** 2 >= contraction.FAST_MIN_PAIRS
    assert space.distance_factors()[0].shape[-1] == 1
    report = check_hypotheses(space, mapping, coeffs, tol=tol)
    assert report_fields(report) == reference_report(space, mapping, coeffs, tol=tol)


@settings(max_examples=40, deadline=None)
@given(banded_instances(families=("constant",), sizes=FAST_SIZES))
def test_band_bounds_fast_products_of_large_spaces(instance):
    # lifted and table spaces
    assert_band_holds(*instance[:3], instance[4])


def counting_reference_kernel(monkeypatch):
    """Patch the residual kernel of every sweep; the list collects its pair counts."""
    counted = []
    kernel = contraction._residuals

    def counting(space, x, y, tx, ty, quads):
        counted.append(len(x))
        return kernel(space, x, y, tx, ty, quads)

    monkeypatch.setattr(contraction, "_residuals", counting)
    return counted


def undecided_pairs(space, mapping, coeffs, tol):
    """Pairs whose fast products lie inside the band around ``-tol``."""
    t = space.image_indices(mapping)
    fast, band = contraction._facet_products(
        *space.distance_factors(), t, coeffs.at(None, None), space.cone.facets
    )
    passes = (fast.T >= np.nextafter(-tol + band, np.inf)).all(axis=-1)
    fails = (fast.T < np.nextafter(-tol - band, -np.inf)).any(axis=-1)
    return int((~passes & ~fails).sum())


def test_reference_kernel_pair_count(monkeypatch):
    counted = counting_reference_kernel(monkeypatch)
    for seed, cone in enumerate(CONES.values()):
        inst = generate_certified_instance(seed, 30, cone())
        counted.clear()
        report = check_hypotheses(inst.space, inst.mapping, inst.coeffs, k=inst.k)
        assert report.passed
        assert counted == []  # a certified ladder is decided by the fast products alone

    # a failing instance: the witnesses, and the pairs inside the band
    cone = orthant(NormedSpace(3, "infinity"))
    rng = np.random.default_rng(11)
    space = random_space(rng, cone, "euclidean", 12)
    order = sorted(space.labels)
    mapping = TableMapping({x: order[-1 - i] for i, x in enumerate(order)})
    coeffs = random_coeffs(rng, cone.space, "constant", space.labels)
    products = reference_products(space, mapping, coeffs)
    # the second tolerance puts a pair's worst product on the boundary
    worst = products.min(axis=-1)
    negative = np.sort(worst[worst < 0.0])
    for tol in (TOL, -float(negative[negative.size // 2])):
        counted.clear()
        report = check_hypotheses(space, mapping, coeffs, tol=tol)
        assert report_fields(report) == reference_report(space, mapping, coeffs, tol=tol)
        assert not report.conditions["contraction"]
        undecided = undecided_pairs(space, mapping, coeffs, tol)
        assert 0 < sum(counted) <= undecided + MAX_WITNESSES
        if tol != TOL:
            assert undecided > 0

    # a per-pair family takes the reference kernel on every pair at once
    coeffs = random_coeffs(rng, cone.space, "per_pair", space.labels)
    counted.clear()
    check_hypotheses(space, mapping, coeffs)
    assert counted[0] == len(order) ** 2


def test_overflow_guard(orthant2_inf):
    labels = tuple(f"q{i:02d}" for i in range(12))  # enough pairs for the fast products
    mapping = TableMapping({x: labels[0] for x in labels})
    # distances near 1e300 whose residuals overflow: the reference kernel
    # runs on every pair and names the first non-finite one
    space = ConeMetricSpace(
        orthant2_inf, FinitePoints(labels), LiftedMetric("discrete", [1e300, 1.0])
    )
    coeffs = constant([1e9 * np.eye(2)] * 4, orthant2_inf.space)
    with np.errstate(over="ignore"):
        first = next(
            (x, y)
            for x in labels
            for y in labels
            if not np.isfinite(contraction_residual(space, mapping, coeffs, x, y)).all()
        )
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(
            ContractViolationError,
            match=r"^contraction residual at \(%s, %s\) has non-finite entries$" % first,
        ):
            check_hypotheses(space, mapping, coeffs)
    # distances past the band's scale limit whose residuals stay finite:
    # every pair goes through the reference kernel, without a warning
    space = ConeMetricSpace(
        orthant2_inf, FinitePoints(labels), LiftedMetric("discrete", [1e302, 1.0])
    )
    coeffs = constant([a * np.eye(2) for a in (0.3, 0.1, 0.1, 0.05)], orthant2_inf.space)
    assert contraction._facet_products(
        *space.distance_factors(), space.image_indices(mapping), coeffs.at(None, None), orthant2_inf.facets
    ) is None
    report = check_hypotheses(space, mapping, coeffs)
    assert report.passed
    assert report_fields(report) == reference_report(space, mapping, coeffs)
