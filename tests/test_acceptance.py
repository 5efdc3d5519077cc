"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured-output section).  Run the whole suite with

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conefix import (
    AffineMapping,
    ConstantCoefficients,
    ContractViolationError,
    LinearOperator,
    NormedSpace,
    PolyhedralCone,
    ProbeReport,
    TableMapping,
    a_priori_iterations,
    brute_force_fixed_points,
    check_hypotheses,
    generate_certified_instance,
    make_finite_lifted_space,
    make_lifted_space,
    make_scalar_space,
    normal_constant_lower_bound,
    orthant,
    picard_solve,
    skewed_cone_2d,
    tail_bound,
    uniqueness_probe,
    verify_proof_bounds,
)
from conefix.cli import main as cli_main
from golden.regen import CASES as GOLDEN_CASES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


def _acceptance_cones():
    return [
        orthant(NormedSpace(2, "infinity")),
        orthant(NormedSpace(3, "infinity")),
        skewed_cone_2d(1.6),
    ]


@pytest.fixture(scope="module")
def certified_batch():
    """200 certified instances (seeds 1-200, sizes 2-12, three cones), solved.

    Returns the per-instance records plus the wall-clock seconds the whole
    generate/solve/enumerate loop took.
    """
    cones = _acceptance_cones()
    records = []
    t0 = time.perf_counter()
    for seed in range(1, 201):
        size = 2 + (seed - 1) % 11
        cone = cones[seed % 3]
        inst = generate_certified_instance(seed, size, cone)
        report = inst.certification
        fixed = brute_force_fixed_points(inst)
        start = max(sorted(inst.space.labels), key=lambda l: inst.space.d_norm(l, fixed[0]))
        result = picard_solve(
            inst.space, inst.mapping, None, report.beta, start, 1e-10, beta_source="witnessed"
        )
        records.append((inst, report, fixed, result))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_theorem_reproduction(certified_batch):
    records, elapsed = certified_batch
    with criterion(1, "solver matches the brute-force oracle on 200 certified instances"):
        assert len(records) == 200
        for inst, report, fixed, result in records:
            assert report.passed and report.exhaustive
            assert len(fixed) == 1
            assert inst.space.d_norm(result.point, fixed[0]) <= 1e-8
        assert elapsed < 10.0, f"batch took {elapsed:.2f}s (target < 10s)"


def _affine_instances():
    rng = np.random.default_rng(99)
    cone = orthant(NormedSpace(2, "two"))
    out = []
    for _ in range(50):
        s = rng.uniform(0.3, 0.85)
        th = rng.uniform(0.0, 2.0 * np.pi)
        b = s * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        c = rng.uniform(-3.0, 3.0, 2)
        w = rng.uniform(0.3, 2.0, 2)
        space = make_lifted_space(2, cone, w)
        mapping = AffineMapping(b, c)
        q = min(0.88, 1.02 * s)
        sp = cone.space
        zero = LinearOperator(np.zeros((2, 2)), sp)
        coeffs = ConstantCoefficients(LinearOperator(q * np.eye(2), sp), zero, zero, zero)
        x0 = rng.uniform(-8.0, 8.0, 2)
        out.append((space, mapping, coeffs, q, x0))
    return out


def test_criterion_2_proof_bound_audit(certified_batch):
    records, _ = certified_batch
    with criterion(2, "zero step/gap bound violations on finite and affine instances"):
        for inst, report, _, result in records:
            audit = verify_proof_bounds(
                inst.space, result.trace, report.k, report.beta, max_gap=10
            )
            assert audit.passed, audit.violations[:3]
        for space, mapping, coeffs, q, x0 in _affine_instances():
            sampled = check_hypotheses(
                space, mapping, coeffs, k=1.0, pair_source=("sampled", 60, 5)
            )
            assert sampled.passed
            result = picard_solve(space, mapping, 1.0, q, x0, 1e-8)
            audit = verify_proof_bounds(space, result.trace, 1.0, q, max_gap=10)
            assert audit.passed, audit.violations[:3]


def test_criterion_3_certificate_sharpness():
    with criterion(3, "a-priori count is exactly 21 and the residual at it meets eps"):
        assert a_priori_iterations(1.0, 0.5, 1.0, 1e-6) == 21
        # the bound is strictly above eps one step earlier
        assert tail_bound(1.0, 0.5, 1.0, 20) > 1e-6
        assert tail_bound(1.0, 0.5, 1.0, 21) <= 1e-6
        space = make_scalar_space()
        mapping = AffineMapping([[0.5]], [1.0])
        result = picard_solve(space, mapping, 1.0, 0.5, [0.0], 1e-6)
        assert result.certificate.d01_norm == 1.0
        assert result.certificate.n_planned == 21
        assert result.iterations_used == 21
        assert result.residual_norm <= 1e-6


def test_criterion_4_corollary_equivalence():
    from conefix import verify_corollary_equivalence

    with criterion(4, "scalar reduction matches both closed forms on 1000 quadruples"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a1, a2 = rng.uniform(0.0, 1.0, 2)
            a3, a4 = rng.uniform(0.0, 1.0, 2)
            s = a3 + a4
            if s > 0.95:
                a3 *= 0.95 / s
                a4 *= 0.95 / s
            report = verify_corollary_equivalence(a1, a2, a3, a4)
            assert report.alpha_match, (a1, a2, a3, a4)
            assert report.beta_match, (a1, a2, a3, a4)


def test_criterion_5_uniqueness(certified_batch):
    records, _ = certified_batch
    with criterion(5, "multi-start agreement on certified instances; identity map fails"):
        for inst, report, _, _ in records:
            labels = sorted(inst.space.labels)
            seeds = [labels[i % len(labels)] for i in range(5)]
            assert uniqueness_probe(
                inst.space, inst.mapping, None, report.beta, seeds, 1e-10
            )
        cone = orthant(NormedSpace(2, "infinity"))
        space = make_finite_lifted_space(("a", "b"), {"a": [0.0], "b": [1.0]}, cone, [1.0, 1.0])
        identity = TableMapping({"a": "a", "b": "b"})
        from conefix.testbed import FiniteInstance

        zero = LinearOperator(np.zeros((2, 2)), cone.space)
        inst = FiniteInstance(
            space, identity, ConstantCoefficients(LinearOperator(0.5 * np.eye(2), cone.space), zero, zero, zero)
        )
        assert len(brute_force_fixed_points(inst)) == 2
        assert not uniqueness_probe(space, identity, 1.0, 0.5, ["a", "b"], 1e-8)


# ---------------------------------------------------------------------------
# criterion 6: one handcrafted violation per condition, plus repairs
# ---------------------------------------------------------------------------


def _base_space():
    cone = orthant(NormedSpace(2, "infinity"))
    space = make_finite_lifted_space(("a", "b"), {"a": [0.0], "b": [1.0]}, cone, [1.0, 1.0])
    return space, TableMapping({"a": "a", "b": "a"}), cone.space


def _quad(sp, m1, m2, m3, m4):
    mats = [np.asarray(m, dtype=float) * np.eye(2) if np.isscalar(m) else np.asarray(m, dtype=float) for m in (m1, m2, m3, m4)]
    return ConstantCoefficients(*(LinearOperator(m, sp) for m in mats))


def _violation_cases(sp):
    zero = np.zeros((2, 2))
    return {
        # condition -> (k, broken quad, repaired quad, expected failing set)
        "i1": (
            2.0,
            _quad(sp, 0.55, 0.0, 0.05, 0.0),
            _quad(sp, 0.40, 0.0, 0.05, 0.0),
            {"i1"},
        ),
        # a composite norm at or above 1 forces the coefficient sum to 1 or
        # more, so the sum condition necessarily fails alongside it
        "i2": (
            1.0,
            _quad(sp, 0.6, 0.0, 0.5, 0.0),
            _quad(sp, 0.3, 0.0, 0.3, 0.0),
            {"i1", "i2"},
        ),
        "i3": (
            1.0,
            _quad(sp, [[0.2, -0.05], [0.0, 0.2]], 0.05, 0.0, 0.0),
            _quad(sp, 0.2, 0.05, 0.0, 0.0),
            {"i3"},
        ),
        "hb": (
            1.0,
            _quad(sp, [[0.1, 0.05], [0.0, 0.1]], [[0.1, -0.05], [0.0, 0.1]], 0.0, 0.0),
            _quad(sp, [[0.1, 0.05], [0.0, 0.1]], 0.1, 0.0, 0.0),
            {"hb"},
        ),
        "i4": (
            1.0,
            _quad(sp, 0.2, 0.0, [[0.1, 0.0], [0.15, 0.1]], [[0.0, 0.0], [-0.1, 0.0]]),
            _quad(sp, 0.2, 0.0, [[0.1, 0.0], [0.15, 0.1]], [[0.0, 0.0], [0.1, 0.0]]),
            {"i4"},
        ),
        "i5": (
            1.0,
            _quad(sp, 0.2, [[0.0, 0.0], [0.15, 0.0]], [[0.2, 0.0], [-0.3, 0.2]], 0.0),
            _quad(sp, 0.2, [[0.0, 0.0], [0.15, 0.0]], [[0.2, 0.0], [0.3, 0.2]], 0.0),
            {"i5"},
        ),
    }


def test_criterion_6_checker_soundness():
    with criterion(6, "each handcrafted violation trips its condition; repairs pass"):
        space, mapping, sp = _base_space()
        for name, (k, broken, repaired, expected) in _violation_cases(sp).items():
            report = check_hypotheses(space, mapping, broken, k=k)
            assert set(report.failing_conditions()) == expected, (
                name,
                report.failing_conditions(),
            )
            assert any(w.condition == name for w in report.witnesses), name
            fixed = check_hypotheses(space, mapping, repaired, k=k)
            assert fixed.passed, (name, fixed.failing_conditions())


def test_criterion_7_normal_constant_audit():
    with criterion(7, "orthant audits report 1.0 and sub-1 declarations are rejected"):
        for kind in ("one", "two", "infinity"):
            cone = orthant(NormedSpace(2, kind))
            bound = normal_constant_lower_bound(cone, n_samples=512, seed=0)
            assert abs(bound - 1.0) <= 1e-12, (kind, bound)
        with pytest.raises(ContractViolationError):
            PolyhedralCone(NormedSpace(2, "two"), np.eye(2), np.eye(2), normal_constant=0.5)


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_criterion_8_cli_determinism(monkeypatch):
    with criterion(8, "check and solve reports are byte-identical and match the goldens"):
        monkeypatch.chdir(REPO_ROOT)
        cases = {name: argv for name, argv in GOLDEN_CASES.items() if argv[0] in ("check", "solve")}
        for name, argv in cases.items():
            code1, out1 = _run_cli(argv)
            code2, out2 = _run_cli(argv)
            assert code1 == 0 and code2 == 0
            assert out1 == out2
            assert out1 == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name


def test_criterion_9_open_problem_probe():
    with criterion(9, "probe is deterministic, labeled EXPERIMENTAL, and schema-valid"):
        argv = [
            "probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9",
            "--instances", "25", "--seed", "3", "--output", "machine",
        ]
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        for i in range(25):
            assert f"row.{i}.label=EXPERIMENTAL" in out1
        from conefix import probe_open_problem

        report = probe_open_problem(3, 2.0, 0.5, 0.9, 25)
        restored = ProbeReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.equals(report)
        assert len(report.rows) == 25
        assert all(row.experimental for row in report.rows)
