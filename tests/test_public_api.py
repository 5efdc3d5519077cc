"""The public surface of conefix, pinned so that every change to it shows in a diff."""

import ast
import types
from pathlib import Path

import conefix

SOURCE_DIR = Path(conefix.__file__).resolve().parent

PUBLIC_NAMES = [
    "AffineMapping",
    "BoundAudit",
    "CallableCoefficients",
    "ConeMetricSpace",
    "ConefixError",
    "ConstantCoefficients",
    "ContractViolationError",
    "ConvergenceCertificate",
    "CorollaryReport",
    "DEFAULT_MEMBERSHIP_TOL",
    "EuclideanPoints",
    "FiniteInstance",
    "FinitePoints",
    "FixedPointResult",
    "GenerationError",
    "HypothesisFailureError",
    "HypothesisReport",
    "IterationTrace",
    "LiftedMetric",
    "LinearOperator",
    "MetricAxiomReport",
    "NonConvergenceError",
    "NormedSpace",
    "NumericError",
    "PerPairCoefficients",
    "PolyhedralCone",
    "ProbeReport",
    "ProbeRow",
    "ProblemFileError",
    "TableMapping",
    "TableMetric",
    "ValidationReport",
    "Witness",
    "a_priori_iterations",
    "brute_force_fixed_points",
    "check_declared_normal_constant",
    "check_hypotheses",
    "check_metric_axioms",
    "cone_members",
    "generate_certified_instance",
    "induced_norm",
    "invariance_check",
    "make_finite_lifted_space",
    "make_lifted_space",
    "make_scalar_space",
    "normal_constant_lower_bound",
    "orthant",
    "picard_solve",
    "probe_open_problem",
    "reduce_scalar",
    "resolvent_stack",
    "skewed_cone_2d",
    "tail_bound",
    "uniqueness_probe",
    "validate_cone",
    "verify_corollary_equivalence",
    "verify_proof_bounds",
]


def test_public_names_are_pinned():
    # submodules become attributes of the package once imported, so they are left out
    names = sorted(
        name for name, value in vars(conefix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def unused_imports(tree):
    """The names that the module-level imports of ``tree`` bind and that no expression reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_module_level_import_is_used():
    modules = sorted(p for p in SOURCE_DIR.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {
        path.name: found
        for path in modules
        if (found := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
