"""Fixed points on cone metric spaces with checked hypotheses and certified bounds."""

from .cones import (
    DEFAULT_MEMBERSHIP_TOL,
    NormedSpace,
    PolyhedralCone,
    ValidationReport,
    check_declared_normal_constant,
    cone_members,
    normal_constant_lower_bound,
    orthant,
    validate_cone,
)
from .contraction import (
    AffineMapping,
    CallableCoefficients,
    ConeMetricSpace,
    ConstantCoefficients,
    EuclideanPoints,
    FinitePoints,
    HypothesisReport,
    LiftedMetric,
    MetricAxiomReport,
    PerPairCoefficients,
    TableMapping,
    TableMetric,
    Witness,
    check_hypotheses,
    check_metric_axioms,
    reduce_scalar,
)
from .errors import (
    ConefixError,
    ContractViolationError,
    GenerationError,
    HypothesisFailureError,
    NonConvergenceError,
    NumericError,
    ProblemFileError,
)
from .linops import LinearOperator, induced_norm, invariance_check, resolvent_stack
from .solver import (
    BoundAudit,
    ConvergenceCertificate,
    FixedPointResult,
    IterationTrace,
    ProbeReport,
    ProbeRow,
    a_priori_iterations,
    picard_solve,
    probe_open_problem,
    tail_bound,
    uniqueness_probe,
    verify_proof_bounds,
)
from .testbed import (
    CorollaryReport,
    FiniteInstance,
    brute_force_fixed_points,
    generate_certified_instance,
    make_finite_lifted_space,
    make_lifted_space,
    make_scalar_space,
    skewed_cone_2d,
    verify_corollary_equivalence,
)

__version__ = "0.1.0"
