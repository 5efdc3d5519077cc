"""Picard iteration with certified stopping, bound audits, and probes.

The a-priori iteration count comes from the geometric tail bound
``k^2 * beta^n / (1 - beta) * |d(x0, x1)|``: once that quantity is below
eps, every later iterate (any gap p) stays within eps of iterate n.  The
solver plans that many steps, then insists on the a-posteriori residual
``|d(x_N, T x_N)| <= eps``; a large residual after the planned steps is
loud evidence that the certifying hypotheses were violated, never silently
retried.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .contraction import ConeMetricSpace
from .errors import (
    ContractViolationError,
    HypothesisFailureError,
    NonConvergenceError,
    NumericError,
)

#: Relative slack applied to proof-bound comparisons (floating point only).
BOUND_AUDIT_RTOL = 1e-9

#: Gap checks the audit reads in one block.  Each carries a few arrays of
#: point coordinates, so blocks this size keep a long trace's audit from
#: raising peak memory (larger blocks ran no faster).
AUDIT_BLOCK_PAIRS = 1 << 12

MIN_ITER_FLOOR = 64


@dataclass(eq=False)
class IterationTrace:
    """Iterates and the norms of successive steps."""

    points: list
    step_norms: list[float]

    def __post_init__(self):
        if len(self.step_norms) != max(0, len(self.points) - 1):
            raise ContractViolationError("trace needs one step norm per consecutive pair")


@dataclass(eq=False)
class ConvergenceCertificate:
    """Record of the planned-iteration guarantee.

    ``bound_at_n`` is the tail bound evaluated at ``n_planned``; it is
    at most ``eps`` by construction.  ``beta_source`` records whether beta
    was caller-declared or taken from a hypothesis report's witnessed
    maximum.
    """

    k: float
    beta: float
    d01_norm: float
    n_planned: int
    eps: float
    bound_at_n: float
    beta_source: str = "declared"


@dataclass(eq=False)
class FixedPointResult:
    point: object
    residual_norm: float
    iterations_used: int
    certificate: ConvergenceCertificate
    trace: IterationTrace | None = None


def tail_bound(k: float, beta: float, d01_norm: float, n: int) -> float:
    """Worst-case distance from iterate n to any later iterate."""
    return k * k * beta**n / (1.0 - beta) * d01_norm


def a_priori_iterations(k: float, beta: float, d01_norm: float, eps: float) -> int:
    """Smallest n >= 0 whose tail bound is at most eps.

    Returns 0 immediately when the starting step is zero (the start is
    already fixed).
    """
    k, beta, d01_norm, eps = map(float, (k, beta, d01_norm, eps))
    if not all(map(math.isfinite, (k, beta, eps))):
        raise ContractViolationError(f"k, beta and eps must be finite, got {k}, {beta} and {eps}")
    if k < 1.0:
        raise ContractViolationError("normal constant must be >= 1")
    if beta < 0.0:
        raise ContractViolationError("beta must be nonnegative")
    if beta >= 1.0:
        raise HypothesisFailureError("i2", f"beta = {beta:.17g} is not below 1; no tail bound exists")
    if d01_norm < 0.0:
        raise ContractViolationError("d01_norm must be nonnegative")
    if not math.isfinite(d01_norm):
        raise NumericError(f"|d(x0, x1)| = {d01_norm} is not finite; no tail bound exists")
    if eps <= 0.0:
        raise ContractViolationError("eps must be positive")
    if d01_norm == 0.0:
        return 0
    if tail_bound(k, beta, d01_norm, 0) <= eps:
        return 0
    if beta == 0.0:
        return 1
    # in logs, so that k^2 |d(x0, x1)| may overflow and eps (1 - beta) / ... may underflow
    est = (math.log(eps) + math.log1p(-beta) - 2.0 * math.log(k) - math.log(d01_norm)) / math.log(beta)
    n = max(1, int(math.ceil(est)))
    while n > 0 and tail_bound(k, beta, d01_norm, n - 1) <= eps:
        n -= 1
    while tail_bound(k, beta, d01_norm, n) > eps:
        n += 1
        if n > 10**8:
            raise NumericError("a-priori iteration count exceeds 1e8; beta is too close to 1")
    return n


def picard_solve(
    space: ConeMetricSpace,
    mapping,
    k: float | None,
    beta: float,
    x0,
    eps: float,
    max_iter: int | None = None,
    keep_trace: bool = True,
    beta_source: str = "declared",
) -> FixedPointResult:
    """Iterate ``x_{n+1} = T x_n`` for the certified number of steps.

    Runs ``a_priori_iterations`` steps (capped by ``max_iter``, default
    ``max(64, 4 * planned)``), stopping early only when a step lands
    exactly on a fixed point.  Success requires the final residual
    ``|d(x_N, T x_N)|`` to be at most eps; otherwise a
    :class:`NonConvergenceError` carrying the trace is raised.
    """
    k = space.cone.normal_constant if k is None else float(k)
    x0 = space.check_point(x0)
    x1 = mapping.apply(space, x0)
    d01 = space.d_norm(x0, x1)
    n_planned = a_priori_iterations(k, beta, d01, eps)
    if max_iter is None:
        max_iter = max(MIN_ITER_FLOOR, 4 * n_planned)
    if max_iter < 0:
        raise ContractViolationError("max_iter must be nonnegative")
    n_run = min(n_planned, max_iter)

    points = [x0]
    step_norms: list[float] = []
    x = x0
    for _ in range(n_run):
        x_next = mapping.apply(space, x)
        step_norms.append(space.d_norm(x, x_next))
        points.append(x_next)
        x = x_next
        if step_norms[-1] == 0.0:
            break
    residual = space.d_norm(x, mapping.apply(space, x))
    certificate = ConvergenceCertificate(
        k=k,
        beta=float(beta),
        d01_norm=d01,
        n_planned=n_planned,
        eps=float(eps),
        bound_at_n=tail_bound(k, float(beta), d01, n_planned),
        beta_source=beta_source,
    )
    trace = IterationTrace(points, step_norms) if keep_trace else None
    result = FixedPointResult(
        point=x,
        residual_norm=residual,
        iterations_used=len(step_norms),
        certificate=certificate,
        trace=trace,
    )
    if residual > eps:
        capped = n_planned > max_iter
        reason = (
            f"iteration cap {max_iter} reached before the planned {n_planned} steps"
            if capped
            else f"planned {n_planned} steps exhausted"
        )
        raise NonConvergenceError(
            f"{reason} with residual {residual:.6g} > eps {eps:.6g}; "
            "this signals a hypothesis violation or a bad beta",
            trace=IterationTrace(points, step_norms),
            residual_norm=residual,
        )
    return result


@dataclass(eq=False)
class BoundViolation:
    kind: str  # "step" or "gap"
    n: int
    p: int
    lhs: float
    rhs: float


@dataclass(eq=False)
class BoundAudit:
    """Every step/gap inequality checked along a trace, with violations listed."""

    step_checks: int
    gap_checks: int
    violations: list[BoundViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def step_violations(self) -> int:
        return sum(1 for v in self.violations if v.kind == "step")

    @property
    def gap_violations(self) -> int:
        return sum(1 for v in self.violations if v.kind == "gap")


def verify_proof_bounds(
    space: ConeMetricSpace,
    trace: IterationTrace,
    k: float,
    beta: float,
    max_gap: int = 10,
) -> BoundAudit:
    """Audit a trace against the geometric step and tail bounds.

    For every n checks ``|d(x_n, x_{n+1})| <= k beta^n |d(x_0, x_1)|`` and,
    for every gap p <= max_gap, ``|d(x_n, x_{n+p})| <= k^2 beta^n / (1-beta)
    |d(x_0, x_1)|``, each with relative floating-point slack.  A certified
    run must produce zero violations.
    """
    if not trace.points:
        raise ContractViolationError("trace must contain at least one point")
    if not 0.0 <= beta < 1.0:
        raise ContractViolationError("bound audit needs beta in [0, 1)")
    if max_gap < 0:
        raise ContractViolationError("bound audit needs max_gap >= 0")
    audit = BoundAudit(step_checks=0, gap_checks=0)
    if len(trace.points) < 2:
        return audit
    d01 = trace.step_norms[0]
    slack = 1.0 + BOUND_AUDIT_RTOL
    for n, step in enumerate(trace.step_norms):
        audit.step_checks += 1
        rhs = k * beta**n * d01
        if step > rhs * slack:
            audit.violations.append(BoundViolation("step", n, 1, step, rhs))
    last = len(trace.points) - 1
    gaps = np.arange(1, min(max_gap, last) + 1)
    rows = max(1, AUDIT_BLOCK_PAIRS // max(1, gaps.size))
    for lo in range(0, last if gaps.size else 0, rows):
        # the gaps (n, p) of a block of rows in (n, p) order, their norms read at once
        ns = np.arange(lo, min(lo + rows, last))
        at, column = np.nonzero(ns[:, None] + gaps <= last)
        at_n, at_p = ns[at], gaps[column]
        window = trace.points[lo : ns[-1] + gaps.size + 1]  # the points these gaps reach
        lhs = space._pair_norms(window, at_n - lo, at_n + at_p - lo)
        rhs = np.array([tail_bound(k, beta, d01, n) for n in range(lo, lo + ns.size)])[at]
        audit.gap_checks += lhs.size
        for i in np.flatnonzero(lhs > rhs * slack):
            audit.violations.append(
                BoundViolation("gap", int(at_n[i]), int(at_p[i]), float(lhs[i]), float(rhs[i]))
            )
    return audit


def uniqueness_probe(
    space: ConeMetricSpace,
    mapping,
    k: float | None,
    beta: float,
    seeds,
    eps: float,
) -> bool:
    """Solve from several starts and ask whether all landings agree.

    True iff every pair of returned points is within ``2 * eps`` in metric
    norm.  Non-convergence from any start propagates.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ContractViolationError("uniqueness probe needs at least 2 start points")
    landings = [
        picard_solve(space, mapping, k, beta, s, eps, keep_trace=False).point for s in seeds
    ]
    for i in range(len(landings)):
        for j in range(i + 1, len(landings)):
            if space.d_norm(landings[i], landings[j]) > 2.0 * eps:
                return False
    return True


# ---------------------------------------------------------------------------
# Open-problem probe: coefficient sums in [1/k, 1) with k > 1
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ProbeRow:
    """One probe instance; purely observational."""

    index: int
    size: int
    witnessed_alpha: float
    witnessed_beta: float
    converged: bool
    iterations: int
    multiplicity: int
    experimental: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeRow":
        return cls(**data)


@dataclass(eq=False)
class ProbeReport:
    """Observed behaviour of instances whose coefficient sum meets or exceeds 1/k.

    No convergence theorem is claimed for this regime; the report is
    labeled EXPERIMENTAL and only records what happened.
    """

    k: float
    alpha_min: float
    alpha_max: float
    n_instances: int
    seed: int
    eps: float
    rows: list[ProbeRow] = field(default_factory=list)
    label: str = "EXPERIMENTAL"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeReport":
        return cls(**{**data, "rows": [ProbeRow.from_dict(r) for r in data["rows"]]})

    def equals(self, other: "ProbeReport") -> bool:
        return self.to_dict() == other.to_dict()


def probe_open_problem(
    seed: int,
    k: float,
    alpha_min: float,
    alpha_max: float,
    n_instances: int,
    eps: float = 1e-8,
) -> ProbeReport:
    """Run the solver on instances whose coefficient sum lies in [alpha_min, alpha_max].

    Requires k > 1 and the range inside [1/k, 1).  Instances are finite
    ladder spaces over a cone whose normal constant genuinely equals k,
    built so the remaining certifying conditions (composite norm below 1,
    the invariance conditions, the certified resolvent) all hold while the
    coefficient norm sum lands in the requested range.  Deterministic given
    the seed.  The range is checked first; then an empty range or zero
    instances yields an empty report.
    """
    from . import testbed  # local import; testbed builds on this module

    k = float(k)
    if k <= 1.0:
        raise ContractViolationError("the probe regime needs k > 1")
    if alpha_min < 1.0 / k or alpha_max >= 1.0:
        raise ContractViolationError(
            f"probe range [{alpha_min}, {alpha_max}] must lie inside [1/k, 1) = [{1.0 / k}, 1)"
        )
    report = ProbeReport(
        k=k,
        alpha_min=float(alpha_min),
        alpha_max=float(alpha_max),
        n_instances=int(n_instances),
        seed=int(seed),
        eps=float(eps),
    )
    if alpha_min > alpha_max or n_instances == 0:
        return report

    from .errors import GenerationError

    rng = np.random.default_rng(int(seed))
    for index in range(int(n_instances)):
        try:
            instance, witnessed = testbed.generate_probe_instance(rng, k, alpha_min, alpha_max)
        except GenerationError as exc:
            report.rows.append(
                ProbeRow(
                    index=index,
                    size=0,
                    witnessed_alpha=float("nan"),
                    witnessed_beta=float("nan"),
                    converged=False,
                    iterations=0,
                    multiplicity=0,
                    note=f"generation failed: {exc}",
                )
            )
            continue
        labels = sorted(instance.space.labels)
        starts = {labels[0], labels[len(labels) // 2], labels[-1]}
        converged = True
        iterations = 0
        endpoints = []
        for s in sorted(starts):
            try:
                res = picard_solve(
                    instance.space,
                    instance.mapping,
                    k,
                    witnessed.beta,
                    s,
                    eps,
                    keep_trace=False,
                    beta_source="witnessed",
                )
            except NonConvergenceError:
                converged = False
                continue
            iterations = max(iterations, res.iterations_used)
            endpoints.append(res.point)
        brute = testbed.brute_force_fixed_points(instance)
        distinct = set(brute) | set(endpoints)
        report.rows.append(
            ProbeRow(
                index=index,
                size=len(labels),
                witnessed_alpha=witnessed.alpha,
                witnessed_beta=witnessed.beta,
                converged=converged,
                iterations=iterations,
                multiplicity=len(distinct) if brute else len(set(endpoints)),
            )
        )
    return report
