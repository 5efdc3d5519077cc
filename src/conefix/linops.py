"""Linear operators on the ambient space: norms, cone invariance, resolvents.

Induced operator norms come in closed form for the one/infinity/weighted
norms and by power iteration for the two norm.  The resolvent
``(I - A3 - A4)^{-1}`` is certified rather than assumed: it is computed by a
direct solve, cross-checked against the truncated geometric operator series,
and its residuals are verified against the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import DEFAULT_MEMBERSHIP_TOL, NormedSpace, PolyhedralCone, cone_contains
from .errors import ContractViolationError, HypothesisFailureError, NumericError

TWO_NORM_REL_TOL = 1e-10
TWO_NORM_MAX_ITER = 10_000

RESOLVENT_AGREE_TOL = 1e-8
NEUMANN_MAX_TERMS = 200_000


@dataclass(eq=False)
class LinearOperator:
    """Square real matrix acting on a :class:`NormedSpace`."""

    matrix: np.ndarray
    space: NormedSpace

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        p = self.space.dim
        if self.matrix.shape != (p, p):
            raise ContractViolationError(
                f"operator of shape {self.matrix.shape} does not act on R^{p}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ContractViolationError("operator has non-finite entries")

    @classmethod
    def identity(cls, space: NormedSpace) -> "LinearOperator":
        return cls(np.eye(space.dim), space)

    @classmethod
    def zero(cls, space: NormedSpace) -> "LinearOperator":
        return cls(np.zeros((space.dim, space.dim)), space)

    @classmethod
    def scaling(cls, space: NormedSpace, factor: float) -> "LinearOperator":
        return cls(float(factor) * np.eye(space.dim), space)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_space(other)
        return LinearOperator(self.matrix + other.matrix, self.space)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_space(other)
        return LinearOperator(self.matrix @ other.matrix, self.space)

    def _check_same_space(self, other: "LinearOperator") -> None:
        if other.space.dim != self.space.dim:
            raise ContractViolationError("operators act on different spaces")


def apply(op: LinearOperator, v) -> np.ndarray:
    """Matrix-vector action of the operator."""
    arr = op.space.as_vector(v)
    return op.matrix @ arr


def _two_norm_power_iteration(matrix: np.ndarray) -> float:
    # Largest singular value via power iteration on A^T A, all-ones start.
    # Rescaling by the largest entry keeps the Gram matrix away from
    # under/overflow for extreme magnitudes.
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if scale == 0.0:
        return 0.0
    matrix = matrix / scale
    gram = matrix.T @ matrix
    p = matrix.shape[0]
    starts = [np.ones(p)] + [np.eye(p)[i] for i in range(p)]
    for v in starts:
        est_prev = -1.0
        for _ in range(TWO_NORM_MAX_ITER):
            w = gram @ v
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                break  # start vector hit the null space; try the next one
            v = w / nw
            est = math.sqrt(nw)
            if est_prev >= 0.0 and abs(est - est_prev) <= TWO_NORM_REL_TOL * est:
                return est * scale
            est_prev = est
        else:
            raise NumericError("two-norm power iteration did not converge")
    raise NumericError("two-norm power iteration found no usable start vector")


def induced_norm(matrix: np.ndarray, space: NormedSpace) -> float:
    """Operator norm of ``matrix`` induced by the space's vector norm."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if space.kind == "one":
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if space.kind == "infinity":
        return float(np.max(np.sum(np.abs(m), axis=1)))
    if space.kind == "weighted":
        w = np.asarray(space.weights)
        scaled = (w[:, None] * m) / w[None, :]
        return float(np.max(np.sum(np.abs(scaled), axis=1)))
    return _two_norm_power_iteration(m)


def operator_norm(op: LinearOperator, space: NormedSpace | None = None) -> float:
    """Induced norm of the operator, in its own space's norm by default."""
    return induced_norm(op.matrix, op.space if space is None else space)


def invariance_check(
    op: LinearOperator, cone: PolyhedralCone, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> bool:
    """True iff the operator maps the cone into itself.

    By linearity it is enough to check the images of the generators, so the
    test is exact for polyhedral cones up to the membership tolerance.
    """
    if op.space.dim != cone.space.dim:
        raise ContractViolationError("operator and cone live in different dimensions")
    for g in cone.generators:
        if not cone_contains(cone, op.matrix @ g, tol):
            return False
    return True


def neumann_inverse(matrix: np.ndarray, norm_bound: float, space: NormedSpace,
                    target_tol: float = 1e-9) -> np.ndarray:
    """Partial sums of the geometric series for ``(I - matrix)^{-1}``.

    ``norm_bound`` must be a sub-1 bound on the induced norm of ``matrix``;
    the truncation depth is chosen so the tail is below ``target_tol``.
    """
    if not 0.0 <= norm_bound < 1.0:
        raise ContractViolationError("geometric series needs a norm bound in [0, 1)")
    p = matrix.shape[0]
    if norm_bound == 0.0:
        terms = 2
    else:
        tail = target_tol * (1.0 - norm_bound)
        terms = int(math.ceil(math.log(tail) / math.log(norm_bound))) + 1
        terms = max(terms, 2)
    if terms > NEUMANN_MAX_TERMS:
        raise NumericError(
            f"geometric series needs {terms} terms to certify; bound {norm_bound} is too close to 1"
        )
    total = np.eye(p)
    term = np.eye(p)
    for _ in range(terms):
        term = term @ matrix
        total = total + term
    return total


def resolvent(a3: LinearOperator, a4: LinearOperator, tol: float = RESOLVENT_AGREE_TOL) -> LinearOperator:
    """Certified inverse of ``I - A3 - A4``.

    Precondition: ``norm(A3) + norm(A4) < 1`` in the ambient induced norm
    (the certifying sufficient condition for invertibility).  The inverse is
    computed by direct solve, must agree with the truncated geometric series
    to ``tol``, and must leave residuals ``norm((I-A3-A4) M - I)`` and
    ``norm(M (I-A3-A4) - I)`` below ``tol``.
    """
    a3._check_same_space(a4)
    space = a3.space
    p = space.dim
    sum_norms = operator_norm(a3) + operator_norm(a4)
    if sum_norms >= 1.0:
        raise HypothesisFailureError(
            "i1",
            f"cannot certify the resolvent: norm(A3) + norm(A4) = {sum_norms:.17g} >= 1",
        )
    m = np.eye(p) - a3.matrix - a4.matrix
    inv = np.linalg.solve(m, np.eye(p))

    r1 = induced_norm(m @ inv - np.eye(p), space)
    r2 = induced_norm(inv @ m - np.eye(p), space)
    if r1 > tol or r2 > tol:
        raise NumericError(f"resolvent residuals {r1:.3e}, {r2:.3e} exceed tolerance {tol:.3e}")

    series = neumann_inverse(a3.matrix + a4.matrix, sum_norms, space, target_tol=tol * 0.1)
    gap = induced_norm(inv - series, space)
    if gap > tol * max(1.0, induced_norm(inv, space)):
        raise NumericError(
            f"direct solve and geometric series disagree by {gap:.3e} (tolerance {tol:.3e})"
        )
    return LinearOperator(inv, space)


def s_operator(
    a1: LinearOperator,
    a2: LinearOperator,
    a3: LinearOperator,
    a4: LinearOperator,
    tol: float = RESOLVENT_AGREE_TOL,
) -> LinearOperator:
    """Composite operator ``(I - A3 - A4)^{-1} (A1 + A2 + A4)``.

    Its induced norm staying below 1 is what drives geometric convergence of
    the iteration, so this is the quantity the hypothesis checker bounds.
    """
    inv = resolvent(a3, a4, tol)
    return inv @ (a1 + a2 + a4)
