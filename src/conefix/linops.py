"""Linear operators on the ambient space: norms, cone invariance, resolvents.

Induced operator norms are closed forms: column and row sums for the
one/infinity/weighted norms, the largest singular value for the two norm.
The resolvent ``(I - A3 - A4)^{-1}`` is certified rather than assumed: it is
computed by a direct solve, its residuals are verified against the requested
tolerance, and the Banach lemma turns the residual into a bound on the
distance to the true inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import DEFAULT_MEMBERSHIP_TOL, NormedSpace, PolyhedralCone, cone_members
from .errors import ContractViolationError, HypothesisFailureError, NumericError

RESOLVENT_AGREE_TOL = 1e-8


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
    return float(np.linalg.norm(m, 2))


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
    images = (op.matrix @ cone.generators[..., None])[..., 0]
    return bool(np.all(cone_members(cone, images, tol)))


def resolvent(a3: LinearOperator, a4: LinearOperator, tol: float = RESOLVENT_AGREE_TOL) -> LinearOperator:
    """Certified inverse of ``I - A3 - A4``.

    Precondition: ``norm(A3) + norm(A4) < 1`` in the ambient induced norm
    (the certifying sufficient condition for invertibility).  The inverse is
    computed by direct solve and must leave residuals
    ``r1 = norm((I-A3-A4) X - I)`` and ``r2 = norm(X (I-A3-A4) - I)`` below
    ``tol``.  By the Banach lemma, ``r1 < 1`` gives
    ``norm(X - (I-A3-A4)^{-1}) <= norm(X) r1 / (1 - r1)``, and that bound
    must be within ``tol`` relative to ``max(1, norm(X))``.
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

    inv_norm = induced_norm(inv, space)
    if r1 >= 1.0 or inv_norm * r1 / (1.0 - r1) > tol * max(1.0, inv_norm):
        raise NumericError(
            f"Banach-lemma error bound for residual {r1:.3e} exceeds tolerance {tol:.3e}"
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
