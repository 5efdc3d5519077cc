"""Matrices on the ambient space: norms, cone invariance, resolvents.

Induced operator norms are closed forms: column and row sums for the
one/infinity/weighted norms, the largest singular value for the two norm.
The resolvent ``(I - A3 - A4)^{-1}`` is certified rather than assumed: it is
computed by a direct solve, its residuals are verified against the requested
tolerance, and the Banach lemma turns the residual into a bound on the
distance to the true inverse.  The norms, the invariance test and the
resolvent work on stacks ``(..., p, p)`` of plain float matrices, entry by
entry; :class:`LinearOperator` is only the checked record of one matrix and
its space that :class:`~conefix.contraction.ConstantCoefficients` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import DEFAULT_MEMBERSHIP_TOL, NormedSpace, PolyhedralCone, cone_members
from .errors import ContractViolationError, HypothesisFailureError, NumericError

RESOLVENT_AGREE_TOL = 1e-8


@dataclass(eq=False)
class LinearOperator:
    """Square real matrix acting on a :class:`NormedSpace`, checked to be finite and ``(p, p)``."""

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


def induced_norm(matrix, space: NormedSpace):
    """Operator norm induced by the space's vector norm, for each matrix of a stack.

    ``matrix`` has shape ``(..., p, p)``; the result has shape ``(...)``, a
    scalar for a single matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if space.kind == "one":
        return np.max(np.sum(np.abs(m), axis=-2), axis=-1)
    if space.kind == "infinity":
        return np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    if space.kind == "weighted":
        w = np.asarray(space.weights)
        return np.max(np.sum(np.abs((w[:, None] * m) / w), axis=-1), axis=-1)
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def invariance_check(matrix, cone: PolyhedralCone, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """Whether the matrix, or each matrix of a stack ``(..., p, p)``, maps the cone into itself.

    By linearity it is enough to check the images of the generators, so the
    test is exact for polyhedral cones up to the membership tolerance.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape[-1] != cone.space.dim:
        raise ContractViolationError("operator and cone live in different dimensions")
    images = (m[..., None, :, :] @ cone.generators[..., None])[..., 0]
    return np.all(cone_members(cone, images, tol), axis=-1)


def resolvent_stack(m3, m4, space: NormedSpace):
    """Certified inverses of ``I - A3 - A4`` for stacks ``(..., p, p)`` of ``A3`` and ``A4``.

    Precondition, entry by entry: ``norm(A3) + norm(A4) < 1`` in the ambient
    induced norm (the certifying sufficient condition for invertibility).
    Each inverse is computed by direct solve and must leave residuals
    ``r1 = norm((I-A3-A4) X - I)`` and ``r2 = norm(X (I-A3-A4) - I)`` below
    :data:`RESOLVENT_AGREE_TOL`.  By the Banach lemma, ``r1 < 1`` gives
    ``norm(X - (I-A3-A4)^{-1}) <= norm(X) r1 / (1 - r1)``, and that bound
    must be within the same tolerance relative to ``max(1, norm(X))``.

    Returns the inverses, NaN where an entry cannot be certified, and the
    error for the first such entry in C order (None when every entry is
    certified): a :class:`HypothesisFailureError` for condition ``i1`` when
    the precondition fails, a :class:`NumericError` when a residual or the
    Banach-lemma bound misses the tolerance.
    """
    tol = RESOLVENT_AGREE_TOL
    eye = np.eye(space.dim)
    sum_norms = induced_norm(m3, space) + induced_norm(m4, space)
    live = sum_norms < 1.0
    # an entry failing the precondition is solved as I instead, since one
    # singular matrix would make the solve fail for the whole stack
    m = np.where(live[..., None, None], eye - np.asarray(m3, dtype=float) - m4, eye)
    x = np.linalg.solve(m, eye)
    r1 = induced_norm(m @ x - eye, space)
    r2 = induced_norm(x @ m - eye, space)
    x_norm = induced_norm(x, space)
    residual_ok = (r1 <= tol) & (r2 <= tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        banach_ok = (r1 < 1.0) & (x_norm * r1 / (1.0 - r1) <= tol * np.maximum(1.0, x_norm))
    certified = live & residual_ok & banach_ok
    inv = np.where(certified[..., None, None], x, np.nan)
    if certified.all():
        return inv, None
    q = np.unravel_index(np.argmin(certified), np.shape(certified))
    if not live[q]:
        message = f"cannot certify the resolvent: norm(A3) + norm(A4) = {sum_norms[q]:.17g} >= 1"
        return inv, HypothesisFailureError("i1", message)
    if not residual_ok[q]:
        return inv, NumericError(
            f"resolvent residuals {r1[q]:.3e}, {r2[q]:.3e} exceed tolerance {tol:.3e}"
        )
    return inv, NumericError(
        f"Banach-lemma error bound for residual {r1[q]:.3e} exceeds tolerance {tol:.3e}"
    )
