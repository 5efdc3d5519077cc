"""Per-vector and per-pair references for the library's array kernels.

The library decides membership and contraction residuals for whole stacks
at once (``cone_members`` and the sweeps of ``check_hypotheses``).  The
helpers here do the same for one vector or one ordered pair, the way the
checks were first written, so that tests can compare the two.
"""

from conefix import DEFAULT_MEMBERSHIP_TOL, cone_members


def cone_contains(cone, v, tol=DEFAULT_MEMBERSHIP_TOL):
    """Membership test of one vector: every facet inner product is >= -tol."""
    return bool(cone_members(cone, v, tol))


def contraction_residual(space, mapping, coeffs, x, y):
    """Residual of the contraction inequality at one ordered pair.

    Returns ``A1 d(x,y) + A2 d(x,Tx) + A3 d(y,Ty) + A4 d(x,Ty) + A4 d(y,Tx)
    - d(Tx,Ty)``; the inequality holds at (x, y) iff this vector is a cone
    member.  This is the single-pair reference for the sweeps of
    ``check_hypotheses``, which compute the same vectors for stacked pairs
    at once.
    """
    x = space.check_point(x)
    y = space.check_point(y)
    a1, a2, a3, a4 = coeffs.at(x, y)
    tx = mapping.apply(space, x)
    ty = mapping.apply(space, y)
    d = space.d
    rhs = a1 @ d(x, y) + a2 @ d(x, tx) + a3 @ d(y, ty) + a4 @ d(x, ty) + a4 @ d(y, tx)
    return rhs - d(tx, ty)
