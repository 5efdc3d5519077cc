"""Cone metric spaces, mappings, coefficient families, and hypothesis checking.

The checker verifies, at every checked pair, the full set of certifying
conditions for the operator-coefficient contraction:

* ``i1``  — the coefficient norm sum ``|A1| + |A2| + |A3| + 2 |A4|`` stays
  below ``1/k`` (k the cone's normal constant),
* ``i2``  — the composite operator ``S = (I - A3 - A4)^{-1}(A1 + A2 + A4)``
  has norm below 1,
* ``i3``  — ``A1 + A2`` maps the cone into itself,
* ``hb``  — ``A2`` maps the cone into itself,
* ``i4``  — ``A4`` maps the cone into itself,
* ``i5``  — the resolvent ``(I - A3 - A4)^{-1}`` maps the cone into itself,
* the contraction inequality itself, via its residual vector.

On finite point sets the sweep is exhaustive ("verified"); on euclidean
domains it is sampled ("not falsified"), and the report records which.
Either way one array kernel computes the residuals of all pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cones import (
    DEFAULT_MEMBERSHIP_TOL,
    NormedSpace,
    PolyhedralCone,
    cone_contains,
    cone_members,
    euclidean_norms,
)
from .errors import ContractViolationError
from .linops import LinearOperator, induced_norm, invariance_check, resolvent_stack

CONDITIONS = ("i1", "i2", "i3", "hb", "i4", "i5", "contraction")

#: Elements per temporary array in chunked sweeps; chunks hold whole rows,
#: so a chunk is never smaller than one row of the distance tensor.
CHUNK_ELEMENTS = 1 << 17

#: Largest distance tensor (N * N * p entries, 1 GiB of float64) that a
#: finite space builds; the exhaustive sweep needs several arrays of that
#: size besides, so larger spaces are refused instead of exhausting memory.
TABLE_MAX_ELEMENTS = 1 << 27


# ---------------------------------------------------------------------------
# Point domains
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FinitePoints:
    """Finite point set given by labels, optionally with coordinates.

    ``positions`` maps each label to a point of R^m; it is required by
    lifted metrics with a euclidean base and ignored otherwise.  ``order``
    holds the labels sorted (the canonical order of every sweep) and
    ``index`` maps a label to its place in ``order``.
    """

    labels: tuple[str, ...]
    positions: dict[str, np.ndarray] | None = None
    order: tuple[str, ...] = field(init=False, repr=False)
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.labels = tuple(str(l) for l in self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ContractViolationError("point labels must be unique")
        if not self.labels:
            raise ContractViolationError("finite point set must be nonempty")
        self.order = tuple(sorted(self.labels))
        self.index = {label: i for i, label in enumerate(self.order)}
        if self.positions is not None:
            self.positions = {
                str(k): np.atleast_1d(np.asarray(v, dtype=float)) for k, v in self.positions.items()
            }
            missing = set(self.labels) - set(self.positions)
            if missing:
                raise ContractViolationError(f"positions missing for labels {sorted(missing)}")
            unknown = set(self.positions) - set(self.labels)
            if unknown:
                raise ContractViolationError(
                    f"positions given for unknown labels {sorted(unknown)}"
                )
            shapes = {v.shape for v in self.positions.values()}
            if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
                raise ContractViolationError("positions must be vectors of one common dimension")


@dataclass(frozen=True)
class EuclideanPoints:
    """Point domain R^m."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ContractViolationError("euclidean point dimension must be >= 1")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LiftedMetric:
    """Vector-valued metric ``d(x, y) = rho(x, y) * weight``.

    ``rho`` is the base scalar metric (euclidean distance between point
    coordinates, or the discrete 0/1 metric) and ``weight`` is a nonzero
    cone element, so the lift lands in the cone whenever rho >= 0.
    """

    base: str
    weight: np.ndarray

    def __post_init__(self):
        if self.base not in ("euclidean", "discrete"):
            raise ContractViolationError(f"unknown base metric {self.base!r}")
        self.weight = np.atleast_1d(np.asarray(self.weight, dtype=float))


@dataclass(eq=False)
class TableMetric:
    """Explicit distance table for a finite point set.

    Entries are stored per ordered pair as given; lookups fall back to the
    reversed pair, and a missing diagonal entry means zero.  Every pair of
    distinct labels must be given in at least one order, with finite
    entries, or the space refuses the table.  Deliberately inconsistent
    tables (asymmetric, negative, nonzero on the diagonal) are
    representable so the axiom suite can report on them instead of the
    constructor refusing them.
    """

    entries: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        self.entries = {
            (str(a), str(b)): np.atleast_1d(np.asarray(v, dtype=float))
            for (a, b), v in self.entries.items()
        }


class ConeMetricSpace:
    """A point domain together with a cone-valued metric.

    A space must not change after construction.  A finite space builds its
    distance tensor and the norms of its entries in the constructor, and
    every distance, norm and sweep reads those read-only arrays.  The
    constructor refuses a finite space whose tensor would exceed
    :data:`TABLE_MAX_ELEMENTS` entries, a table that gives some pair of
    distinct labels in neither order, and any non-finite distance: a cone
    metric is defined, and finite, at every pair.
    """

    def __init__(self, cone: PolyhedralCone, points, metric):
        self.cone = cone
        self.points = points
        self.metric = metric
        p = cone.space.dim
        if isinstance(metric, LiftedMetric):
            if metric.weight.shape != (p,):
                raise ContractViolationError("metric weight must live in the ambient space")
            if not cone_contains(cone, metric.weight):
                raise ContractViolationError("metric weight must be a cone element")
            if cone.space.norm(metric.weight) == 0.0:
                raise ContractViolationError("metric weight must be nonzero")
            if metric.base == "euclidean" and isinstance(points, FinitePoints):
                if points.positions is None:
                    raise ContractViolationError(
                        "euclidean base over finite points needs positions"
                    )
        elif isinstance(metric, TableMetric):
            if not isinstance(points, FinitePoints):
                raise ContractViolationError("table metrics require a finite point set")
            for (a, b), v in metric.entries.items():
                if v.shape != (p,):
                    raise ContractViolationError(
                        f"table entry for ({a}, {b}) must live in the ambient space"
                    )
                if a not in points.index or b not in points.index:
                    raise ContractViolationError(f"table entry ({a}, {b}) names unknown points")
        else:
            raise ContractViolationError("metric must be a LiftedMetric or a TableMetric")
        if self.is_finite:
            n = len(points.order)
            if n * n * p > TABLE_MAX_ELEMENTS:
                raise ContractViolationError(
                    f"finite space of {n} points is too large for its distance table "
                    f"({n}x{n}x{p} entries, limit {TABLE_MAX_ELEMENTS})"
                )
            dist = self._build_distances()
            if not np.isfinite(dist).all():
                self._refuse(dist)
            self._dist, self._norms = dist, cone.space.norms(dist)
            dist.flags.writeable = self._norms.flags.writeable = False

    @property
    def is_finite(self) -> bool:
        return isinstance(self.points, FinitePoints)

    @property
    def labels(self) -> tuple[str, ...]:
        if not self.is_finite:
            raise ContractViolationError("euclidean domains have no label list")
        return self.points.labels

    def check_point(self, x):
        if self.is_finite:
            if not (isinstance(x, str) and x in self.points.index):
                raise ContractViolationError(f"unknown point label {x!r}")
            return x
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.shape != (self.points.m,):
            raise ContractViolationError(
                f"point of shape {arr.shape} does not live in R^{self.points.m}"
            )
        return arr

    def _place(self, x) -> int:
        return self.points.index[self.check_point(x)]

    def _rho(self, u, v) -> np.ndarray:
        """The base metric of a lifted metric between coordinates, along the last axis."""
        if self.metric.base == "discrete":
            return np.where((u == v).all(axis=-1), 0.0, 1.0)
        return euclidean_norms(u - v)

    def distances(self, u, v) -> np.ndarray:
        """:meth:`d` of stacked points, unchecked: positions in the sorted labels, or coordinates of R^m."""
        if self.is_finite:
            return self._dist[u, v]
        return self._rho(u, v)[..., None] * self.metric.weight

    def d(self, x, y) -> np.ndarray:
        """Cone-valued distance between two points."""
        if self.is_finite:
            return self._dist[self._place(x), self._place(y)].copy()
        return self.distances(self.check_point(x), self.check_point(y))

    def d_norm(self, x, y) -> float:
        """Ambient norm of the distance vector; the scalar the solver watches."""
        if self.is_finite:
            return float(self._norms[self._place(x), self._place(y)])
        return self.cone.space.norm(self.d(x, y))

    def _pair_norms(self, points, a, b) -> np.ndarray:
        """``d_norm(points[a[k]], points[b[k]])`` for every k, as one array.

        Equal to the per-pair calls bit for bit.  Every point of ``points``
        is checked first, in order; on a euclidean domain a pair without a
        finite norm then goes through :meth:`d_norm`, so the first such pair
        raises what it raises.
        """
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        if self.is_finite:
            place = np.array([self._place(x) for x in points], dtype=np.intp)
            return self._norms[place[a], place[b]]
        pts = np.array([self.check_point(x) for x in points])
        values = self.cone.space.norms(self.distances(pts[a], pts[b]))
        for k in np.flatnonzero(~np.isfinite(values)):
            values[k] = self.d_norm(points[a[k]], points[b[k]])
        return values

    def distance_tensor(self) -> np.ndarray:
        """Every distance of a finite space at once, read-only.

        ``D[i, j] = d(order[i], order[j])`` over the sorted labels, with the
        same values (bit for bit) as :meth:`d`.
        """
        if not self.is_finite:
            raise ContractViolationError("euclidean domains have no distance table")
        return self._dist

    def norm_table(self) -> np.ndarray:
        """Read-only ``(N, N)`` norms of :meth:`distance_tensor`; ``[i, j]`` is ``d_norm``."""
        self.distance_tensor()
        return self._norms

    def _build_distances(self) -> np.ndarray:
        """The distance tensor over the sorted labels; NaN where a table has no entry."""
        order = self.points.order
        n, p = len(order), self.cone.space.dim
        metric = self.metric
        if isinstance(metric, LiftedMetric):
            if metric.base == "discrete":
                rho = 1.0 - np.eye(n)
            else:
                pos = np.array([self.points.positions[label] for label in order])
                rho = np.empty((n, n))
                step = max(1, CHUNK_ELEMENTS // (n * pos.shape[1]))
                for lo in range(0, n, step):
                    rho[lo : lo + step] = self._rho(pos[lo : lo + step, None], pos[None])
            return rho[:, :, None] * metric.weight
        dist = np.full((n, n, p), np.nan)
        dist[np.arange(n), np.arange(n)] = 0.0
        if metric.entries:
            index = self.points.index
            rows = np.array([index[a] for a, _ in metric.entries])
            cols = np.array([index[b] for _, b in metric.entries])
            values = np.array(list(metric.entries.values()))
            # reversed pairs first, so a pair's own entry wins over the fallback
            dist[cols, rows] = values
            dist[rows, cols] = values
        return dist

    def _refuse(self, dist):
        """Raise for the first pair, in canonical order, that a table lacks or that is non-finite."""
        order = self.points.order
        pairs = [(order[i], order[j]) for i, j in np.argwhere(~np.isfinite(dist).all(axis=-1))]
        if isinstance(self.metric, TableMetric):
            given = self.metric.entries.keys()
            for x, y in pairs:
                if not {(x, y), (y, x)} & given:  # the diagonal is never missing
                    raise ContractViolationError(f"metric table has no entry for ({x}, {y})")
        x, y = pairs[0]
        raise ContractViolationError(f"distance d({x}, {y}) has non-finite entries")

    def image_indices(self, mapping) -> np.ndarray:
        """``t[i]`` is the place of ``T(order[i])`` in the sorted labels.

        A table mapping is read by dictionary lookups; when one misses, the
        labels go through ``mapping.apply`` so that it raises what it raises.
        """
        index, order = self.points.index, self.points.order
        if isinstance(mapping, TableMapping):
            table = mapping.table
            try:
                return np.array([index[table[x]] for x in order], dtype=np.intp)
            except KeyError:
                pass
        return np.array([index[mapping.apply(self, x)] for x in order], dtype=np.intp)


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TableMapping:
    """Self-map of a finite point set given as an explicit table."""

    table: dict[str, str]

    def __post_init__(self):
        self.table = {str(k): str(v) for k, v in self.table.items()}

    def apply(self, space: ConeMetricSpace, x):
        if not space.is_finite:
            raise ContractViolationError("table mappings act on finite point sets only")
        x = space.check_point(x)
        if x not in self.table:
            raise ContractViolationError(f"mapping table is not defined at {x!r}")
        return space.check_point(self.table[x])


@dataclass(eq=False)
class AffineMapping:
    """Self-map ``x -> B x + c`` of a euclidean point domain."""

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        m = self.c.shape[0]
        if self.b.shape != (m, m):
            raise ContractViolationError("affine map needs a square matrix matching c")

    def apply(self, space: ConeMetricSpace, x):
        if space.is_finite:
            raise ContractViolationError("affine mappings act on euclidean point domains only")
        arr = space.check_point(x)
        return self.b @ arr + self.c


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConstantCoefficients:
    """One operator quadruple shared by every point pair."""

    a1: LinearOperator
    a2: LinearOperator
    a3: LinearOperator
    a4: LinearOperator

    is_constant = True

    def at(self, x, y) -> np.ndarray:
        return np.array([self.a1.matrix, self.a2.matrix, self.a3.matrix, self.a4.matrix])


@dataclass(eq=False)
class PerPairCoefficients:
    """Coefficient matrices given per ordered label pair.

    ``table`` maps each pair ``(x, y)`` to its ``(4, p, p)`` array-like of
    ``A1..A4``.  The constructor stores them as one ``(Q, 4, p, p)`` float
    array, ``stack``, with ``rows`` mapping a pair to its row; a table that
    is empty, not of ``(4, p, p)`` arrays or not finite is refused.
    """

    table: dict[tuple[str, str], object]
    stack: np.ndarray = field(init=False, repr=False)
    rows: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.table:
            raise ContractViolationError("per-pair coefficient table is empty")
        try:
            self.stack = np.array(list(self.table.values()), dtype=float)
        except ValueError:  # quadruples of mixed shapes
            raise ContractViolationError("per-pair coefficients must be (4, p, p) arrays of one shape") from None
        shape = self.stack.shape
        if len(shape) != 4 or shape[1] != 4 or shape[2] != shape[3]:
            raise ContractViolationError(
                f"per-pair coefficients must be (4, p, p) arrays, got shape {shape[1:]}"
            )
        if not np.isfinite(self.stack).all():
            raise ContractViolationError("per-pair coefficients have non-finite entries")
        self.rows = {pair: i for i, pair in enumerate(self.table)}

    def at(self, x, y) -> np.ndarray:
        if (x, y) not in self.rows:
            raise ContractViolationError(f"no coefficients declared for pair {(x, y)}")
        return self.stack[self.rows[(x, y)]]


@dataclass(eq=False)
class CallableCoefficients:
    """Coefficient matrices produced by a user callback ``fn(x, y)`` returning ``A1..A4``."""

    fn: Callable

    def at(self, x, y) -> np.ndarray:
        return np.asarray(self.fn(x, y), dtype=float)


def reduce_scalar(a1: float, a2: float, a3: float, a4: float) -> ConstantCoefficients:
    """Classical scalar coefficients as 1x1 operators on the half-line cone.

    Each operator is ``t -> a_i t`` on E = R, so its induced norm is exactly
    ``a_i`` and the composite norm reduces to the familiar quotient
    ``(a1 + a2 + a4) / (1 - a3 - a4)``.
    """
    vals = (a1, a2, a3, a4)
    if any(float(a) < 0 for a in vals):
        raise ContractViolationError("scalar coefficients must be nonnegative")
    space = NormedSpace(1, "two")
    ops = tuple(LinearOperator(np.array([[float(a)]]), space) for a in vals)
    return ConstantCoefficients(*ops)


# ---------------------------------------------------------------------------
# Contraction residual and hypothesis checking
# ---------------------------------------------------------------------------


def contraction_residual(space: ConeMetricSpace, mapping, coeffs, x, y) -> np.ndarray:
    """Residual of the contraction inequality at one ordered pair.

    Returns ``A1 d(x,y) + A2 d(x,Tx) + A3 d(y,Ty) + A4 d(x,Ty) + A4 d(y,Tx)
    - d(Tx,Ty)``; the inequality holds at (x, y) iff this vector is a cone
    member.  This is the single-pair reference for the sweeps of
    :func:`check_hypotheses`, which compute the same vectors for stacked
    pairs at once (:func:`_residuals`).
    """
    x = space.check_point(x)
    y = space.check_point(y)
    a1, a2, a3, a4 = coeffs.at(x, y)
    tx = mapping.apply(space, x)
    ty = mapping.apply(space, y)
    d = space.d
    rhs = a1 @ d(x, y) + a2 @ d(x, tx) + a3 @ d(y, ty) + a4 @ d(x, ty) + a4 @ d(y, tx)
    return rhs - d(tx, ty)


def _act(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # Stacked matrix-vector products; the 1-column form rounds exactly like
    # ``matrix @ vector`` for each pair, unlike one large ``vectors @ M.T``.
    return (matrices @ vectors[..., None])[..., 0]


def _residuals(space: ConeMetricSpace, x, y, tx, ty, quads) -> np.ndarray:
    """Contraction residuals at stacked pairs, shape (n, p): the one kernel of every sweep.

    Pair k is ``(x[k], y[k])`` with images ``(tx[k], ty[k])``, as positions
    in the sorted labels ``(n,)`` on a finite space or as coordinates
    ``(n, m)`` on R^m (see :meth:`ConeMetricSpace.distances`).  ``quads``
    holds one ``(4, p, p)`` quadruple shared by every pair, or one per pair.
    Row k equals :func:`contraction_residual` at pair k bit for bit.
    """
    d = space.distances
    a1, a2, a3, a4 = (quads[0] if len(quads) == 1 else quads).swapaxes(0, -3)
    return (
        _act(a1, d(x, y))
        + _act(a2, d(x, tx))
        + _act(a3, d(y, ty))
        + _act(a4, d(x, ty))
        + _act(a4, d(y, tx))
        - d(tx, ty)
    )


#: Relative margin on the evaluation of the rounding band.  Evaluating the
#: band rounds at most 2p + 16 times, a relative error below 2^-24 because
#: p <= TABLE_MAX_ELEMENTS = 2^27; the margin covers that and more.
BAND_MARGIN = 2.0**-20

#: Fewest pairs the fast products are used for.  Their fixed cost (the band
#: and some twenty array calls) outweighs the per-pair saving on smaller
#: spaces, which go through the reference kernel on every pair.  Timed on a
#: 2-core x86 VM (3-D orthant, constant family, one generated ladder per
#: size): the two paths cost the same at about 81 pairs, and at 4 pairs the
#: fast products cost 1.6 times the reference.
FAST_MIN_PAIRS = 100

#: Largest band scale the fast products are used for.  Below it no step of
#: either evaluation of a facet product can overflow (see
#: :func:`_facet_products`); at or above it every pair goes through the
#: reference kernel.
BAND_SCALE_LIMIT = 2.0**1000


def _facet_products(dist, t, quad, facets):
    """Facet products of every residual under one quadruple ``quad``, and their rounding band.

    Returns ``(products, band)``: ``products[f, i * N + j]`` is the product
    of facet f with the residual at ``(order[i], order[j])``, and it lies
    within ``band[f]`` of the product that the reference kernel and
    :func:`_act` compute (see :func:`check_hypotheses` for the derivation);
    or ``None`` when the band's scale reaches :data:`BAND_SCALE_LIMIT`.

    Each term takes one BLAS product over all pairs: ``F A_k`` against its
    distance, and ``F`` against ``d(Tx, Ty)``; ``d(x, Ty) + d(y, Tx)`` is
    summed before its product.

    Products that underflow add at most ``2^-1075`` each;
    ``2^-1019 p (p M + rowsum |F|_f + 1)`` covers them all.  The band is
    evaluated with a relative margin of :data:`BAND_MARGIN`.

    *Overflow.*  Every entry of ``F A_k``, of ``v`` and of ``|F| v`` is at
    most ``max(p max |F|, 1) (5 p max |A| + 1) max(M, 1)``, and every partial
    sum of either path at most ``(1 + γ)`` times an entry of ``v``
    (residuals) or of ``|F| v`` (products).  While that scale stays below
    :data:`BAND_SCALE_LIMIT`, nothing overflows, the band included.
    """
    n, p = dist.shape[0], dist.shape[2]
    abs_a, abs_f = np.abs(quad), np.abs(facets)
    big = max(float(dist.max()), -float(dist.min()))
    # in Python floats, so that an overflow reads inf without a warning
    scale = max(p * float(abs_f.max()), 1.0) * (5 * p * float(abs_a.max()) + 1.0) * max(big, 1.0)
    if not scale < BAND_SCALE_LIMIT:
        return None
    rows = abs_a.sum(axis=-1)
    v = big * (rows.sum(axis=0) + rows[3] + 1.0)  # A4 serves two terms
    gamma = (2 * p + 6) * 2.0**-53 / (1.0 - (2 * p + 6) * 2.0**-53)
    tiny = 2.0**-1019 * p * (p * big + abs_f.sum(axis=-1) + 1.0)
    band = (2.0 * gamma * (abs_f @ v) + tiny) * (1.0 + BAND_MARGIN)

    # np.take gathers several times faster than fancy indexing here
    flat = dist.reshape(n * n, p)
    d_x_tx = flat.take(np.arange(n) * n + t, axis=0)  # d(x, Tx)
    d_tx_ty = flat.take((t[:, None] * n + t).ravel(), axis=0)  # d(Tx, Ty)
    cross = dist.take(t, axis=1)  # [i, j]: d(x_i, T x_j)
    cross = (cross + cross.transpose(1, 0, 2)).reshape(n * n, p)  # ... + d(x_j, T x_i)
    # facets along the first axis: the broadcasts and the per-pair
    # reductions then run along long contiguous rows
    f1, f2, f3, f4 = facets @ quad
    products = (f1 @ flat.T).reshape(-1, n, n)
    products += (f2 @ d_x_tx.T)[:, :, None]
    products += (f3 @ d_x_tx.T)[:, None, :]
    products += (f4 @ cross.T).reshape(-1, n, n)
    products -= (facets @ d_tx_ty.T).reshape(-1, n, n)
    return products.reshape(-1, n * n), band


def _reference_failures(space: ConeMetricSpace, at, tol, pair_at, q) -> np.ndarray:
    """The sweep positions among ``q`` whose residual leaves the cone, in the order of ``q``.

    ``at(q)`` gives the arrays of :func:`_residuals` for the pairs at
    positions ``q``.  The first pair with a non-finite residual raises.
    """
    residuals = _residuals(space, *at(q))
    # whole-array tests first; the per-pair reductions only when one fails
    finite = np.isfinite(residuals)
    if not finite.all():
        x, y = pair_at(int(q[np.argmin(finite.all(axis=-1))]))
        raise ContractViolationError(f"contraction residual at ({x}, {y}) has non-finite entries")
    inside = _act(space.cone.facets, residuals) >= -tol
    return q[~inside.all(axis=-1)] if not inside.all() else np.empty(0, np.intp)


def _exhaustive_failures(space: ConeMetricSpace, t, stack, tol, decide) -> np.ndarray:
    """Flat positions of the pairs whose residual leaves the cone, in pair order.

    For a constant family, the fast products of :func:`_facet_products`
    decide every pair outside their band, ``hi`` and above a member and
    below ``lo`` not (see :func:`check_hypotheses`).  ``decide``, the
    reference (:func:`_reference_failures`), decides the rest, and every
    pair of a per-pair family or when the fast products cannot be used.
    """
    dist, facets = space.distance_tensor(), space.cone.facets
    n_pairs = dist.shape[0] ** 2
    fast = None
    if len(stack) == 1 and n_pairs >= FAST_MIN_PAIRS:
        fast = _facet_products(dist, t, stack[0], facets)
    if fast is None or not np.isfinite(fast[0]).all():
        return decide(np.arange(n_pairs))
    products, band = fast
    hi = np.nextafter(-tol + band, np.inf)[:, None]
    lo = np.nextafter(-tol - band, -np.inf)[:, None]
    above = products >= hi
    if above.all():
        return np.empty(0, np.intp)
    fails = (products < lo).any(axis=0)
    undecided = np.flatnonzero(~(fails | above.all(axis=0)))
    if undecided.size:
        fails[decide(undecided)] = True
    return np.flatnonzero(fails)


@dataclass(eq=False)
class Witness:
    """One failing pair with the data that convicts it."""

    condition: str
    x: object
    y: object
    detail: str
    value: float | None = None
    vector: np.ndarray | None = None


@dataclass(eq=False)
class HypothesisReport:
    """Outcome of a hypothesis sweep.

    ``alpha`` and ``beta`` are witnessed maxima over the checked pairs (the
    coefficient norm sum and the composite operator norm); ``exhaustive``
    distinguishes a verified finite sweep from a sampled one.
    ``conditions`` maps each name of :data:`CONDITIONS`, in that order, to
    whether the condition holds.
    """

    alpha: float
    beta: float
    k: float
    conditions: dict[str, bool]
    witnesses: list[Witness]
    pairs_checked: int
    exhaustive: bool
    alpha_pair: tuple | None = None
    beta_pair: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    def failing_conditions(self) -> list[str]:
        return [name for name, passed in self.conditions.items() if not passed]


MAX_WITNESSES = 25


def _label_pair(order):
    """The pair of labels at a position of the canonical (row-major) pair order."""
    n = len(order)
    return lambda i: (order[i // n], order[i % n])


def _resolve_pairs(space: ConeMetricSpace, pair_source):
    """Number of pairs, the pair at a sweep position, whether the sweep is exhaustive, and the sample.

    A sample is drawn at once: positions in the sorted labels ``(n, 2)``, or
    coordinates ``(n, 2, m)`` on R^m.  An exhaustive sweep has none.
    """
    if pair_source == "all":
        if not space.is_finite:
            raise ContractViolationError(
                "exhaustive pair sweeps need a finite space; use ('sampled', n, seed)"
            )
        order = space.points.order
        return len(order) ** 2, _label_pair(order), True, None
    if isinstance(pair_source, tuple) and len(pair_source) == 3 and pair_source[0] == "sampled":
        n, seed = int(pair_source[1]), int(pair_source[2])
        if n < 1:
            raise ContractViolationError("sampled pair source needs n >= 1")
        m, p = 1 if space.is_finite else space.points.m, space.cone.space.dim
        if max(n * 2 * m, n * p) > TABLE_MAX_ELEMENTS:
            raise ContractViolationError(f"sample of {n} pairs is too large ({n}x2x{m} points, "
                                         f"{n}x{p} residuals, limit {TABLE_MAX_ELEMENTS})")
        rng = np.random.default_rng(seed)
        # one draw gives the stream of one point at a time: any prefix of the
        # sample is unchanged, so enlarging n only adds pairs (monotonicity)
        if space.is_finite:
            order, index = space.points.order, space.points.index
            place = np.array([index[label] for label in space.points.labels], dtype=np.intp)
            points = place[rng.integers(0, len(place), (n, 2))]
            return n, lambda i: (order[points[i, 0]], order[points[i, 1]]), False, points
        points = rng.uniform(-10.0, 10.0, (n, 2, m))
        return n, lambda i: (points[i, 0], points[i, 1]), False, points
    raise ContractViolationError(f"unknown pair source {pair_source!r}")


def _operator_stats(stack: np.ndarray, cone: PolyhedralCone, tol: float):
    """Norm sums, invariance flags and composite norms of a ``(Q, 4, p, p)`` quadruple stack.

    Returns ``alpha`` ``(Q,)``; the flags of ``i3``, ``hb``, ``i4`` and ``i5``
    ``(Q, 4)``; the composite norms ``(Q,)``, NaN where the resolvent cannot
    be certified; and the ``i5`` detail of the first entry failing ``i5``.
    """
    space = cone.space
    norms = induced_norm(stack, space)
    alpha = norms[:, 0] + norms[:, 1] + norms[:, 2] + 2.0 * norms[:, 3]
    a1, a2, a3, a4 = stack.transpose(1, 0, 2, 3)
    inv, error = resolvent_stack(a3, a4, space)
    certified = ~np.isnan(inv[:, 0, 0])
    inv = np.where(certified[:, None, None], inv, 0.0)
    flags = invariance_check(np.stack((a1 + a2, a2, a4, inv), axis=1), cone, tol)
    flags[:, 3] &= certified
    s_norm = np.where(certified, induced_norm(inv @ (a1 + a2 + a4), space), np.nan)
    first = int(np.argmin(flags[:, 3]))
    detail = str(error) if not certified[first] else "resolvent maps a generator out of the cone"
    return alpha, flags, s_norm, detail


def check_hypotheses(
    space: ConeMetricSpace,
    mapping,
    coeffs,
    k: float | None = None,
    pair_source="all",
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> HypothesisReport:
    """Sweep the certifying conditions over a pair source.

    ``k`` defaults to the cone's declared normal constant.  Coefficients are
    fetched once per pair in sweep order (once in all for a constant
    family) into one quadruple stack, and the operator-level conditions are
    evaluated over the whole stack at once.  Every residual, of an
    exhaustive or a sampled sweep, comes from one array kernel over stacked
    pairs (:func:`_residuals`), which equals :func:`contraction_residual`
    bit for bit; a sample is drawn at once, and on R^m the images of its
    points are stacked products.  Ties in the witnessed maxima
    are broken by the first pair in sweep order, and witnesses are listed in
    sweep order, so the report is independent of how the residuals were
    evaluated.

    Under a constant family, the exhaustive sweep decides membership from
    facet products computed straight from the distance tensor
    (:func:`_facet_products`), inside a proven rounding band around the
    products of the reference (:func:`_residuals`, then :func:`_act`).  The
    reference runs only on the pairs inside the band, on the witnesses, and
    on every pair of a sampled sweep, of a per-pair family, of a space with
    fewer than :data:`FAST_MIN_PAIRS` pairs or of one whose band scale
    reaches :data:`BAND_SCALE_LIMIT`; so every field of the report is what
    a pair-by-pair sweep gives, bit for bit.

    *Band.*  At a pair, write ``w = |A1||d1| + |A2||d2| + |A3||d3| +
    |A4|(|d4| + |d5|) + |d6|`` for the distances ``d(x, y)``, ``d(x, Tx)``,
    ``d(y, Ty)``, ``d(x, Ty)``, ``d(y, Tx)`` and ``d(Tx, Ty)``, and ``γ_n =
    n u / (1 - n u)`` with ``u = 2^-53``.  The reference rounds ``A_k d_k``
    (a dot product of length p, error at most ``γ_p |A_k||d_k|``), five
    additions, and ``F r`` (``γ_p`` again), so its product is within
    ``γ_{2p+5} (|F| w)_f`` of the exact ``(F r)_f`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1).  The fast products round
    ``F A_k`` and its product with ``d_k``, the sum ``d4 + d5`` and five
    additions: within ``γ_{2p+6} (|F| w)_f``.  Both bounds hold for any
    summation order and with fused multiply-adds.  With ``M = max |D|``,
    ``w <= v = M (rowsum |A1| + rowsum |A2| + rowsum |A3| + 2 rowsum |A4| +
    1)``, so the two
    products differ by at most ``band_f = 2 γ_{2p+6} (|F| v)_f``.  A fast
    product at or above ``nextafter(-tol + band, +inf)`` therefore has its
    reference product at or above ``-tol``, and one below
    ``nextafter(-tol - band, -inf)`` has it below: a pair whose products all
    clear the first is a member, a pair with one below the second is not,
    and the meaning of ``tol`` is unchanged.
    """
    k = space.cone.normal_constant if k is None else float(k)
    if k < 1.0:
        raise ContractViolationError("normal constant must be >= 1")
    n_pairs, pair_at, exhaustive, points = _resolve_pairs(space, pair_source)
    cone = space.cone
    # quadruple q serves sweep position q; a constant family's one serves all
    count = 1 if getattr(coeffs, "is_constant", False) else n_pairs
    p = cone.space.dim
    if count > 1 and count * 4 * p * p > TABLE_MAX_ELEMENTS:
        raise ContractViolationError(f"coefficients of {count} pairs are too large "
                                     f"({count}x4x{p}x{p} entries, limit {TABLE_MAX_ELEMENTS})")
    quads = [coeffs.at(*pair_at(q)) for q in range(count)]
    try:
        stack = np.array(quads, dtype=float)
    except ValueError:
        shape = np.shape(quads[0])
        for q, quad in enumerate(quads):
            if np.shape(quad) != shape:
                x, y = pair_at(q)
                raise ContractViolationError(
                    f"coefficients at ({x}, {y}) have shape {np.shape(quad)}, "
                    f"unlike {shape} at the first pair"
                ) from None
        raise
    if stack.shape != (count, 4, p, p):
        raise ContractViolationError("operator and cone live in different dimensions")
    if not np.isfinite(stack).all():  # a callback's matrices are checked nowhere else
        raise ContractViolationError("coefficients have non-finite entries")
    alphas, flags, s_norms, i5_detail = _operator_stats(stack, cone, tol)

    if space.is_finite:
        t = space.image_indices(mapping)
        image = t.__getitem__
    else:
        if not isinstance(mapping, AffineMapping):
            mapping.apply(space, points[0, 0])  # a table mapping refuses R^m here

        def image(u):  # bit for bit AffineMapping.apply, on stacked points
            return _act(mapping.b, u) + mapping.c

    def at(q):
        """The arrays of :func:`_residuals` for the pairs at sweep positions ``q``."""
        x, y = np.divmod(q, len(t)) if exhaustive else (points[q, 0], points[q, 1])
        return x, y, image(x), image(y), stack if len(stack) == 1 else stack[q]

    def decide(q):
        return _reference_failures(space, at, tol, pair_at, q)

    failing = _exhaustive_failures(space, t, stack, tol, decide) if exhaustive else decide(np.arange(n_pairs))
    convicted = failing[:MAX_WITNESSES]
    if convicted.size:
        residuals = _residuals(space, *at(convicted))
        worsts = np.min(_act(cone.facets, residuals), axis=-1)

    # (sweep position, rank within the pair, witness); sorting restores the
    # order in which a pair-by-pair sweep meets them.
    events = []
    passes = flags.all(axis=0)
    firsts = np.argmin(flags, axis=0)
    for rank, name in enumerate(CONDITIONS[2:6]):  # the operator-level conditions of ``flags``
        if not passes[rank]:
            q = int(firsts[rank])
            detail = i5_detail if name == "i5" else f"{name}: operator maps a generator out of the cone"
            events.append((q, rank, Witness(name, *pair_at(q), detail)))
    for row, i in enumerate(convicted):
        worst = float(worsts[row])
        detail = f"residual leaves the cone (worst facet product {worst:.6g})"
        events.append((int(i), 4, Witness("contraction", *pair_at(i), detail, worst, residuals[row])))
    witnesses = [w for _, _, w in sorted(events, key=lambda e: e[:2])]

    a_at = int(np.argmax(alphas))
    alpha, alpha_pair = float(alphas[a_at]), pair_at(a_at)
    i1 = alpha < 1.0 / k
    if not i1:
        detail = f"coefficient norm sum {alpha:.17g} is not below 1/k = {1.0 / k:.17g}"
        witnesses.append(Witness("i1", *alpha_pair, detail, alpha))
    defined = ~np.isnan(s_norms)
    beta_defined = bool(defined.all())
    beta, beta_pair = float("nan"), None
    if defined.any():
        b_at = int(np.nanargmax(s_norms))
        beta, beta_pair = float(s_norms[b_at]), pair_at(b_at)
    i2 = beta_defined and beta < 1.0
    if beta_defined and not i2:
        detail = f"composite operator norm {beta:.17g} is not below 1"
        witnesses.append(Witness("i2", *beta_pair, detail, beta))

    return HypothesisReport(
        alpha=alpha, beta=beta, k=k,
        conditions=dict(zip(CONDITIONS, [i1, i2, *passes.tolist(), failing.size == 0])),
        witnesses=witnesses[:MAX_WITNESSES], pairs_checked=n_pairs, exhaustive=exhaustive,
        alpha_pair=alpha_pair, beta_pair=beta_pair,
    )


# ---------------------------------------------------------------------------
# Metric axiom suite
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MetricAxiomReport:
    """Outcome of the metric axiom sweep.

    ``axioms`` maps ``"a"`` (positivity), ``"b"`` (symmetry) and ``"c"``
    (triangle), in that order, to whether the axiom holds.
    """

    axioms: dict[str, bool]
    pairs_checked: int
    triples_checked: int
    route: str  # "sweep" (a table) or "construction" (a lifted metric)
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.axioms.values())


MAX_MESSAGES = 25


def check_metric_axioms(
    space: ConeMetricSpace, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> MetricAxiomReport:
    """Check the metric axioms without sampling: a table by a sweep, a lift by construction.

    Axiom (a): distances are cone members, vanish exactly on the diagonal,
    and are nonzero off it.  Axiom (b): symmetry.  Axiom (c): the triangle
    slack ``d(x,z) + d(z,y) - d(x,y)`` is a cone member.

    A table metric (route ``sweep``) is swept over all pairs and triples of
    its distance tensor, the triangles one first point at a time; failures
    are noted in canonical (pair, then triple) order.

    A lifted metric ``rho * w`` (route ``construction``) satisfies the
    axioms exactly because ``rho`` is a metric and ``w`` a nonzero cone
    element, so only what the construction does not give is tested: that
    ``w`` is a cone member under ``tol`` (the space was built under the
    default tolerance), and, on a finite space, that no two distinct labels
    have a computed ``d_norm`` of zero.  Positions may coincide, and a
    computed distance can underflow; the solver stops on a zero step, so
    the norm is tested, not the position.  The first such pair in canonical
    order is named.  On R^m no pair is tested.  Exact arithmetic is meant:
    a computed ``rho`` may break the triangle inequality by a few ulps.
    """
    cone = space.cone
    messages: list[str] = []
    if isinstance(space.metric, LiftedMetric):
        a_ok = bool(cone_members(cone, space.metric.weight, tol))
        if not a_ok:
            messages.append("axiom (a): the metric weight is not a cone member")
        pairs_checked = 0
        if space.is_finite:
            order = space.points.order
            n = len(order)
            vanishing = space.norm_table() == 0.0
            vanishing[np.diag_indices(n)] = False
            if vanishing.any():
                x, y = divmod(int(vanishing.argmax()), n)
                messages.append(f"axiom (a): d({order[x]}, {order[y]}) vanishes for distinct points")
                a_ok = False
            pairs_checked = n * n
        axioms = {"a": a_ok, "b": True, "c": True}
        return MetricAxiomReport(axioms, pairs_checked, 0, "construction", messages)

    order = space.points.order
    n = len(order)
    pair_at = _label_pair(order)
    dist = space.distance_tensor()
    dist_t = np.ascontiguousarray(dist.transpose(1, 0, 2))  # [y, z]: d(z, y)
    dxy = dist.reshape(n * n, -1)
    same = np.eye(n, dtype=bool).ravel()
    member = cone_members(cone, dxy, tol)
    norms = cone.space.norms(dxy)
    nonzero = same & (norms > tol)
    vanishing = ~same & (norms <= tol)
    asymmetric = cone.space.norms(dxy - dist_t.reshape(n * n, -1)) > tol
    for i in np.flatnonzero(~member | nonzero | vanishing | asymmetric)[:MAX_MESSAGES]:
        x, y = pair_at(i)
        if not member[i]:
            messages.append(f"axiom (a): d({x}, {y}) is not a cone member")
        if nonzero[i]:
            messages.append(f"axiom (a): d({x}, {x}) = {norms[i]:.6g} is nonzero")
        if vanishing[i]:
            messages.append(f"axiom (a): d({x}, {y}) vanishes for distinct points")
        if asymmetric[i]:
            messages.append(f"axiom (b): d({x}, {y}) != d({y}, {x})")
    del messages[MAX_MESSAGES:]
    a_ok = bool(member.all() and not nonzero.any() and not vanishing.any())
    c_ok = True
    for x in range(n):
        slack = (dist[x][None, :] + dist_t) - dist[x][:, None]  # [y, z]
        fails = np.flatnonzero(~cone_members(cone, slack, tol))
        for i in fails[: MAX_MESSAGES - len(messages)]:
            y, z = pair_at(i)
            messages.append(f"axiom (c): triangle slack for ({order[x]}, {z}, {y}) leaves the cone")
        c_ok = c_ok and fails.size == 0
        if not c_ok and len(messages) >= MAX_MESSAGES:
            break  # the verdict and the messages are settled
    axioms = {"a": a_ok, "b": not bool(asymmetric.any()), "c": c_ok}
    return MetricAxiomReport(axioms, n * n, n**3, "sweep", messages)
