"""Polyhedral cones in normed coordinate spaces and the order they induce.

A cone P is kept in two descriptions at once: a finite generator list
(P is their conic hull) and a facet-normal list (P is the intersection of
the halfspaces ``<f_i, v> >= 0``).  Holding both makes membership, order
comparisons, and operator-invariance checks finite, so every inequality the
solver relies on can be audited numerically.

The partial order is ``x <= y  iff  y - x in P``.  A cone is *normal* with
constant k when ``0 <= x <= y`` forces ``norm(x) <= k * norm(y)``; k >= 1
always, and declared constants are audited by sampling because computing
the exact constant is a hard optimization in general.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

NORM_KINDS = ("one", "two", "infinity", "weighted")

#: Absolute tolerance on facet inner products for membership tests.
DEFAULT_MEMBERSHIP_TOL = 1e-9

#: Both generator and facet lists must be supplied; beyond this dimension
#: maintaining the dual description by hand stops being reasonable.
MAX_CONE_DIM = 16

#: Declared normal constants are rejected when the sampled lower bound
#: exceeds them by more than this relative slack.
NORMAL_CONSTANT_AUDIT_RTOL = 1e-9


def euclidean_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit-identical to per-vector ``np.linalg.norm``.

    A stack of 1 x n by n x 1 products goes through the same dot routine
    as ``np.linalg.norm`` of one vector, where a reduction such as
    ``sqrt(sum(v * v))`` rounds differently in the last bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class NormedSpace:
    """Ambient coordinate space R^dim with a selectable norm.

    ``kind`` is one of ``one``, ``two``, ``infinity``, ``weighted``.  The
    weighted norm is ``max_i weights[i] * |v_i|`` with strictly positive
    weights, so it stays equivalent to the infinity norm and keeps induced
    operator norms exactly computable.
    """

    dim: int
    kind: str = "two"
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolationError("space dimension must be >= 1")
        if self.kind not in NORM_KINDS:
            raise ContractViolationError(
                f"unknown norm kind {self.kind!r}; expected one of {NORM_KINDS}"
            )
        if self.kind == "weighted":
            if self.weights is None or len(self.weights) != self.dim:
                raise ContractViolationError("weighted norm needs one weight per coordinate")
            if any(w <= 0 for w in self.weights):
                raise ContractViolationError("weighted norm weights must be strictly positive")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        elif self.weights is not None:
            raise ContractViolationError(f"norm kind {self.kind!r} takes no weights")

    def as_vector(self, v) -> np.ndarray:
        """Validate and return ``v`` as a float array of length ``dim``."""
        arr = np.asarray(v, dtype=float)
        if arr.shape != (self.dim,):
            raise ContractViolationError(
                f"vector of shape {arr.shape} does not live in R^{self.dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("vector has non-finite entries")
        return arr

    def norm(self, v) -> float:
        return float(self.norms(self.as_vector(v)))

    def norms(self, v) -> np.ndarray:
        """Norms of a stack of vectors, taken along the last axis.

        Each equals :meth:`norm` of that vector bit for bit, but the stack
        is not validated: callers check shapes and finiteness themselves.
        """
        a = np.abs(np.asarray(v, dtype=float))
        if self.kind == "one":
            return a.sum(axis=-1)
        if self.kind == "two":
            return euclidean_norms(a)
        if self.kind == "weighted":
            a = np.asarray(self.weights) * a
        # an elementwise maximum over the coordinates is exact like ``max``,
        # and far faster than a reduction along a short last axis
        return functools.reduce(np.maximum, np.moveaxis(a, -1, 0))


@dataclass(eq=False)
class PolyhedralCone:
    """Closed convex pointed cone, described by generators and facet normals.

    The constructor enforces only hard contracts (shapes, finiteness,
    ``normal_constant >= 1``, at least one nonzero generator); the axioms
    themselves are checked by :func:`validate_cone`, which reports failures
    instead of raising, so deliberately broken cones can be diagnosed.
    """

    space: NormedSpace
    generators: np.ndarray
    facets: np.ndarray
    normal_constant: float = 1.0
    solid: bool = field(init=False)

    def __post_init__(self):
        p = self.space.dim
        if p > MAX_CONE_DIM:
            raise ContractViolationError(f"cone dimension {p} exceeds supported max {MAX_CONE_DIM}")
        self.generators = np.atleast_2d(np.asarray(self.generators, dtype=float))
        self.facets = np.atleast_2d(np.asarray(self.facets, dtype=float))
        if self.generators.shape[1] != p or self.facets.shape[1] != p:
            raise ContractViolationError("generator/facet rows must match the space dimension")
        if not (np.all(np.isfinite(self.generators)) and np.all(np.isfinite(self.facets))):
            raise ContractViolationError("cone data has non-finite entries")
        if self.generators.shape[0] == 0 or not np.any(self.generators):
            raise ContractViolationError("cone needs at least one nonzero generator")
        if self.facets.shape[0] == 0:
            raise ContractViolationError("cone needs at least one facet normal")
        self.normal_constant = float(self.normal_constant)
        if self.normal_constant < 1.0:
            raise ContractViolationError(
                "normal constant must be >= 1 (there are no normal cones below 1)"
            )
        self.solid = self._probe_solid()

    def _probe_solid(self) -> bool:
        # A strictly feasible point certifies a nonempty interior; the sum of
        # generators is strictly inside for every solid cone we support.
        candidate = self.generators.sum(axis=0)
        products = self.facets @ candidate
        return bool(np.all(products > 0))


def orthant(space: NormedSpace, normal_constant: float = 1.0) -> PolyhedralCone:
    """Nonnegative orthant of ``space``: generators and facets are the basis vectors."""
    eye = np.eye(space.dim)
    return PolyhedralCone(space, eye.copy(), eye.copy(), normal_constant=normal_constant)


def cone_members(
    cone: PolyhedralCone, vectors, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> np.ndarray:
    """Membership of each vector along the last axis of a stack: every facet product is >= -tol.

    One vector gives a 0-d boolean array.  The last axis must have the
    cone's dimension and every entry must be finite.
    """
    if tol < 0:
        raise ContractViolationError("membership tolerance must be nonnegative")
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != cone.space.dim:
        raise ContractViolationError(
            f"vectors of shape {arr.shape} do not live in R^{cone.space.dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError("vector has non-finite entries")
    # one facets-by-column product per vector rounds like ``facets @ v``
    return np.all((cone.facets @ arr[..., None])[..., 0] >= -tol, axis=-1)


@dataclass(eq=False)
class ValidationReport:
    """Per-axiom outcome of :func:`validate_cone`."""

    nonzero_pass: bool
    pointed_pass: bool
    generators_consistent: bool
    solid: bool
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.nonzero_pass and self.pointed_pass and self.generators_consistent


def validate_cone(cone: PolyhedralCone, tol: float = DEFAULT_MEMBERSHIP_TOL) -> ValidationReport:
    """Check the cone axioms and the generator/facet consistency, without sampling.

    Nonzero: some generator has positive norm.  Consistency: every
    generator satisfies every facet inequality, ``G ⊆ P_F``.  Conic closure
    needs no test of its own: ``P_F = {v : F v >= 0}`` is a convex cone, so
    consistency already puts every nonnegative combination of generators
    in it.  Pointedness: no generator's negation is a member, and the facet
    matrix has full column rank (otherwise its null space gives a nonzero v
    with both v and -v members).  Each membership test is one
    :func:`cone_members` call over the generator stack.

    Failures are reported, not raised.
    """
    messages: list[str] = []
    gens = cone.generators
    gen_norms = np.linalg.norm(gens, axis=1)
    nonzero = bool(np.any(gen_norms > tol))
    if not nonzero:
        messages.append("axiom (i): all generators are numerically zero")

    outside = np.flatnonzero(~cone_members(cone, gens, tol))
    for i in outside:
        messages.append(f"consistency: generator {i} violates a facet inequality")

    two_sided = np.flatnonzero((gen_norms > tol) & cone_members(cone, -gens, tol))
    for i in two_sided:
        messages.append(f"axiom (iii): generator {i} and its negation are both members")
    # Null space of the facet matrix is exactly P intersect -P for the facet
    # description; a rank deficiency exhibits a nonzero such v.
    full_rank = np.linalg.matrix_rank(cone.facets, tol=1e-12) == cone.space.dim
    if not full_rank:
        messages.append("axiom (iii): facet matrix is rank deficient, P ∩ -P contains a line")

    return ValidationReport(
        nonzero_pass=nonzero,
        pointed_pass=bool(full_rank and two_sided.size == 0),
        generators_consistent=outside.size == 0,
        solid=bool(cone.solid),
        messages=messages,
    )


def normal_constant_lower_bound(
    cone: PolyhedralCone,
    n_samples: int = 512,
    seed: int = 0,
) -> float:
    """Sampled lower bound on the normal constant of the cone.

    Draws ordered pairs ``0 <= x <= y`` (built as x and x + q with x, q
    nonnegative combinations of the generators) and returns the largest
    ratio ``norm(x) / norm(y)``.  The sample always includes x = y, so the
    result is >= 1 up to roundoff.  Deterministic given the seed.
    """
    if n_samples < 1:
        raise ContractViolationError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    gens = cone.generators
    n_gen, p = gens.shape
    # Fixed pairs: (sum, sum), (g, g), and x = g_i, y = g_i + t * g_j, which
    # probe obtuse generator pairs, where ratios above 1 live.
    steps = np.array([0.25, 0.5, 0.8, 1.0, 1.5, 2.0])
    lifted = gens[:, None, None, :] + steps[None, None, :, None] * gens[None, :, None, :]
    base = gens.sum(axis=0)
    # One draw per sample and row: x-mask, x-coefficients, q-coefficients,
    # q-mask (the per-sample stream order, drawn at once).
    u = rng.uniform(0.0, 1.0, (n_samples, 4, n_gen))
    xs = (2.0 * u[:, 1] * (u[:, 0] < 0.7)) @ gens
    qs = (2.0 * u[:, 2] * (u[:, 3] < 0.7)) @ gens
    x = np.concatenate([base[None], gens, np.repeat(gens, n_gen * steps.size, axis=0), xs])
    y = np.concatenate([base[None], gens, lifted.reshape(-1, p), xs + qs])
    ny = cone.space.norms(y)
    keep = ny > 0.0
    return float(np.max(cone.space.norms(x[keep]) / ny[keep], initial=0.0))


def check_declared_normal_constant(
    cone: PolyhedralCone, n_samples: int = 512, seed: int = 0
) -> float:
    """Audit the declared normal constant against the sampled lower bound.

    Returns the bound; raises when it exceeds the declaration by more than
    the relative audit slack.
    """
    bound = normal_constant_lower_bound(cone, n_samples=n_samples, seed=seed)
    if bound > cone.normal_constant * (1.0 + NORMAL_CONSTANT_AUDIT_RTOL):
        raise ContractViolationError(
            "normal-constant audit failed: declared k = "
            f"{cone.normal_constant:.17g} but sampled lower bound is {bound:.17g}; "
            "the declaration must satisfy k >= audit"
        )
    return bound
