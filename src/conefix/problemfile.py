"""Strict parser for JSON problem files.

Unknown keys anywhere in the document are rejected before any computation
runs, and every numeric array is checked for rectangularity and dimension
consistency with the declared ``dim``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cones import NORM_KINDS, NormedSpace, PolyhedralCone
from .contraction import (
    AffineMapping,
    ConeMetricSpace,
    ConstantCoefficients,
    EuclideanPoints,
    FinitePoints,
    LiftedMetric,
    PerPairCoefficients,
    TableMapping,
    TableMetric,
)
from .errors import ConefixError, ProblemFileError
from .linops import LinearOperator

TOP_KEYS = {"space", "mapping", "coefficients", "solve", "check", "normal_constant"}
SPACE_KEYS = {"dim", "norm", "cone", "metric"}
CONE_KEYS = {"generators", "facets", "normal_constant"}
METRIC_KEYS = {"kind", "base", "weight", "labels", "positions", "m", "entries"}
MAPPING_KEYS = {"kind", "table", "B", "c"}
COEFF_KEYS = {"kind", "A1", "A2", "A3", "A4", "table"}
COEFF_ENTRY_KEYS = {"x", "y", "A1", "A2", "A3", "A4"}
SOLVE_KEYS = {"x0", "eps", "max_iter", "beta"}
CHECK_KEYS = {"pair_source", "tol", "alpha", "beta"}
PAIR_SOURCE_KEYS = {"sampled"}
SAMPLED_KEYS = {"n", "seed"}


@dataclass(eq=False)
class SolveParams:
    x0: object
    eps: float
    max_iter: int | None = None
    beta: float | None = None


@dataclass(eq=False)
class CheckParams:
    pair_source: object = "all"
    tol: float | None = None
    alpha: float | None = None
    beta: float | None = None


@dataclass(eq=False)
class Problem:
    space: ConeMetricSpace
    mapping: object | None
    coeffs: object | None
    solve: SolveParams | None
    check: CheckParams


def _require_keys(obj, allowed, section):
    if not isinstance(obj, dict):
        raise ProblemFileError(f"expected an object, got {type(obj).__name__}", section)
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemFileError(f"unknown key(s) {sorted(unknown)}", section)


def _get(obj, key, section, required=True, default=None):
    if key not in obj:
        if required:
            raise ProblemFileError(f"missing required key {key!r}", section)
        return default
    return obj[key]


def _number(value, section, integer=False):
    """A JSON number as a finite float, or as an int when ``integer``; bools are neither."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        expected = "an integer" if integer else "a number"
        raise ProblemFileError(f"expected {expected}, got {value!r}", section)
    if integer:
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProblemFileError(f"expected a finite number, got {number}", section)
    return number


def _reject_constant(token):
    raise ProblemFileError(f"non-finite number {token} is not allowed", "document")


def _matrix(value, dim, section):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"not a numeric array: {exc}", section) from None
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ProblemFileError(
            f"expected a rectangular array with rows of length {dim}, got shape {arr.shape}",
            section,
        )
    return arr


def _vector(value, dim, section):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"not a numeric vector: {exc}", section) from None
    if arr.shape != (dim,):
        raise ProblemFileError(f"expected a vector of length {dim}, got shape {arr.shape}", section)
    return arr


def _parse_norm(value, dim, section):
    if isinstance(value, str):
        if value not in NORM_KINDS or value == "weighted":
            raise ProblemFileError(f"unknown norm {value!r}", section)
        return NormedSpace(dim, value)
    if isinstance(value, dict):
        _require_keys(value, {"weighted"}, section)
        weights = _vector(value["weighted"], dim, section)
        return NormedSpace(dim, "weighted", tuple(weights.tolist()))
    raise ProblemFileError("norm must be a name or {\"weighted\": [...]}", section)


def _parse_space(doc, top_normal_constant):
    section = "space"
    block = _get(doc, "space", "top level")
    _require_keys(block, SPACE_KEYS, section)
    dim = _number(_get(block, "dim", section), f"{section}.dim", integer=True)
    if dim < 1:
        raise ProblemFileError("dim must be a positive integer", section)
    space = _parse_norm(_get(block, "norm", section), dim, f"{section}.norm")

    cone_block = _get(block, "cone", section)
    _require_keys(cone_block, CONE_KEYS, f"{section}.cone")
    generators = _matrix(_get(cone_block, "generators", f"{section}.cone"), dim, f"{section}.cone.generators")
    facets = _matrix(_get(cone_block, "facets", f"{section}.cone"), dim, f"{section}.cone.facets")
    k = _get(cone_block, "normal_constant", f"{section}.cone", required=False, default=1.0)
    k = _number(k, f"{section}.cone.normal_constant")
    if top_normal_constant is not None:
        k = top_normal_constant
    try:
        cone = PolyhedralCone(space, generators, facets, normal_constant=k)
    except ConefixError as exc:
        raise ProblemFileError(str(exc), f"{section}.cone") from None

    metric_block = _get(block, "metric", section)
    _require_keys(metric_block, METRIC_KEYS, f"{section}.metric")
    kind = _get(metric_block, "kind", f"{section}.metric")
    msec = f"{section}.metric"
    if kind == "lifted":
        base = _get(metric_block, "base", msec)
        weight = _vector(_get(metric_block, "weight", msec), dim, f"{msec}.weight")
        if "labels" in metric_block:
            labels = tuple(str(l) for l in metric_block["labels"])
            positions = None
            if "positions" in metric_block:
                positions = {
                    str(lbl): np.atleast_1d(np.asarray(v, dtype=float))
                    for lbl, v in metric_block["positions"].items()
                }
            points = FinitePoints(labels, positions)
        else:
            m = _number(_get(metric_block, "m", msec), f"{msec}.m", integer=True)
            if m < 1:
                raise ProblemFileError("m must be a positive integer", msec)
            points = EuclideanPoints(m)
        metric = LiftedMetric(base, weight)
    elif kind == "table":
        labels = _get(metric_block, "labels", msec)
        entries_raw = _get(metric_block, "entries", msec)
        entries = {}
        for item in entries_raw:
            if not (isinstance(item, list) and len(item) == 3):
                raise ProblemFileError("table entries must be [x, y, vector] triples", msec)
            a, b, vec = item
            entries[(str(a), str(b))] = _vector(vec, dim, f"{msec}.entries")
        points = FinitePoints(tuple(str(l) for l in labels))
        metric = TableMetric(entries)
    else:
        raise ProblemFileError(f"unknown metric kind {kind!r}", msec)

    try:
        return ConeMetricSpace(cone, points, metric)
    except ConefixError as exc:
        raise ProblemFileError(str(exc), section) from None


def _parse_mapping(doc, space):
    if "mapping" not in doc:
        return None
    section = "mapping"
    block = doc["mapping"]
    _require_keys(block, MAPPING_KEYS, section)
    kind = _get(block, "kind", section)
    if kind == "table":
        table = _get(block, "table", section)
        if not isinstance(table, dict):
            raise ProblemFileError("mapping table must be an object", section)
        mapping = TableMapping({str(a): str(b) for a, b in table.items()})
        if space.is_finite:
            missing = set(space.labels) - set(mapping.table)
            stray = set(mapping.table) - set(space.labels)
            bad_targets = {v for v in mapping.table.values() if v not in space.labels}
            if missing or stray or bad_targets:
                raise ProblemFileError(
                    "mapping table must be total over the point labels and map into them",
                    section,
                )
        return mapping
    if kind == "affine":
        if space.is_finite:
            raise ProblemFileError("affine mappings need a euclidean point domain", section)
        m = space.points.m
        b = _matrix(_get(block, "B", section), m, f"{section}.B")
        if b.shape[0] != m:
            raise ProblemFileError(f"B must be {m}x{m}", f"{section}.B")
        c = _vector(_get(block, "c", section), m, f"{section}.c")
        return AffineMapping(b, c)
    raise ProblemFileError(f"unknown mapping kind {kind!r}", section)


def _parse_operator(value, space, section):
    mat = _matrix(value, space.dim, section)
    if mat.shape[0] != space.dim:
        raise ProblemFileError(f"operator must be {space.dim}x{space.dim}", section)
    try:
        return LinearOperator(mat, space)
    except ConefixError as exc:
        raise ProblemFileError(str(exc), section) from None


def _parse_coefficients(doc, space):
    if "coefficients" not in doc:
        return None
    section = "coefficients"
    block = doc["coefficients"]
    _require_keys(block, COEFF_KEYS, section)
    kind = _get(block, "kind", section)
    ambient = space.cone.space
    if kind == "constant":
        ops = tuple(
            _parse_operator(_get(block, name, section), ambient, f"{section}.{name}")
            for name in ("A1", "A2", "A3", "A4")
        )
        return ConstantCoefficients(*ops)
    if kind == "per_pair":
        entries_raw = _get(block, "table", section)
        table = {}
        for item in entries_raw:
            _require_keys(item, COEFF_ENTRY_KEYS, f"{section}.table")
            x = str(_get(item, "x", f"{section}.table"))
            y = str(_get(item, "y", f"{section}.table"))
            ops = tuple(
                _parse_operator(_get(item, name, f"{section}.table"), ambient, f"{section}.table.{name}")
                for name in ("A1", "A2", "A3", "A4")
            )
            table[(x, y)] = ops
        return PerPairCoefficients(table)
    raise ProblemFileError(f"unknown coefficients kind {kind!r}", section)


def _parse_solve(doc, space):
    if "solve" not in doc:
        return None
    section = "solve"
    block = doc["solve"]
    _require_keys(block, SOLVE_KEYS, section)
    x0_raw = _get(block, "x0", section)
    if space.is_finite:
        x0 = str(x0_raw)
        if x0 not in space.labels:
            raise ProblemFileError(f"x0 {x0!r} is not a point label", section)
    else:
        x0 = _vector(
            x0_raw if isinstance(x0_raw, list) else [x0_raw], space.points.m, f"{section}.x0"
        )
    eps = _number(_get(block, "eps", section), f"{section}.eps")
    if eps <= 0:
        raise ProblemFileError("eps must be positive", section)
    max_iter = _get(block, "max_iter", section, required=False)
    beta = _get(block, "beta", section, required=False)
    return SolveParams(
        x0=x0,
        eps=eps,
        max_iter=None if max_iter is None else _number(max_iter, f"{section}.max_iter", integer=True),
        beta=None if beta is None else _number(beta, f"{section}.beta"),
    )


def _parse_check(doc):
    if "check" not in doc:
        return CheckParams()
    section = "check"
    block = doc["check"]
    _require_keys(block, CHECK_KEYS, section)
    source = _get(block, "pair_source", section, required=False, default="all")
    if isinstance(source, dict):
        _require_keys(source, PAIR_SOURCE_KEYS, f"{section}.pair_source")
        sampled = source["sampled"]
        _require_keys(sampled, SAMPLED_KEYS, f"{section}.pair_source.sampled")
        ssec = f"{section}.pair_source.sampled"
        n = _number(_get(sampled, "n", ssec), f"{ssec}.n", integer=True)
        seed = _get(sampled, "seed", ssec, required=False, default=0)
        seed = _number(seed, f"{ssec}.seed", integer=True)
        if seed < 0:
            raise ProblemFileError("seed must be nonnegative", ssec)
        source = ("sampled", n, seed)
    elif source != "all":
        raise ProblemFileError(f"unknown pair source {source!r}", section)
    tol = _get(block, "tol", section, required=False)
    alpha = _get(block, "alpha", section, required=False)
    beta = _get(block, "beta", section, required=False)
    return CheckParams(
        pair_source=source,
        tol=None if tol is None else _number(tol, f"{section}.tol"),
        alpha=None if alpha is None else _number(alpha, f"{section}.alpha"),
        beta=None if beta is None else _number(beta, f"{section}.beta"),
    )


def parse_problem_text(text: str) -> Problem:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON: {exc}", "document") from None
    _require_keys(doc, TOP_KEYS, "top level")
    top_k = doc.get("normal_constant")
    space = _parse_space(doc, None if top_k is None else _number(top_k, "normal_constant"))
    mapping = _parse_mapping(doc, space)
    coeffs = _parse_coefficients(doc, space)
    solve = _parse_solve(doc, space)
    check = _parse_check(doc)
    return Problem(space=space, mapping=mapping, coeffs=coeffs, solve=solve, check=check)


def parse_problem_file(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(str(exc), "file") from None
    return parse_problem_text(text)
