"""Strict parser for JSON problem files.

The format is one table, ``DOCUMENT``, with a nested table per section.  For
every key a :class:`Key` gives its type, whether it is required or else its
default, its array shape in terms of ``dim`` and ``m``, and the sign a number
must have.  A section with a ``kind`` has one table per kind (:class:`Kinds`),
so a key of another kind is an unknown key.  One walker, :func:`_section`,
checks that a block is an object, refuses unknown and missing keys, converts
and checks each value, fills in defaults and names the dotted key path in
every error.  The values of ``dim``, ``m`` and ``labels`` fix the shapes and
labels of the keys after them.  The ``_build_*`` functions only make the
space, mapping and coefficients from checked values; coefficient matrices
stay plain float arrays.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

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


@dataclass(eq=False)
class Problem:
    """A parsed problem; ``solve`` and ``check`` hold their sections' values by key."""

    space: ConeMetricSpace
    mapping: object | None
    coeffs: object | None
    solve: SimpleNamespace | None
    check: SimpleNamespace


class Key(NamedTuple):
    """One key of a section table."""

    type: object  # converter(value, path, key, dims), a nested table, or [table] for pair rows
    required: bool = True
    default: object = None
    shape: tuple = ()  # of an array: "dim", "m", or None for any length
    sign: str | None = None  # "positive" or "nonnegative"


class Kinds(dict):
    """One table per ``kind``, or a function of the block that picks one."""


#: Keys whose values later keys of the document are checked against.
BOUND = frozenset({"dim", "m", "labels"})
SIGNS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


def _section(block, table, path, dims):
    """Check ``block`` against ``table`` and return its converted values, defaults filled in.

    ``path`` is the block's dotted key path; ``dims`` holds the ``BOUND`` values
    met so far in the document, and the walk adds to it.
    """
    where = path or "top level"
    if not isinstance(block, dict):
        raise ProblemFileError(f"expected an object, got {type(block).__name__}", where)
    if isinstance(table, Kinds):
        kind = block.get("kind")
        if not (isinstance(kind, str) and kind in table):
            raise ProblemFileError(
                f"unknown kind {kind!r}" if "kind" in block else "missing required key 'kind'", where
            )
        table = table[kind](block) if callable(table[kind]) else table[kind]
        table = {"kind": Key(_label), **table}
    unknown = block.keys() - table.keys()
    if unknown:
        raise ProblemFileError(f"unknown key(s) {sorted(unknown)}", where)
    values = {}
    for name, key in table.items():
        sub = f"{path}.{name}" if path else name
        if name not in block:
            if key.required:
                raise ProblemFileError(f"missing required key {name!r}", where)
            values[name] = key.default
            continue
        value = block[name]
        if isinstance(key.type, list):
            rows = [_section(v, key.type[0], f"{sub}.{i}", dims) for i, v in enumerate(_list(value, sub))]
            value = _by_pair([(row["x"], row["y"], row) for row in rows], sub)
        elif isinstance(key.type, dict):
            value = _section(value, key.type, sub, dims)
        else:
            value = key.type(value, sub, key, dims)
        if key.sign and value is not None and not SIGNS[key.sign](value):
            raise ProblemFileError(f"{name} must be {key.sign}, got {value!r}", where)
        values[name] = value
        if name in BOUND:
            dims[name] = frozenset(value) if name == "labels" else value
    return values


def _number(value, path, key, dims, integer=False):
    """A JSON number as a finite float, or as an int when ``integer``; bools are neither.

    null leaves out an optional number that has no default.
    """
    if value is None and key.default is None and not key.required:
        return None
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ProblemFileError(f"expected {'an integer' if integer else 'a number'}, got {value!r}", path)
    if not integer:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ProblemFileError(f"expected a finite number, got {value}", path)
    return value


_int = functools.partial(_number, integer=True)


def _label(value, path, key, dims):
    return str(value)


def _list(value, path):
    if not isinstance(value, list):
        raise ProblemFileError(f"expected a list, got {value!r}", path)
    return value


def _labels(value, path, key, dims):
    return tuple(str(label) for label in _list(value, path))


def _floats(value, path):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"not a numeric array: {exc}", path) from None


def _array(value, path, key, dims):
    """A float array of shape ``key.shape``: sizes named in ``dims``, or None for any."""
    if "m" in key.shape and "m" not in dims:  # a finite space has no R^m
        raise ProblemFileError("needs a euclidean point domain", path)
    arr = _floats(value, path)
    # dims has no None key, so dims.get(None, n) lets an axis of any length n through
    if arr.ndim != len(key.shape) or arr.shape != tuple(map(dims.get, key.shape, arr.shape)):
        shape = "x".join(str(dims[s]) if s else "n" for s in key.shape)
        raise ProblemFileError(f"expected an array of shape {shape}, got shape {arr.shape}", path)
    if not np.isfinite(arr).all():
        raise ProblemFileError("expected finite array entries", path)
    return arr


def _norm(value, path, key, dims):
    """A norm name or ``{"weighted": [..]}``, as a :class:`NormedSpace`."""
    if isinstance(value, str):
        if value not in NORM_KINDS or value == "weighted":
            raise ProblemFileError(f"unknown norm {value!r}", path)
        return NormedSpace(dims["dim"], value)
    if isinstance(value, dict):
        weights = _section(value, WEIGHTED, path, dims)["weighted"]
        return NormedSpace(dims["dim"], "weighted", tuple(weights.tolist()))
    raise ProblemFileError("norm must be a name or {\"weighted\": [...]}", path)


def _positions(value, path, key, dims):
    """Label coordinates, converted as one array with one finiteness test.

    Every key must be a point label.  Label by label only when that fails:
    to name the bad label, or to pass vectors of mixed lengths on to
    ``FinitePoints``, which refuses them.
    """
    if not isinstance(value, dict):
        raise ProblemFileError("expected an object of label coordinates", path)
    for label in value:
        if label not in dims["labels"]:
            raise ProblemFileError(f"{label!r} is not a point label", f"{path}.{label}")
    try:
        coords = np.asarray(list(value.values()), dtype=float)
    except (TypeError, ValueError):
        coords = None
    if coords is not None and np.isfinite(coords).all():
        return dict(zip(value, coords))
    positions = {}
    for label, v in value.items():
        positions[label] = np.atleast_1d(_floats(v, f"{path}.{label}"))
        if not np.isfinite(positions[label]).all():
            raise ProblemFileError("expected finite coordinates", f"{path}.{label}")
    return positions


def _by_pair(rows, path):
    """``(x, y, value)`` rows as a dict from ``(x, y)`` to the value.

    Each ordered pair may appear once; ``(b, a)`` is another pair than ``(a, b)``.
    """
    table = {}
    for i, (x, y, value) in enumerate(rows):
        if (x, y) in table:
            raise ProblemFileError(f"pair ({x}, {y}) is given more than once", f"{path}.{i}")
        table[(x, y)] = value
    return table


def _entries(value, path, key, dims):
    """``[x, y, vector]`` triples, as a dict from the label pair to the vector."""
    rows = []
    for i, item in enumerate(_list(value, path)):
        sub = f"{path}.{i}"
        if not (isinstance(item, list) and len(item) == 3):
            raise ProblemFileError("table entries must be [x, y, vector] triples", sub)
        x, y = (_known_label(label, sub, key, dims) for label in item[:2])
        rows.append((x, y, _array(item[2], sub, key, dims)))
    return _by_pair(rows, path)


def _label_map(value, path, key, dims):
    """A mapping table of a finite space; it must be total and map into the labels."""
    if not isinstance(value, dict):
        raise ProblemFileError(f"expected an object, got {type(value).__name__}", path)
    if "labels" not in dims:
        raise ProblemFileError("needs a finite point domain", path)
    table = {str(a): str(b) for a, b in value.items()}
    labels = dims["labels"]
    if table.keys() != labels or not labels.issuperset(table.values()):
        raise ProblemFileError("mapping table must be total over the point labels and map into them", path)
    return table


def _known_label(value, path, key, dims):
    """A label of the finite point set."""
    if "labels" not in dims:
        raise ProblemFileError("needs a finite point domain", path)
    if str(value) not in dims["labels"]:
        raise ProblemFileError(f"{str(value)!r} is not a point label", path)
    return str(value)


def _point(value, path, key, dims):
    """A point label of a finite space, or a vector of R^m (a bare number when m = 1)."""
    if "labels" not in dims:
        return _array(value if isinstance(value, list) else [value], path, key, dims)
    return _known_label(value, path, key, dims)


def _pair_source(value, path, key, dims):
    """``"all"`` or ``{"sampled": {"n": .., "seed": ..}}``, as ``"all"`` or ``("sampled", n, seed)``."""
    if isinstance(value, dict):
        sampled = _section(value, PAIR_SOURCE, path, dims)["sampled"]
        return ("sampled", sampled["n"], sampled["seed"])
    if value != "all":
        raise ProblemFileError(f"unknown pair source {value!r}", path)
    return value


WEIGHTED = {"weighted": Key(_array, shape=("dim",))}
LIFTED = {"base": Key(_label), "weight": Key(_array, shape=("dim",))}
LIFTED_OVER_LABELS = {**LIFTED, "labels": Key(_labels), "positions": Key(_positions, required=False)}
LIFTED_OVER_RM = {**LIFTED, "m": Key(_int, sign="positive")}
OPERATORS = {name: Key(_array, shape=("dim", "dim")) for name in ("A1", "A2", "A3", "A4")}
CHECK = {
    "pair_source": Key(_pair_source, required=False, default="all"),
    "tol": Key(_number, required=False, sign="nonnegative"),
    "alpha": Key(_number, required=False),
    "beta": Key(_number, required=False),
}
PAIR_SOURCE = {
    "sampled": Key({"n": Key(_int, sign="positive"),
                    "seed": Key(_int, required=False, default=0, sign="nonnegative")}),
}

SPACE = {
    "dim": Key(_int, sign="positive"),
    "norm": Key(_norm),
    "cone": Key({
        "generators": Key(_array, shape=(None, "dim")),
        "facets": Key(_array, shape=(None, "dim")),
        "normal_constant": Key(_number, required=False, default=1.0),
    }),
    "metric": Key(Kinds(
        lifted=lambda block: LIFTED_OVER_LABELS if "labels" in block else LIFTED_OVER_RM,
        table={"labels": Key(_labels), "entries": Key(_entries, shape=("dim",))},
    )),
}

DOCUMENT = {
    "space": Key(SPACE),
    "mapping": Key(Kinds(
        table={"table": Key(_label_map)},
        affine={"B": Key(_array, shape=("m", "m")), "c": Key(_array, shape=("m",))},
    ), required=False),
    "coefficients": Key(Kinds(
        constant=OPERATORS,
        per_pair={"table": Key([{"x": Key(_known_label), "y": Key(_known_label), **OPERATORS}])},
    ), required=False),
    "solve": Key({
        "x0": Key(_point, shape=("m",)),
        "eps": Key(_number, sign="positive"),
        "max_iter": Key(_int, required=False),
        "beta": Key(_number, required=False),
    }, required=False),
    "check": Key(CHECK, required=False),
}


def _build_space(values):
    cone = values["cone"]
    try:
        cone = PolyhedralCone(values["norm"], cone["generators"], cone["facets"], cone["normal_constant"])
    except ConefixError as exc:
        raise ProblemFileError(str(exc), "space.cone") from None
    metric = values["metric"]
    if metric["kind"] == "table":
        points, lift = FinitePoints(metric["labels"]), TableMetric(metric["entries"])
    else:
        if "labels" in metric:
            points = FinitePoints(metric["labels"], metric["positions"])
        else:
            points = EuclideanPoints(metric["m"])
        lift = LiftedMetric(metric["base"], metric["weight"])
    try:
        return ConeMetricSpace(cone, points, lift)
    except ConefixError as exc:
        raise ProblemFileError(str(exc), "space") from None


def _build_mapping(values):
    if values["kind"] == "table":
        return TableMapping(values["table"])
    return AffineMapping(values["B"], values["c"])


def _build_coefficients(values, norm):
    if values["kind"] == "constant":
        return ConstantCoefficients(*(LinearOperator(values[name], norm) for name in OPERATORS))
    try:
        return PerPairCoefficients(
            {pair: [row[name] for name in OPERATORS] for pair, row in values["table"].items()}
        )
    except ConefixError as exc:
        raise ProblemFileError(str(exc), "coefficients.table") from None


def _reject_constant(token):
    raise ProblemFileError(f"non-finite number {token} is not allowed", "document")


def parse_problem_text(text: str) -> Problem:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON: {exc}", "document") from None
    top = _section(doc, DOCUMENT, "", {})
    space = _build_space(top["space"])
    mapping, coeffs, solve = top["mapping"], top["coefficients"], top["solve"]
    return Problem(
        space=space,
        mapping=None if mapping is None else _build_mapping(mapping),
        coeffs=None if coeffs is None else _build_coefficients(coeffs, space.cone.space),
        solve=None if solve is None else SimpleNamespace(**solve),
        check=SimpleNamespace(**(top["check"] or _section({}, CHECK, "check", {}))),
    )


def parse_problem_file(path) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(str(exc), "file") from None
    return parse_problem_text(text)
