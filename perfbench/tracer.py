"""Per-layer tracing from outside the program.

conefix modules import each other's functions by name (``from .linops
import resolvent``), so a function is wrapped at every module attribute
through which it is called, not only where it is defined.  Each wrapper
records a span: calls, inclusive time and self time (inclusive time minus
the time of the wrapped calls nested inside it).  Spans are kept in memory
and summarised when the run ends.  A binding whose attribute no longer
exists is skipped, so its layer reports zero calls instead of failing.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Binding:
    """Wrap ``owner.attr`` (owner a dotted module or class path) as span ``span``.

    ``span`` may be a callable taking the call's positional arguments and
    returning the span name.  ``on_return(tracer, result, args)`` reads
    counts from the result.  ``marks`` makes the tracer know when a call of
    this binding is active; ``count_under`` counts calls made while a marked
    span of that name is active, under ``<span>.in_<marked>``.
    """

    span: str | Callable
    owner: str
    attr: str
    on_return: Callable | None = None
    marks: bool = False
    count_under: str | None = None


def _resolve(path: str):
    module, _, rest = path.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, bindings):
        self.bindings = list(bindings)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, fn, binding: Binding):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        active = self.active
        perf = time.perf_counter
        namer = binding.span if callable(binding.span) else None
        fixed = None if namer else binding.span
        on_return = binding.on_return
        mark = fixed if binding.marks else None
        under = binding.count_under
        under_key = f"{fixed}.in_{under}" if under else None
        tracer = self

        def wrapper(*args, **kwargs):
            name = fixed or namer(args)
            if under is not None and active.get(under):
                tracer.count(under_key)
            if mark is not None:
                active[mark] = active.get(mark, 0) + 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dt - frame[0]
                total_s[name] = total_s.get(name, 0.0) + dt
                if mark is not None:
                    active[mark] -= 1
            if on_return is not None:
                try:
                    on_return(tracer, result, args)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # a renamed result field reads as zero
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for binding in self.bindings:
            try:
                owner = _resolve(binding.owner)
                original = getattr(owner, binding.attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, binding.attr, self._wrap(original, binding))
            self._installed.append((owner, binding.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# conefix bindings, grouped by layer
# ---------------------------------------------------------------------------


def _sweep_done(tracer, report, args):
    coeffs = args[2]
    tracer.count("contraction.sweep.pairs", report.pairs_checked)
    quadruples = 1 if getattr(coeffs, "is_constant", False) else report.pairs_checked
    tracer.count("contraction.sweep.quadruples", quadruples)


def _axioms_done(tracer, report, args):
    tracer.count("contraction.axioms.triples", report.triples_checked)


def _picard_done(tracer, result, args):
    tracer.count("solver.steps_used", result.iterations_used)
    tracer.count("solver.steps_planned", result.certificate.n_planned)


def _audit_done(tracer, audit, args):
    tracer.count("solver.audit.checks", audit.step_checks + audit.gap_checks)
    tracer.count("solver.audit.violations", len(audit.violations))


def _norm_span(args):
    kind = getattr(args[1], "kind", None) if len(args) > 1 else None
    return "linops.induced_norm.two" if kind == "two" else "linops.induced_norm.poly"


def _at(owners, attr, span, **kw):
    return [Binding(span, owner, attr, **kw) for owner in owners]


CONEFIX_BINDINGS = (
    _at(["conefix.cli"], "main", "cli.main")
    + _at(["conefix.cli"], "parse_problem_file", "problemfile.parse")
    + _at(["conefix.cli"], "check_declared_normal_constant", "cones.normal_audit")
    + _at(["conefix.cli"], "validate_cone", "cones.validate_cone")
    + _at(["conefix.cli"], "check_metric_axioms", "contraction.axioms", on_return=_axioms_done)
    + _at(["conefix.cli", "conefix"], "check_hypotheses", "contraction.sweep",
          on_return=_sweep_done, marks=True)
    # the generator's certification sweeps are its attempts
    + _at(["conefix.testbed"], "check_hypotheses", "contraction.sweep",
          on_return=_sweep_done, marks=True, count_under="testbed.generate")
    + _at(["conefix.contraction", "conefix"], "contraction_residual", "contraction.residual")
    + _at(["conefix.contraction:ConeMetricSpace"], "d", "contraction.d",
          count_under="contraction.sweep")
    + _at(["conefix.cones", "conefix.contraction", "conefix.linops", "conefix.testbed", "conefix"],
          "cone_contains", "cones.cone_contains")
    + _at(["conefix.linops", "conefix"], "induced_norm", _norm_span)
    + _at(["conefix.linops", "conefix.contraction", "conefix"], "resolvent", "linops.resolvent")
    + _at(["conefix.linops", "conefix.contraction", "conefix"], "invariance_check", "linops.invariance")
    + _at(["conefix.cli", "conefix.solver", "conefix"], "picard_solve", "solver.picard",
          on_return=_picard_done)
    + _at(["conefix.cli", "conefix.solver", "conefix"], "verify_proof_bounds", "solver.audit",
          on_return=_audit_done)
    + _at(["conefix.testbed", "conefix"], "generate_certified_instance", "testbed.generate",
          marks=True)
    + _at(["conefix.testbed", "conefix"], "brute_force_fixed_points", "testbed.oracle")
)


def layer_metrics(tracer: Tracer, problems: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced problem, as ``name -> (value, unit)``."""
    n = max(problems, 1)
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts

    def per(value):
        return value / n

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    pairs = counts.get("contraction.sweep.pairs", 0)
    triples = counts.get("contraction.axioms.triples", 0)
    steps_used = counts.get("solver.steps_used", 0)
    checks = counts.get("solver.audit.checks", 0)
    quadruples = counts.get("contraction.sweep.quadruples", 0)
    attempts = counts.get("contraction.sweep.in_testbed.generate", 0)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("contraction.sweep.pairs", per(pairs), "count")
    put("contraction.sweep.self_us_per_pair",
        ratio(self_s.get("contraction.sweep", 0.0), pairs, 1e6), "us")
    for span in ("contraction.residual", "contraction.d", "cones.cone_contains",
                 "linops.induced_norm.two", "linops.induced_norm.poly", "linops.resolvent",
                 "linops.invariance", "cli.main"):
        put(f"{span}.calls", per(calls.get(span, 0)), "count")
        put(f"{span}.self_s", per(self_s.get(span, 0.0)), "s")
    put("contraction.d.per_pair", ratio(counts.get("contraction.d.in_contraction.sweep", 0), pairs),
        "count")
    put("contraction.axioms.s", per(total_s.get("contraction.axioms", 0.0)), "s")
    put("contraction.axioms.triples", per(triples), "count")
    put("contraction.axioms.us_per_triple",
        ratio(total_s.get("contraction.axioms", 0.0), triples, 1e6), "us")
    put("linops.resolvent.per_quadruple", ratio(calls.get("linops.resolvent", 0), quadruples),
        "count")
    for span in ("problemfile.parse", "cones.normal_audit"):
        put(f"{span}.calls", per(calls.get(span, 0)), "count")
        put(f"{span}.s", per(total_s.get(span, 0.0)), "s")
    put("cones.validate_cone.s", per(total_s.get("cones.validate_cone", 0.0)), "s")
    put("solver.picard.s", per(total_s.get("solver.picard", 0.0)), "s")
    put("solver.picard.us_per_step", ratio(total_s.get("solver.picard", 0.0), steps_used, 1e6), "us")
    put("solver.steps_planned", per(counts.get("solver.steps_planned", 0)), "count")
    put("solver.steps_used", per(steps_used), "count")
    put("solver.audit.s", per(total_s.get("solver.audit", 0.0)), "s")
    put("solver.audit.checks", per(checks), "count")
    put("solver.audit.us_per_check", ratio(total_s.get("solver.audit", 0.0), checks, 1e6), "us")
    put("solver.audit.violations", per(counts.get("solver.audit.violations", 0)), "count")
    put("testbed.generate.s", per(total_s.get("testbed.generate", 0.0)), "s")
    put("testbed.generate.attempts", per(attempts), "count")
    put("testbed.generate.yield", ratio(calls.get("testbed.generate", 0), attempts), "ratio")
    put("testbed.oracle.s", per(total_s.get("testbed.oracle", 0.0)), "s")
    return m
