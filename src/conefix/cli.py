"""Command-line front end: validate, check, solve, probe.

Exit codes: 0 ok, 2 input error, 3 hypothesis failed, 4 non-convergence.
The machine output is a flat ``key=value`` block with floats printed to 17
significant digits, so identical inputs produce byte-identical reports that
can be kept as golden files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .cones import DEFAULT_MEMBERSHIP_TOL, check_declared_normal_constant, validate_cone
from .contraction import check_hypotheses, check_metric_axioms
from .errors import ConefixError, ContractViolationError, NonConvergenceError, ProblemFileError
from .problemfile import parse_problem_file
from .solver import picard_solve, probe_open_problem, verify_proof_bounds

EXIT_CODES = {"ok": 0, "input-error": 2, "hypothesis-failed": 3, "non-convergence": 4}

AUDIT_SAMPLES = 512


def _fmt(value, sig: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value) + 0.0:.{sig}g}"
    return str(value)


def _fmt_point(point, sig: int) -> str:
    if isinstance(point, str):
        return point
    arr = np.atleast_1d(np.asarray(point, dtype=float))
    return " ".join(f"{v + 0.0:.{sig}g}" for v in arr)


def _render(entries, output: str) -> str:
    sig = 17 if output == "machine" else 6
    if output == "machine":
        lines = [f"{key}={_fmt(value, sig)}" for key, value in entries]
    else:
        width = max((len(k) for k, _ in entries), default=0)
        lines = [f"{key.ljust(width)}  {_fmt(value, sig)}" for key, value in entries]
    return "\n".join(lines) + "\n"


def _witness_entries(report, sig_point):
    entries = [("witness.count", len(report.witnesses))]
    for i, w in enumerate(report.witnesses):
        pair = "-"
        if w.x is not None and w.y is not None:
            pair = f"{_fmt_point(w.x, sig_point)} | {_fmt_point(w.y, sig_point)}"
        entries.append((f"witness.{i}.condition", w.condition))
        entries.append((f"witness.{i}.pair", pair))
        entries.append((f"witness.{i}.detail", w.detail))
    return entries


def _tol(problem, args) -> float:
    """The membership tolerance of every test: the file's ``check.tol`` if set, else ``--tol``."""
    return args.tol if problem.check.tol is None else problem.check.tol


def _premises(problem, args):
    """Check the premises of the theorem; ``validate``, ``check`` and ``solve`` all run this.

    In order: the cone (nonzero, pointed, generators inside the facet
    description), the declared normal constant against its sampled lower
    bound, and the metric axioms.  Returns ``validate``'s entries and the
    failures in that order, each a ``(section, message)`` pair; the audit's
    failure has no section, as its message names the declaration.
    """
    tol = _tol(problem, args)
    cone = problem.space.cone
    cone_report = validate_cone(cone, tol=tol)
    failures = [("space.cone", msg) for msg in cone_report.messages]
    try:
        bound = check_declared_normal_constant(cone, n_samples=AUDIT_SAMPLES, seed=args.seed)
    except ContractViolationError as exc:
        bound = None
        failures.append((None, str(exc)))
    metric_report = check_metric_axioms(problem.space, tol=tol)
    failures += [("space.metric", msg) for msg in metric_report.messages]
    entries = [
        ("tol", tol),
        ("cone.nonzero_pass", cone_report.nonzero_pass),
        ("cone.pointed_pass", cone_report.pointed_pass),
        ("cone.generators_consistent", cone_report.generators_consistent),
        ("cone.solid", cone_report.solid),
        ("cone.normal_constant", cone.normal_constant),
        ("cone.normal_audit_pass", bound is not None),
    ]
    if bound is not None:
        entries.append(("cone.normal_audit_bound", bound))
    entries += [
        ("metric.route", metric_report.route),
        *((f"metric.axiom_{name}_pass", ok) for name, ok in metric_report.axioms.items()),
        ("metric.pairs_checked", metric_report.pairs_checked),
        ("metric.triples_checked", metric_report.triples_checked),
    ]
    return entries, failures


def _declaration_mismatches(problem, report):
    """The file's declarations that the witnessed ``alpha`` and ``beta`` refute, as messages.

    ``check.alpha`` and ``check.beta`` must equal the witnessed values within
    ``1e-9 max(1, |value|)``.  ``solve.beta`` must not be below the witnessed
    beta, or the solver would plan too few steps.  A NaN beta refutes nothing.
    """
    check = problem.check
    mismatches = [
        f"declared {name} {declared:.17g} disagrees with witnessed {value:.17g}"
        for name, declared, value in [("alpha", check.alpha, report.alpha), ("beta", check.beta, report.beta)]
        if declared is not None and abs(declared - value) > 1e-9 * max(1.0, abs(value))
    ]
    declared = None if problem.solve is None else problem.solve.beta
    if declared is not None and declared < report.beta:
        mismatches.append(f"declared solve beta {declared:.17g} is below witnessed {report.beta:.17g}")
    return mismatches


def _run_check(problem, args):
    """Refuse a problem whose premises fail, sweep the hypotheses and audit the declarations.

    Returns the report, its entries, and the verdict: every condition holds
    and the witnessed values refute no declaration of the file.
    """
    _, failures = _premises(problem, args)
    if failures:
        section, message = failures[0]
        raise ProblemFileError(message, section)
    source = problem.check.pair_source
    if source == "all" and not problem.space.is_finite:
        source = ("sampled", 200, args.seed)
    report = check_hypotheses(
        problem.space,
        problem.mapping,
        problem.coeffs,
        k=problem.space.cone.normal_constant,
        pair_source=source,
        tol=_tol(problem, args),
    )
    mismatches = _declaration_mismatches(problem, report)
    entries = [
        ("pairs_checked", report.pairs_checked),
        ("exhaustive", report.exhaustive),
        ("k", report.k),
        ("alpha", report.alpha),
        ("beta", report.beta),
        *((f"{name}_pass", passed) for name, passed in report.conditions.items()),
        *((f"declaration_mismatch.{i}", msg) for i, msg in enumerate(mismatches)),
    ]
    return report, entries, report.passed and not mismatches


def cmd_validate(args):
    problem = parse_problem_file(args.file)
    entries, failures = _premises(problem, args)
    status = "input-error" if failures else "ok"
    entries = [("command", "validate"), ("file", args.file), ("exit_status", status), *entries]
    entries += [(f"failure.{i}", msg) for i, (_, msg) in enumerate(failures)]
    return entries, status


def cmd_check(args):
    problem = parse_problem_file(args.file)
    if problem.coeffs is None:
        raise ProblemFileError("check needs a coefficients section", "coefficients")
    if problem.mapping is None:
        raise ProblemFileError("check needs a mapping section", "mapping")
    report, check_entries, ok = _run_check(problem, args)
    status = "ok" if ok else "hypothesis-failed"
    entries = [("command", "check"), ("file", args.file), ("exit_status", status), *check_entries]
    entries += _witness_entries(report, 17 if args.output == "machine" else 6)
    return entries, status


def cmd_solve(args):
    problem = parse_problem_file(args.file)
    if problem.mapping is None:
        raise ProblemFileError("solve needs a mapping section", "mapping")
    if problem.solve is None:
        raise ProblemFileError("solve needs a solve section", "solve")

    entries = [("command", "solve"), ("file", args.file)]
    check_entries = []
    beta, beta_source = problem.solve.beta, "declared"
    if args.force:
        if beta is None:
            raise ProblemFileError("--force needs an explicit beta in the solve section", "solve")
    else:
        if problem.coeffs is None:
            raise ProblemFileError("solve without --force needs a coefficients section", "coefficients")
        report, check_entries, ok = _run_check(problem, args)
        if not ok:
            entries.insert(2, ("exit_status", "hypothesis-failed"))
            entries += check_entries
            entries += _witness_entries(report, 17 if args.output == "machine" else 6)
            return entries, "hypothesis-failed"
        if beta is None:
            beta, beta_source = report.beta, "witnessed"

    sig = 17 if args.output == "machine" else 6
    try:
        result = picard_solve(
            problem.space,
            problem.mapping,
            problem.space.cone.normal_constant,
            beta,
            problem.solve.x0,
            problem.solve.eps,
            max_iter=problem.solve.max_iter,
            beta_source=beta_source,
        )
    except NonConvergenceError as exc:
        entries.insert(2, ("exit_status", "non-convergence"))
        entries += [
            ("forced", args.force),
            ("beta", beta),
            ("beta_source", beta_source),
            ("residual_norm", exc.residual_norm),
            ("detail", str(exc)),
        ]
        if exc.trace is not None:
            tail = exc.trace.step_norms[-5:]
            for i, s in enumerate(tail):
                entries.append((f"trace_tail.{i}", s))
        return entries, "non-convergence"

    cert = result.certificate
    entries.insert(2, ("exit_status", "ok"))
    entries += [
        ("forced", args.force),
        ("point", _fmt_point(result.point, sig)),
        ("residual_norm", result.residual_norm),
        ("iterations_used", result.iterations_used),
        ("certificate.k", cert.k),
        ("certificate.beta", cert.beta),
        ("certificate.beta_source", cert.beta_source),
        ("certificate.d01_norm", cert.d01_norm),
        ("certificate.n_planned", cert.n_planned),
        ("certificate.eps", cert.eps),
        ("certificate.bound_at_n", cert.bound_at_n),
    ]
    entries += check_entries
    if args.audit_gap is not None:
        audit = verify_proof_bounds(
            problem.space, result.trace, cert.k, cert.beta, max_gap=args.audit_gap
        )
        entries += [
            ("audit.max_gap", args.audit_gap),
            ("audit.step_checks", audit.step_checks),
            ("audit.gap_checks", audit.gap_checks),
            ("audit.step_violations", audit.step_violations),
            ("audit.gap_violations", audit.gap_violations),
        ]
    if args.trace:
        for n, point in enumerate(result.trace.points):
            step = (
                result.trace.step_norms[n]
                if n < len(result.trace.step_norms)
                else result.residual_norm
            )
            entries.append((f"trace.{n}", f"{_fmt_point(point, sig)} {_fmt(step, sig)}"))
    return entries, "ok"


def cmd_probe(args):
    report = probe_open_problem(
        seed=args.seed,
        k=args.k,
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        n_instances=args.instances,
        eps=args.eps,
    )
    entries = [
        ("command", "probe"),
        ("exit_status", "ok"),
        ("label", report.label),
        ("k", report.k),
        ("alpha_min", report.alpha_min),
        ("alpha_max", report.alpha_max),
        ("instances", report.n_instances),
        ("seed", report.seed),
        ("eps", report.eps),
    ]
    converged = 0
    for row in report.rows:
        prefix = f"row.{row.index}"
        entries += [
            (f"{prefix}.label", "EXPERIMENTAL"),
            (f"{prefix}.size", row.size),
            (f"{prefix}.witnessed_alpha", row.witnessed_alpha),
            (f"{prefix}.witnessed_beta", row.witnessed_beta),
            (f"{prefix}.converged", row.converged),
            (f"{prefix}.iterations", row.iterations),
            (f"{prefix}.multiplicity", row.multiplicity),
        ]
        if row.note:
            entries.append((f"{prefix}.note", row.note))
        converged += int(row.converged)
    entries.append(("summary", f"EXPERIMENTAL: {converged}/{len(report.rows)} instances converged; no claim follows"))
    return entries, "ok"


COMMANDS = {"validate": cmd_validate, "check": cmd_check, "solve": cmd_solve, "probe": cmd_probe}


def _nonnegative(name: str, text: str) -> int:
    """The argparse type of the option ``name``, bound with functools.partial."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{name} must be a nonnegative integer, got {text!r}")
    return value


def _finite(name: str, text: str, nonnegative: bool = False) -> float:
    """The argparse type of the number option ``name``, bound with functools.partial.

    inf and NaN are refused: with either, every membership test would pass
    or fail, and the probe's ranges and step counts are undefined.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (nonnegative and value < 0):
        kind = "finite nonnegative number" if nonnegative else "finite number"
        raise argparse.ArgumentTypeError(f"{name} must be a {kind}, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # numpy's generators refuse negative seeds
    common.add_argument("--seed", type=functools.partial(_nonnegative, "seed"), default=0,
                        help="nonnegative seed for sampled checks and probes")
    common.add_argument("--output", choices=("human", "machine"), default="human")
    with_tol = argparse.ArgumentParser(add_help=False, parents=[common])
    with_tol.add_argument("--tol", type=functools.partial(_finite, "tol", nonnegative=True),
                          default=DEFAULT_MEMBERSHIP_TOL,
                          help="membership tolerance on facet inner products, "
                               "unless the file sets check.tol")
    parser = argparse.ArgumentParser(
        prog="conefix",
        description="Fixed points on cone metric spaces with checked hypotheses and certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[with_tol],
                                help="check the cone and metric axioms of a problem file")
    p_validate.add_argument("file")

    p_check = sub.add_parser("check", parents=[with_tol],
                             help="verify the contraction hypotheses of a problem file")
    p_check.add_argument("file")

    p_solve = sub.add_parser("solve", parents=[with_tol],
                             help="run the certified fixed-point iteration")
    p_solve.add_argument("file")
    p_solve.add_argument("--trace", action="store_true", help="emit all iterates")
    p_solve.add_argument("--audit-gap", type=functools.partial(_nonnegative, "audit-gap"),
                         default=None, metavar="N",
                         help="audit step and gap bounds along the trace up to gap N")
    p_solve.add_argument("--force", action="store_true",
                         help="skip hypothesis checking (recorded in the report)")

    p_probe = sub.add_parser(
        "probe", parents=[common],
        help="EXPERIMENTAL sweep of the coefficient-sum regime [1/k, 1) with k > 1",
    )
    p_probe.add_argument("--k", type=functools.partial(_finite, "k"), required=True)
    p_probe.add_argument("--alpha-min", type=functools.partial(_finite, "alpha-min"), required=True)
    p_probe.add_argument("--alpha-max", type=functools.partial(_finite, "alpha-max"), required=True)
    p_probe.add_argument("--instances", type=functools.partial(_nonnegative, "instances"), default=10)
    p_probe.add_argument("--eps", type=functools.partial(_finite, "eps"), default=1e-8)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later one
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        entries, status = COMMANDS[args.command](args)
    except (ProblemFileError, ConefixError) as exc:
        entries = [
            ("command", args.command),
            ("exit_status", "input-error"),
            ("error", str(exc)),
        ]
        status = "input-error"
    sys.stdout.write(_render(entries, args.output))
    return EXIT_CODES[status]


if __name__ == "__main__":
    raise SystemExit(main())
