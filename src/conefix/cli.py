"""Command-line front end: validate, check, solve, probe.

Exit codes: 0 ok, 2 input error, 3 hypothesis failed, 4 non-convergence.
The machine output is a flat ``key=value`` block with floats printed to 17
significant digits, so identical inputs produce byte-identical reports that
can be kept as golden files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .cones import DEFAULT_MEMBERSHIP_TOL, check_declared_normal_constant, validate_cone
from .contraction import CONDITIONS, check_hypotheses, check_metric_axioms
from .errors import ConefixError, NonConvergenceError, ProblemFileError
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


def _run_check(problem, args):
    """Audit the declared normal constant, then sweep the hypotheses."""
    check_declared_normal_constant(problem.space.cone, n_samples=AUDIT_SAMPLES, seed=args.seed)
    source = problem.check.pair_source
    if source == "all" and not problem.space.is_finite:
        source = ("sampled", 200, args.seed)
    tol = problem.check.tol if problem.check.tol is not None else args.tol
    return check_hypotheses(
        problem.space,
        problem.mapping,
        problem.coeffs,
        k=problem.space.cone.normal_constant,
        pair_source=source,
        tol=tol,
        declared_alpha=problem.check.alpha,
        declared_beta=problem.check.beta,
    )


def _report_entries(report):
    entries = [
        ("pairs_checked", report.pairs_checked),
        ("exhaustive", report.exhaustive),
        ("k", report.k),
        ("alpha", report.alpha),
        ("beta", report.beta),
    ]
    entries += [(f"{name}_pass", getattr(report, f"{name}_pass")) for name in CONDITIONS]
    for i, msg in enumerate(report.declaration_mismatches):
        entries.append((f"declaration_mismatch.{i}", msg))
    return entries


def cmd_validate(args):
    problem = parse_problem_file(args.file)
    cone_report = validate_cone(problem.space.cone, seed=args.seed, tol=args.tol)
    metric_report = check_metric_axioms(problem.space, seed=args.seed, tol=args.tol)
    ok = cone_report.passed and metric_report.passed
    status = "ok" if ok else "input-error"
    entries = [
        ("command", "validate"),
        ("file", args.file),
        ("exit_status", status),
        ("cone.nonzero_pass", cone_report.nonzero_pass),
        ("cone.conic_closure_pass", cone_report.conic_closure_pass),
        ("cone.pointed_pass", cone_report.pointed_pass),
        ("cone.generators_consistent", cone_report.generators_consistent),
        ("cone.solid", cone_report.solid),
        ("metric.axiom_a_pass", metric_report.axiom_a_pass),
        ("metric.axiom_b_pass", metric_report.axiom_b_pass),
        ("metric.axiom_c_pass", metric_report.axiom_c_pass),
        ("metric.pairs_checked", metric_report.pairs_checked),
        ("metric.triples_checked", metric_report.triples_checked),
    ]
    for i, msg in enumerate(cone_report.messages + metric_report.messages):
        entries.append((f"failure.{i}", msg))
    return entries, status


def cmd_check(args):
    problem = parse_problem_file(args.file)
    if problem.coeffs is None:
        raise ProblemFileError("check needs a coefficients section", "coefficients")
    if problem.mapping is None:
        raise ProblemFileError("check needs a mapping section", "mapping")
    report = _run_check(problem, args)
    ok = report.passed and not report.declaration_mismatches
    status = "ok" if ok else "hypothesis-failed"
    entries = [("command", "check"), ("file", args.file), ("exit_status", status)]
    entries += _report_entries(report)
    entries += _witness_entries(report, 17 if args.output == "machine" else 6)
    return entries, status


def cmd_solve(args):
    problem = parse_problem_file(args.file)
    if problem.mapping is None:
        raise ProblemFileError("solve needs a mapping section", "mapping")
    if problem.solve is None:
        raise ProblemFileError("solve needs a solve section", "solve")

    entries = [("command", "solve"), ("file", args.file)]
    report = None
    if args.force:
        if problem.solve.beta is None:
            raise ProblemFileError("--force needs an explicit beta in the solve section", "solve")
        beta, beta_source = problem.solve.beta, "declared"
    else:
        if problem.coeffs is None:
            raise ProblemFileError("solve without --force needs a coefficients section", "coefficients")
        report = _run_check(problem, args)
        if not report.passed or report.declaration_mismatches:
            entries.insert(2, ("exit_status", "hypothesis-failed"))
            entries += _report_entries(report)
            entries += _witness_entries(report, 17 if args.output == "machine" else 6)
            return entries, "hypothesis-failed"
        if problem.solve.beta is not None:
            beta, beta_source = problem.solve.beta, "declared"
        else:
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
    if report is not None:
        entries += _report_entries(report)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_MEMBERSHIP_TOL,
                        help="membership tolerance on facet inner products")
    # numpy's generators refuse negative seeds
    common.add_argument("--seed", type=functools.partial(_nonnegative, "seed"), default=0,
                        help="nonnegative seed for sampled checks and probes")
    common.add_argument("--output", choices=("human", "machine"), default="human")
    parser = argparse.ArgumentParser(
        prog="conefix",
        description="Fixed points on cone metric spaces with checked hypotheses and certified bounds.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[common],
                                help="check the cone and metric axioms of a problem file")
    p_validate.add_argument("file")

    p_check = sub.add_parser("check", parents=[common],
                             help="verify the contraction hypotheses of a problem file")
    p_check.add_argument("file")

    p_solve = sub.add_parser("solve", parents=[common],
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
    p_probe.add_argument("--k", type=float, required=True)
    p_probe.add_argument("--alpha-min", type=float, required=True)
    p_probe.add_argument("--alpha-max", type=float, required=True)
    p_probe.add_argument("--instances", type=functools.partial(_nonnegative, "instances"), default=10)
    p_probe.add_argument("--eps", type=float, default=1e-8)
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
