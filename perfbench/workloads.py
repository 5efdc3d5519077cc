"""The four benchmark workloads: input generators, problem runners and checks.

Every workload turns ``--seed`` into a fixed pool of problems during set-up
and then runs the pool round-robin in the timed loop.  A problem is run
through a public entry point only: ``conefix.cli.main([...])`` in-process
for the CLI-shaped workloads and the ``conefix`` library functions for
``batch_small``.  Each problem is judged against references computed here,
outside conefix; the names of the checks it fails are returned with its
time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import conefix
import conefix.cli

#: Relative slack when a witnessed norm is compared with its reference.
#: Far above roundoff (1e-16) and far below any meaningful under-report.
NORM_RTOL = 1e-9

#: Membership tolerance of conefix; generated points must sit far above it.
CONEFIX_TOL = 1e-9
MIN_SEPARATION = 1e3 * CONEFIX_TOL


@dataclass
class Outcome:
    """Time to a verdict and the checks a problem failed."""

    seconds: float
    failed: list[str] = field(default_factory=list)
    detail: str = ""


# ---------------------------------------------------------------------------
# References computed outside conefix
# ---------------------------------------------------------------------------


def reference_norm(m: np.ndarray, kind: str) -> np.ndarray:
    """Induced operator norm of a matrix or a stack of matrices."""
    m = np.asarray(m, dtype=float)
    if kind == "infinity":
        return np.abs(m).sum(axis=-1).max(axis=-1)
    if kind == "two":
        return np.linalg.norm(m, 2, axis=(-2, -1))
    raise ValueError(f"no reference norm for {kind!r}")


def reference_alpha_beta(a1, a2, a3, a4, kind: str) -> tuple[float, float]:
    """Largest coefficient norm sum and composite norm over a stack of quadruples."""
    a1, a2, a3, a4 = (np.asarray(a, dtype=float) for a in (a1, a2, a3, a4))
    alpha = (
        reference_norm(a1, kind)
        + reference_norm(a2, kind)
        + reference_norm(a3, kind)
        + 2.0 * reference_norm(a4, kind)
    )
    eye = np.eye(a1.shape[-1])
    s = np.linalg.solve(eye - a3 - a4, a1 + a2 + a4)
    return float(np.max(alpha)), float(np.max(reference_norm(s, kind)))


def check_norms(failed: list[str], witnessed_alpha, witnessed_beta, ref_alpha, ref_beta) -> None:
    if not witnessed_alpha >= ref_alpha * (1.0 - NORM_RTOL):
        failed.append("alpha")
    if not witnessed_beta >= ref_beta * (1.0 - NORM_RTOL):
        failed.append("beta")


# ---------------------------------------------------------------------------
# Multi-arm ladders: large finite domains that stay well separated
# ---------------------------------------------------------------------------


@dataclass
class Ladder:
    """Finite point set whose map walks every arm one rung in per step.

    ``next[i]`` is the index point i maps to; point 0 is the unique fixed
    point.  ``labels`` are shuffled so label order says nothing about the
    structure.
    """

    positions: np.ndarray
    next: np.ndarray
    labels: list[str]

    @property
    def fixed_label(self) -> str:
        return self.labels[0]

    def farthest_label(self) -> str:
        dist = np.linalg.norm(self.positions - self.positions[0], axis=1)
        return self.labels[int(np.argmax(dist))]

    def table(self) -> dict[str, str]:
        return {self.labels[i]: self.labels[int(j)] for i, j in enumerate(self.next)}


def multi_arm_ladder(rng, n_points: int, dim: int, rungs: int, gamma: float) -> Ladder:
    """Arms along the signed axes of R^dim, each a short geometric ladder.

    Rung r of an arm sits at ``z + c * gamma^r * u`` and maps to rung r + 1;
    the innermost rung maps to the shared fixed point z.  Arms run along
    distinct signed axes, so points on different arms are at least as far
    apart as their larger offset divided by sqrt(2), and the map's stretch
    stays at most ``gamma / (1 - gamma)``.  Few rungs per arm keep every
    distinct pair far above the membership tolerance, unlike a single
    geometric ladder whose deep rungs collapse below it.
    """
    n_arms = math.ceil((n_points - 1) / rungs)
    if n_arms > 2 * dim:
        raise ValueError(f"{n_points} points need more than {2 * dim} arms of {rungs} rungs")
    axes = rng.permutation(2 * dim)[:n_arms]
    z = rng.uniform(-5.0, 5.0, dim)
    positions = [z]
    nxt = [0]
    remaining = n_points - 1
    for arm, axis in enumerate(axes):
        u = np.zeros(dim)
        u[axis % dim] = 1.0 if axis < dim else -1.0
        c = rng.uniform(0.5, 2.0)
        length = min(rungs, remaining - (n_arms - arm - 1))
        length = max(1, min(length, rungs))
        first = len(positions)
        for r in range(length):
            positions.append(z + c * gamma**r * u)
            # outermost rung first; each rung maps to the next one in
            nxt.append(first + r + 1 if r + 1 < length else 0)
        remaining -= length
    if remaining != 0 or len(positions) != n_points:
        raise ValueError("ladder arm lengths do not add up")
    positions = np.array(positions)
    order = rng.permutation(n_points)
    labels = [f"p{order[i]:03d}" for i in range(n_points)]
    return Ladder(positions, np.array(nxt), labels)


def pairwise_distances(positions: np.ndarray, kind: str = "two") -> np.ndarray:
    diff = positions[:, None, :] - positions[None, :, :]
    if kind == "one":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


def stretch(dist: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Per-pair ratio d(Tx, Ty) / d(x, y); zero on the diagonal."""
    mapped = dist[np.ix_(nxt, nxt)]
    out = np.zeros_like(dist)
    off = ~np.eye(len(nxt), dtype=bool)
    out[off] = mapped[off] / dist[off]
    return out


def assert_ladder_sound(ladder: Ladder, dist_norm: np.ndarray) -> None:
    """Every distinct pair far above tolerance; one fixed point everyone reaches."""
    n = len(ladder.labels)
    off = ~np.eye(n, dtype=bool)
    closest = float(dist_norm[off].min())
    if closest < MIN_SEPARATION:
        raise ValueError(f"distinct points only {closest:.3g} apart")
    fixed = [i for i in range(n) if ladder.next[i] == i]
    if fixed != [0]:
        raise ValueError(f"oracle fixed points {fixed}, expected exactly [0]")
    for i in range(n):
        j = i
        for _ in range(n):
            j = int(ladder.next[j])
        if j != 0:
            raise ValueError(f"point {i} never reaches the fixed point")


def write_problem(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def run_cli(argv: list[str]) -> tuple[int, dict, float]:
    """One in-process CLI call: exit code, parsed machine output, seconds."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = conefix.cli.main(argv)
    elapsed = time.perf_counter() - t0
    out = {}
    for line in buf.getvalue().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return code, out, elapsed


def _audit_clean(out: dict) -> bool:
    return out.get("audit.step_violations") == "0" and out.get("audit.gap_violations") == "0"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named workload: set-up builds a problem pool, ``run`` runs one problem."""

    name = ""
    pool_size = 1
    #: Problems from the head of the pool that a traced run times.
    trace_problems = 1
    #: Percentile reported as ``problem_tail_s``, fixed per workload so that
    #: a faster program, which finishes more problems, reads the same
    #: percentile.  100 (the maximum) for workloads of fewer than a hundred
    #: problems a run.
    tail_percentile = 100.0

    def build(self, seed: int, work_dir: Path) -> list:
        """Generate the pool from the seed and write its files; returns the pool."""
        raise NotImplementedError

    def warmup(self, seed: int, work_dir: Path) -> None:
        """Run one small problem of the same shape, outside the timed loop."""
        raise NotImplementedError

    def run(self, problem) -> Outcome:
        raise NotImplementedError


class FileWorkload(Workload):
    """A workload whose problems are JSON problem files run through the CLI."""

    #: Argument of ``problem`` for each pool member and for the warm-up.
    pool_spec = None
    warmup_spec = None

    def problem(self, rng, spec) -> tuple[dict, dict]:
        """One problem document and the references it is judged against."""
        raise NotImplementedError

    def _write(self, rng, work_dir: Path, tag: str, specs) -> list:
        pool = []
        for i, spec in enumerate(specs):
            doc, expect = self.problem(rng, spec)
            path = work_dir / f"{self.name}-{tag}{i}.json"
            write_problem(path, doc)
            pool.append((str(path), expect))
        return pool

    def build(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        return self._write(rng, work_dir, "p", [self.pool_spec] * self.pool_size)

    def warmup(self, seed, work_dir):
        rng = np.random.default_rng([seed, 1])
        for problem in self._write(rng, work_dir, "w", [self.warmup_spec]):
            self.run(problem)


class LadderN200(FileWorkload):
    name = "ladder_n200"
    pool_size = 4
    trace_problems = 2
    pool_spec = 200  # points
    warmup_spec = 21
    dim = 20
    rungs = 5

    def problem(self, rng, n_points: int):
        gamma = rng.uniform(0.2, 0.35)
        ladder = multi_arm_ladder(rng, n_points, self.dim, self.rungs, gamma)
        p = 3
        w = rng.uniform(0.5, 2.0, p)
        dist = pairwise_distances(ladder.positions)
        assert_ladder_sound(ladder, dist * float(np.max(w)))
        lip = float(stretch(dist, ladder.next).max())
        a1 = lip * rng.uniform(1.05, 1.25) * np.eye(p) + rng.uniform(0.0, 0.02, (p, p))
        target = rng.uniform(0.8, 0.9)
        rest = target - float(reference_norm(a1, "infinity"))
        raw = rng.uniform(0.1, 1.0, 3)
        a2s, a3s, a4s = raw * (rest * 0.8) / (raw[0] + raw[1] + 2.0 * raw[2])
        a2 = 0.7 * a2s * np.eye(p) + rng.uniform(0.0, 0.3 * a2s / p, (p, p))
        a3 = a3s * np.eye(p)
        a4 = a4s * np.eye(p)
        ref_alpha, ref_beta = reference_alpha_beta(a1, a2, a3, a4, "infinity")
        if not (ref_alpha < 0.95 and ref_beta < 0.95):
            raise ValueError(f"ladder coefficients alpha {ref_alpha}, beta {ref_beta} too large")
        eye = np.eye(p)
        doc = {
            "space": {
                "dim": p,
                "norm": "infinity",
                "cone": {"generators": eye.tolist(), "facets": eye.tolist(), "normal_constant": 1.0},
                "metric": {
                    "kind": "lifted",
                    "base": "euclidean",
                    "weight": w.tolist(),
                    "labels": ladder.labels,
                    "positions": {l: ladder.positions[i].tolist() for i, l in enumerate(ladder.labels)},
                },
            },
            "mapping": {"kind": "table", "table": ladder.table()},
            "coefficients": {
                "kind": "constant",
                "A1": a1.tolist(),
                "A2": a2.tolist(),
                "A3": a3.tolist(),
                "A4": a4.tolist(),
            },
            "solve": {"x0": ladder.farthest_label(), "eps": 1e-10},
        }
        expect = {"fixed": ladder.fixed_label, "alpha": ref_alpha, "beta": ref_beta}
        return doc, expect

    def run(self, problem):
        path, expect = problem
        code, out, seconds = run_cli(["solve", path, "--audit-gap", "10", "--output", "machine"])
        return judge_finite(seconds, code, out, expect)


def judge_finite(seconds: float, code: int, out: dict, expect: dict) -> Outcome:
    failed = []
    if code != 0 or out.get("exit_status") != "ok":
        failed.append("exit")
        return Outcome(seconds, failed, out.get("error", out.get("exit_status", "")))
    if out.get("point") != expect["fixed"]:
        failed.append("fixed_point")
    if not _audit_clean(out):
        failed.append("audit")
    check_norms(failed, float(out["alpha"]), float(out["beta"]), expect["alpha"], expect["beta"])
    return Outcome(seconds, failed)


class TablePairwiseN40(FileWorkload):
    name = "table_pairwise_n40"
    pool_size = 4
    trace_problems = 2
    pool_spec = 40  # points
    warmup_spec = 9
    dim = 4
    rungs = 5
    cone_k = 1.6

    def problem(self, rng, n_points: int):
        cone = conefix.skewed_cone_2d(self.cone_k)
        g = cone.generators.T  # columns are the generators
        g_inv = np.linalg.inv(g)
        gamma = rng.uniform(0.12, 0.2)
        ladder = multi_arm_ladder(rng, n_points, self.dim, self.rungs, gamma)
        rho1 = pairwise_distances(ladder.positions, "two") * rng.uniform(0.5, 2.0)
        rho2 = pairwise_distances(ladder.positions, "one") * rng.uniform(0.5, 2.0)
        dist = rho1[..., None] * g[:, 0] + rho2[..., None] * g[:, 1]
        assert_ladder_sound(ladder, np.linalg.norm(dist, axis=-1))
        lam = np.maximum(stretch(rho1, ladder.next), stretch(rho2, ladder.next))
        n = n_points
        np.fill_diagonal(lam, gamma)
        eye = np.eye(2)
        m1 = (lam * rng.uniform(1.05, 1.3, (n, n)))[..., None, None] * eye
        m1 = m1 + rng.uniform(0.0, 0.01, (n, n, 2, 2))
        m2 = rng.uniform(0.0, 0.015, (n, n, 2, 2))
        m3 = rng.uniform(0.0, 0.01, (n, n, 2, 2))
        m4 = rng.uniform(0.0, 0.008, (n, n, 2, 2))
        ops = [g @ m @ g_inv for m in (m1, m2, m3, m4)]
        ref_alpha, ref_beta = reference_alpha_beta(*ops, "two")
        if not (ref_alpha < 0.95 / self.cone_k and ref_beta < 0.95):
            raise ValueError(f"table coefficients alpha {ref_alpha}, beta {ref_beta} too large")
        labels = ladder.labels
        entries = []
        coeffs = []
        for i in range(n):
            for j in range(n):
                entries.append([labels[i], labels[j], dist[i, j].tolist()])
                entry = {"x": labels[i], "y": labels[j]}
                for name, op in zip(("A1", "A2", "A3", "A4"), ops):
                    entry[name] = op[i, j].tolist()
                coeffs.append(entry)
        doc = {
            "space": {
                "dim": 2,
                "norm": "two",
                "cone": {
                    "generators": cone.generators.tolist(),
                    "facets": cone.facets.tolist(),
                    "normal_constant": self.cone_k,
                },
                "metric": {"kind": "table", "labels": labels, "entries": entries},
            },
            "mapping": {"kind": "table", "table": ladder.table()},
            "coefficients": {"kind": "per_pair", "table": coeffs},
            "solve": {"x0": ladder.farthest_label(), "eps": 1e-10},
        }
        expect = {"fixed": ladder.fixed_label, "alpha": ref_alpha, "beta": ref_beta}
        return doc, expect

    def run(self, problem):
        path, expect = problem
        vcode, vout, vseconds = run_cli(["validate", path, "--output", "machine"])
        code, out, seconds = run_cli(["solve", path, "--audit-gap", "10", "--output", "machine"])
        outcome = judge_finite(vseconds + seconds, code, out, expect)
        if (vcode != 0 or vout.get("exit_status") != "ok") and "exit" not in outcome.failed:
            outcome.failed.insert(0, "exit")
            outcome.detail = "validate: " + vout.get("error", vout.get("exit_status", ""))
        return outcome


class BatchSmall(Workload):
    name = "batch_small"
    batch = 200
    pool_size = 50 * batch
    trace_problems = batch
    # About 6,000 problems a run, so 60 lie beyond the 99th percentile.
    tail_percentile = 99.0

    def build(self, seed, work_dir):
        cones = [
            conefix.orthant(conefix.NormedSpace(2, "infinity")),
            conefix.orthant(conefix.NormedSpace(3, "infinity")),
            conefix.skewed_cone_2d(1.6),
        ]
        # Instance i of the run: seed, size and cone as in the acceptance
        # batch, with seeds drawn from the workload seed.
        seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, self.pool_size)
        return [(int(s), 2 + i % 11, cones[(i + 1) % 3]) for i, s in enumerate(seeds)]

    def warmup(self, seed, work_dir):
        for problem in self.build(seed + 1, work_dir)[:12]:
            self.run(problem)

    def run(self, problem):
        seed, size, cone = problem
        failed = []
        t0 = time.perf_counter()
        try:
            inst = conefix.generate_certified_instance(seed, size, cone)
            report = inst.certification
            fixed = conefix.brute_force_fixed_points(inst)
            if len(fixed) != 1:
                detail = f"seed {seed}: oracle found {len(fixed)} fixed points"
                return Outcome(time.perf_counter() - t0, ["fixed_point"], detail)
            start = max(sorted(inst.space.labels), key=lambda l: inst.space.d_norm(l, fixed[0]))
            result = conefix.picard_solve(
                inst.space, inst.mapping, None, report.beta, start, 1e-10, beta_source="witnessed"
            )
            audit = conefix.verify_proof_bounds(
                inst.space, result.trace, report.k, report.beta, max_gap=10
            )
        except conefix.ConefixError as exc:
            return Outcome(time.perf_counter() - t0, ["exit"], f"seed {seed}: {exc}")
        seconds = time.perf_counter() - t0
        table = inst.mapping.table
        if fixed != [l for l in sorted(table) if table[l] == l] or result.point != fixed[0]:
            failed.append("fixed_point")
        if audit.step_violations or audit.gap_violations:
            failed.append("audit")
        c = inst.coeffs
        mats = [op.matrix for op in (c.a1, c.a2, c.a3, c.a4)]
        ref_alpha, ref_beta = reference_alpha_beta(*mats, cone.space.kind)
        check_norms(failed, report.alpha, report.beta, ref_alpha, ref_beta)
        return Outcome(seconds, failed, f"seed {seed}" if failed else "")


class AffineLongtrace(FileWorkload):
    name = "affine_longtrace"
    pool_size = 24
    trace_problems = 6
    m = 4
    beta_lo, beta_hi = 0.97, 0.995
    warmup_spec = (beta_lo, 200)  # beta, sampled pairs
    eps = 1e-12

    def problem(self, rng, spec):
        beta, n_samples = spec
        m = self.m
        # B rotates one random plane by beta and the orthogonal plane by a
        # smaller factor, so |B| = beta while steps shrink a little faster
        # than the bound: no trace stops early, and the step bound is tight
        # only at the roundoff floor.  Angles kept 0.3 rad from 0 and pi
        # bound |(I - B)^{-1}| by about 3.4.  Fixed-point entries up to 50
        # put that floor near the last step bounds when beta nears 0.995.
        q, r = np.linalg.qr(rng.normal(size=(m, m)))
        q = q * np.sign(np.diag(r))
        rot = np.zeros((m, m))
        scales = (beta, beta * rng.uniform(0.3, 0.8))
        for j, (scale, theta) in enumerate(zip(scales, rng.uniform(0.3, math.pi - 0.3, 2))):
            cs, sn = math.cos(theta), math.sin(theta)
            rot[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = scale * np.array([[cs, -sn], [sn, cs]])
        b = q @ rot @ q.T
        eye = np.eye(m)
        c = (eye - b) @ rng.uniform(-50.0, 50.0, m)
        w = rng.uniform(0.3, 2.0, m)
        x0 = rng.uniform(-8.0, 8.0, m)
        zero = np.zeros((m, m))
        doc = {
            "space": {
                "dim": m,
                "norm": "two",
                "cone": {"generators": eye.tolist(), "facets": eye.tolist(), "normal_constant": 1.0},
                "metric": {"kind": "lifted", "base": "euclidean", "weight": w.tolist(), "m": m},
            },
            "mapping": {"kind": "affine", "B": b.tolist(), "c": c.tolist()},
            "coefficients": {
                "kind": "constant",
                "A1": (beta * eye).tolist(),
                "A2": zero.tolist(),
                "A3": zero.tolist(),
                "A4": zero.tolist(),
            },
            "solve": {"x0": x0.tolist(), "eps": self.eps},
            "check": {"pair_source": {"sampled": {"n": n_samples, "seed": int(rng.integers(2**31))}}},
        }
        expect = {
            "b": b,
            "c": c,
            "w_norm": float(np.linalg.norm(w)),
            "alpha": float(reference_norm(beta * eye, "two")),
            "beta": float(reference_norm(beta * eye, "two")),
        }
        return doc, expect

    def betas(self, rng, count: int) -> np.ndarray:
        # One beta per equal-width stratum of the range, in shuffled order,
        # so every seed's pool covers the whole range evenly.
        width = (self.beta_hi - self.beta_lo) / count
        strata = self.beta_lo + width * (np.arange(count) + rng.uniform(0.0, 1.0, count))
        return rng.permutation(strata)

    def build(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        betas = self.betas(rng, self.pool_size)
        return self._write(rng, work_dir, "p", [(float(b), 5000) for b in betas])

    def run(self, problem):
        path, expect = problem
        code, out, seconds = run_cli(["solve", path, "--audit-gap", "10", "--output", "machine"])
        failed = []
        if code != 0 or out.get("exit_status") != "ok":
            return Outcome(seconds, ["exit"], out.get("error", out.get("exit_status", "")))
        b, c = expect["b"], expect["c"]
        x = np.array([float(v) for v in out["point"].split()])
        resolvent = np.linalg.inv(np.eye(len(c)) - b)
        x_star = resolvent @ c
        # The certified bound covers exact arithmetic.  Each step of the
        # iteration, and the reference itself, rounds by a few ulps of
        # |B||x| + |c|, which (I - B)^{-1} amplifies.
        ulps = (
            16.0
            * np.finfo(float).eps
            * np.linalg.norm(resolvent, 2)
            * (np.linalg.norm(b, 2) * np.linalg.norm(x_star) + np.linalg.norm(c))
        )
        err = float(np.linalg.norm(x - x_star)) * expect["w_norm"]
        if err > float(out["certificate.bound_at_n"]) + ulps * expect["w_norm"]:
            failed.append("fixed_point")
        if not _audit_clean(out):
            failed.append("audit")
        check_norms(failed, float(out["alpha"]), float(out["beta"]), expect["alpha"], expect["beta"])
        detail = ""
        if failed:
            detail = (
                f"beta {float(out['certificate.beta']):.4f}: {out.get('audit.step_violations')} step, "
                f"{out.get('audit.gap_violations')} gap violations of "
                f"{int(out['audit.step_checks']) + int(out['audit.gap_checks'])} checks"
            )
        return Outcome(seconds, failed, detail)


WORKLOADS = {w.name: w for w in (LadderN200(), TablePairwiseN40(), BatchSmall(), AffineLongtrace())}

#: Defects of the program that a workload's failures are known to show.
KNOWN_DEFECTS = {
    "table_pairwise_n40": (
        "the two-norm power iteration in linops stops with 'did not converge' after 10,000 "
        "iterations on the near-zero residual matrices of the resolvent certificate when their "
        "two singular values nearly coincide; check_hypotheses then fails i5 (and i2) and "
        "solve exits 3 on a valid problem"
    ),
    "affine_longtrace": (
        "verify_proof_bounds compares with relative slack only (BOUND_AUDIT_RTOL), so near "
        "beta 0.995 with eps 1e-12 the last steps of a trace, at the roundoff floor of "
        "iterates of size ~50, are reported as step-bound violations; where that floor, "
        "scaled by the metric weight, exceeds eps, solve exits 4 (non-convergence)"
    ),
}
