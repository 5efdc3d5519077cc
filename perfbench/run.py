"""conefix benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload ladder_n200 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is closed-loop: one client on one thread runs problems
back to back.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON record of the environment, the failures, the sample counts and
the raw wall times.  See perfbench/README.md for the workloads and metrics.

End-to-end times are reported in reference seconds.  While a run measures,
a timer signal runs a short fixed kernel that does not use conefix every
``SAMPLE_INTERVAL_S``, in the same thread as the problems.  Each timed
stretch's wall time is scaled by ``REFERENCE_S`` over the kernel's mean time
around it.  On a host whose speed drifts, this cancels the drift and keeps
every change of the program's own cost.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the benchmark measures one
# single-threaded client.
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5
#: Fresh interpreters timed per run for ``import_s``; the median is reported.
IMPORT_REPEATS = 41
#: Wall seconds between two runs of the reference kernel while measuring.
SAMPLE_INTERVAL_S = 0.025
#: Kernel runs up to this many seconds before or after a timed stretch
#: count towards its speed.
SAMPLE_WINDOW_S = 0.25
#: Seconds of one ``reference_kernel()`` run on the reference machine in its
#: faster state (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy
#: 2.4.6).  It only sets the scale: with it, reference seconds read close to
#: wall seconds there.
REFERENCE_S = 0.0003
#: A tail percentile needs at least this many problems beyond it.
TAIL_BEYOND = 10
#: Failed checks that mean a wrong answer was accepted.
WRONG_ANSWER = {"fixed_point", "alpha", "beta"}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import conefix; "
    "print(repr(time.perf_counter() - t))"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_conefix() -> None:
    if not (SRC / "conefix" / "__init__.py").is_file():
        fail(f"no conefix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conefix

    if Path(conefix.__file__).resolve().parent != SRC / "conefix":
        fail(f"imported conefix from {conefix.__file__}, not from {SRC}")


def time_import() -> float:
    """``import conefix`` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array work.

    The mix resembles conefix's per-pair work (dictionary and integer
    operations, 3x3 numpy products) but calls nothing in conefix, so its
    time follows the speed of the host and not the program.
    """
    import numpy as np

    m = np.arange(9.0).reshape(3, 3) / 10.0
    t0 = time.perf_counter()
    table, s = {}, 0
    for i in range(1000):
        table[i % 97] = s
        s += (i * i) % 7
    v = np.ones(3)
    for _ in range(40):
        v = m @ v
        v = v / max(float(np.abs(v).max()), 1e-300)
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed while the run measures.

    A SIGALRM interval timer runs ``reference_kernel`` every
    ``SAMPLE_INTERVAL_S`` in the main thread, between the program's own
    bytecodes, so the samples see the CPU and the host state that the
    problem around them sees.  A kernel run costs 1 to 2 % of the interval.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame):
        self.at.append(time.perf_counter())
        self.seconds.append(reference_kernel())

    def __enter__(self):
        reference_kernel()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        """Stop sampling, so that an idle wait takes no samples."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def scaled(self, spans: "Spans") -> list[float]:
        """Each span's seconds in reference seconds."""
        return [
            seconds * self.factor(start, end)
            for start, end, seconds in zip(spans.start, spans.end, spans.seconds)
        ]

    def factor(self, start: float, end: float) -> float:
        """Factor from wall seconds to reference seconds for the stretch [start, end]."""
        lo = bisect.bisect_left(self.at, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_WINDOW_S)
        if lo == hi:  # a long native call deferred the signal: take the samples either side
            lo, hi = max(lo - 1, 0), hi + 1
        samples = self.seconds[lo:hi]
        if not samples:
            fail("the speed sampler took no samples")
        return REFERENCE_S / statistics.fmean(samples)


class Spans:
    """Start, end and measured seconds of timed stretches, in flat arrays.

    The benchmark's own bookkeeping stays at 24 bytes a problem, so that
    ``peak_rss_mb`` hardly grows with the number of problems a run finishes.
    """

    def __init__(self):
        self.start, self.end, self.seconds = array("d"), array("d"), array("d")

    def add(self, start: float, end: float, seconds: float) -> None:
        self.start.append(start)
        self.end.append(end)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.seconds)


class Tally:
    """Problems attempted; only the failed outcomes are kept, with their index."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[int, object]] = []

    def add(self, outcome) -> None:
        if outcome.failed:
            self.failures.append((self.attempted, outcome))
        self.attempted += 1


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, work: Path):
    """Build the pool and warm up, ``SETUP_REPEATS`` times; inputs must repeat exactly.

    Returns the pool and the span of each set-up.
    """
    spans, digests, pool = Spans(), set(), None
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        directory.mkdir()
        t0 = time.perf_counter()
        pool = workload.build(seed, directory)
        workload.warmup(seed, directory)
        t1 = time.perf_counter()
        spans.add(t0, t1, t1 - t0)
        digests.add(digest(directory))
    if len(digests) != 1:
        fail(f"{workload.name}: the same seed generated different inputs")
    return pool, spans


def tail(samples: list[float], percentile: float) -> tuple[float, float]:
    """The workload's tail percentile of the samples, and that percentile.

    A run with fewer than ``TAIL_BEYOND`` samples beyond the percentile
    reports its maximum as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(percentile / 100.0 * n) - 1
    if n - 1 - rank < TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[rank], percentile


def per_member(times: list[float], pool_size: int) -> list[list[float]]:
    """Times of each pool member that ran; problem i ran member i mod pool size."""
    members: dict[int, list[float]] = {}
    for i, seconds in enumerate(times):
        members.setdefault(i % pool_size, []).append(seconds)
    return list(members.values())


def timed_loop(workload, pool, seconds: float, sampler: SpeedSampler):
    """Problems back to back for ``seconds``; import probes spread over the run.

    The probes run between problems, outside the problem timings, so that
    ``import_s`` samples the same stretch of time as the problems do.  The
    sampler pauses while a probe's interpreter runs and this one waits.
    Returns the tally and the spans of the problems and of the import probes.
    """
    tally, problem_spans, import_spans = Tally(), Spans(), Spans()

    def probe_import():
        sampler.pause()
        t0 = time.perf_counter()
        import_s = time_import()
        import_spans.add(t0, time.perf_counter(), import_s)
        sampler.resume()

    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or not tally.attempted:
        due = (time.perf_counter() - start) / seconds * IMPORT_REPEATS
        while len(import_spans) < min(due, IMPORT_REPEATS):
            probe_import()
        t0 = time.perf_counter()
        outcome = workload.run(pool[tally.attempted % len(pool)])
        problem_spans.add(t0, time.perf_counter(), outcome.seconds)
        tally.add(outcome)
    while len(import_spans) < IMPORT_REPEATS:
        probe_import()
    return tally, problem_spans, import_spans


def failure_record(tally: Tally) -> dict:
    by_check: dict[str, int] = {}
    examples = []
    for i, outcome in tally.failures:
        for check in outcome.failed:
            by_check[check] = by_check.get(check, 0) + 1
        if len(examples) < 5:
            examples.append(f"problem {i}: {','.join(outcome.failed)} {outcome.detail}".strip())
    failed = len(tally.failures)
    return {
        "failed_frac": failed / tally.attempted,
        "failed": failed,
        "attempted": tally.attempted,
        "failed_by_check": by_check,
        "examples": examples,
    }


def answers_correct(tally: Tally) -> bool:
    """False when any problem got a wrong answer: a wrong point or an under-reported norm.

    A problem that ends without a clean verdict (unexpected exit status or a
    reported bound violation) counts as failed, not as a wrong answer.
    """
    return not any(WRONG_ANSWER.intersection(o.failed) for _, o in tally.failures)


def end_to_end(workload, args, work: Path):
    with SpeedSampler() as sampler:
        pool, setup_spans = set_up(workload, args.seed, work)
        tally, problem_spans, import_spans = timed_loop(workload, pool, args.seconds, sampler)
    # Read before the summaries below allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = sampler.scaled(setup_spans)
    times = sampler.scaled(problem_spans)
    import_times = sampler.scaled(import_spans)
    raw_times = list(problem_spans.seconds)
    raw_imports = list(import_spans.seconds)
    tail_s, tail_pct = tail(times, workload.tail_percentile)
    import_s = statistics.median(import_times)
    # Every pool member weighs once, wherever the run's time ran out.
    members = per_member(times, len(pool))
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "import_s": (import_s, "s"),
        "problems_per_s": (1.0 / statistics.fmean(map(statistics.fmean, members)), "1/s"),
        "problem_p50_s": (statistics.median(map(statistics.median, members)), "s"),
        "problem_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "tail_percentile": tail_pct,
        "samples": len(times),
        "pool_size": len(pool),
        "reference_s": REFERENCE_S,
        "wall_over_reference": statistics.median(r / t for r, t in zip(raw_times, times)),
        "speed_samples": len(sampler.seconds),
        "problem_times_s": times,
        "wall": {
            "problem_p50_s": statistics.median(map(statistics.median, per_member(raw_times, len(pool)))),
            "import_s": statistics.median(raw_imports),
            "setup_times_s": list(setup_spans.seconds),
            "import_times_s": raw_imports,
            "problem_times_s": raw_times,
        },
    }
    return tally, metrics, record


def traced(workload, args, work: Path):
    """Alternate untraced and traced passes over the pool until time is up."""
    from tracer import CONEFIX_BINDINGS, Tracer, layer_metrics

    directory = work / "setup0"
    directory.mkdir()
    pool = workload.build(args.seed, directory)
    workload.warmup(args.seed, directory)
    trace_set = pool[: workload.trace_problems]
    tracer = Tracer(CONEFIX_BINDINGS)
    tally, plain, traced_outcomes = Tally(), [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not traced_outcomes:
        plain += [workload.run(p) for p in trace_set]
        tracer.install()
        try:
            traced_outcomes += [workload.run(p) for p in trace_set]
        finally:
            tracer.uninstall()
    n = len(traced_outcomes)
    traced_s = sum(o.seconds for o in traced_outcomes)
    self_s = sum(tracer.self_s.values())
    metrics = layer_metrics(tracer, n)
    metrics["trace.self_s_per_problem"] = (self_s / n, "s")
    metrics["trace.overhead_frac"] = (traced_s / sum(o.seconds for o in plain) - 1.0, "ratio")
    metrics["trace.coverage_frac"] = (self_s / traced_s, "ratio")
    metrics["trace.problems"] = (float(n), "count")
    for outcome in plain + traced_outcomes:
        tally.add(outcome)
    return tally, metrics, {"traced_problems": n}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_conefix()
    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        tally, metrics, details = run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failures = failure_record(tally)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        **failures,
        **details,
        "known_defects": KNOWN_DEFECTS.get(workload.name, ""),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": answers_correct(tally),
        "attempted": failures["attempted"],
        "failed": failures["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
