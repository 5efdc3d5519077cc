"""Regenerate the golden CLI reports.

Run from the repository root after an intentional output change:

    python3 tests/golden/regen.py

``CASES`` is the one list of golden reports and the command lines that
make them; the golden tests read it from here.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from conefix.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent

CASES = {
    "check_banach_scalar.txt": ["check", "problems/banach_scalar.json", "--output", "machine"],
    "solve_banach_scalar.txt": ["solve", "problems/banach_scalar.json", "--output", "machine"],
    "check_finite_ladder.txt": ["check", "problems/finite_ladder.json", "--output", "machine"],
    "solve_finite_ladder.txt": [
        "solve", "problems/finite_ladder.json", "--audit-gap", "5", "--output", "machine",
    ],
    "probe_small.txt": [
        "probe", "--k", "2", "--alpha-min", "0.5", "--alpha-max", "0.9",
        "--instances", "5", "--seed", "3", "--output", "machine",
    ],
    "check_finite_pairwise.txt": ["check", "problems/finite_pairwise.json", "--output", "machine"],
    "solve_finite_pairwise.txt": [
        "solve", "problems/finite_pairwise.json", "--audit-gap", "5", "--output", "machine",
    ],
    "validate_banach_scalar.txt": ["validate", "problems/banach_scalar.json", "--output", "machine"],
    "validate_finite_ladder.txt": ["validate", "problems/finite_ladder.json", "--output", "machine"],
    "validate_finite_pairwise.txt": ["validate", "problems/finite_pairwise.json", "--output", "machine"],
    # spaces of at least FAST_MIN_PAIRS pairs, so that their sweeps take the fast facet products
    "validate_finite_ladder_n16.txt": ["validate", "problems/finite_ladder_n16.json", "--output", "machine"],
    "check_finite_ladder_n16.txt": ["check", "problems/finite_ladder_n16.json", "--output", "machine"],
    "solve_finite_ladder_n16.txt": [
        "solve", "problems/finite_ladder_n16.json", "--audit-gap", "5", "--output", "machine",
    ],
    "validate_finite_discrete_n12.txt": [
        "validate", "problems/finite_discrete_n12.json", "--output", "machine",
    ],
    "check_finite_discrete_n12.txt": ["check", "problems/finite_discrete_n12.json", "--output", "machine"],
    "solve_finite_discrete_n12.txt": [
        "solve", "problems/finite_discrete_n12.json", "--audit-gap", "5", "--output", "machine",
    ],
}


def run_case(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def regen():
    import os

    os.chdir(REPO_ROOT)
    for name, argv in CASES.items():
        code, text = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text)} bytes)")


if __name__ == "__main__":
    regen()
