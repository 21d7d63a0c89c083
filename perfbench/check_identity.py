"""Test that tracing changes no result: traced and untraced artifacts match.

    python3 perfbench/check_identity.py [--seed N] [WORKLOAD ...]

For each workload (default: all three) this runs ``run.py --trace 1``, which
runs the pipeline once untraced and once traced at the same seed in one
process and compares what each wrote, byte for byte.  The test requires the
comparison of every artifact listed in REQUIRED to be present and equal, and
every other operation of the run to pass.  Exit code 0 means all held.
Takes about 75 s for ladder, 35 s for kinetic and 15 s for battery.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import Battery

HERE = Path(__file__).resolve().parent

REQUIRED = {
    "ladder": ["summary.json", "report.json minus elapsed", "reference.csv",
               "estimates_eps_0.5.csv", "estimates_eps_0.25.csv",
               "estimates_eps_0.125.csv"],
    "kinetic": ["boltzmann_estimates.csv", "boltzmann.json", "crosscheck"],
    "battery": [f"criterion_{c}" for c in Battery.CRITERIA],
}


def check(workload: str, seed: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}"]
    result = Path.cwd() / ".perfbench" / f"{workload}-seed{seed}-trace1" / "result.json"
    checks = json.loads(result.read_text(encoding="utf-8"))["checks"]
    problems = [f"{workload}: no comparison of {name}"
                for name in REQUIRED[workload] if f"identical.{name}" not in checks]
    problems += [f"{workload}: {name} failed" for name, ok in checks.items() if not ok]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=list(REQUIRED))
    args = ap.parse_args(argv)
    problems = []
    for workload in args.workloads:
        found = check(workload, args.seed)
        print(f"{workload}: {'FAIL' if found else 'ok'}")
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
