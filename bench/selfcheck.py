"""Check that two traced runs of one commit give identical exact counts.

    python3 bench/selfcheck.py --workload NAME [--seed N]

Runs ``bench/run.py --trace 1`` twice and compares the counts listed in
``run.EXACT_COUNTS``; exits 1 when any differs or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import EXACT_COUNTS, ROOT  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    first, second = traced(args.workload, args.seed), traced(args.workload, args.seed)
    ok = first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        ok = ok and a == b
        print(f"{name:32s} {a:>12} {b:>12} {'same' if a == b else 'DIFFERENT'}")
    print(f"{args.workload} seed {args.seed}: {'exact counts repeat' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
