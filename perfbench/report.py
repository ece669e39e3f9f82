"""Print every metric of every workload, end to end and per layer.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Runs `run.py` once per workload untraced and
once traced, one after the other, and prints each run's metrics by name
with their units.  Exits 1 if any op of any run failed its check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed)]
            proc = subprocess.run(argv + ["--seconds", str(args.seconds), "--trace", trace], capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            *lines, last = proc.stdout.splitlines() or ["{}"]
            print("\n".join(lines), flush=True)
            ok = ok and proc.returncode == 0 and json.loads(last).get("correct") is True
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
