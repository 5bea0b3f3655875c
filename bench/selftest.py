"""Self-test of the benchmark's own correctness checks.

A clean run must pass; a run fed one corrupted proof or one wrong count
must report `"correct": false` and exit 1.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

CASES = (
    # (workload, injected fault, expected exit code)
    ("oracle", None, 0),
    ("oracle", "proof", 1),
    ("search", "proof", 1),
    ("train", "count", 1),
)


def main() -> int:
    failures = 0
    for workload, inject, expected in CASES:
        command = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1"]
        if inject:
            command += ["--inject", inject]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        ok = proc.returncode == expected and correct == (expected == 0)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload} inject={inject}: exit {proc.returncode}, correct={correct}")
        if not ok:
            print(proc.stderr.strip()[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
