#!/usr/bin/env python3
"""`bench_report.py --check` against planted fixtures.

Usage: bench_report_check_test.py BENCH_REPORT_PY FIXTURES_DIR

FIXTURES_DIR/old holds the baseline run; every other subdirectory is a NEW
run with a known verdict. The gate must pass an identical run and fail a
20 % throughput drop, a dropped gated table and a renamed gated column.
"""

import os
import subprocess
import sys

EXPECTED_EXIT = {
    "identical": 0,
    "drop20": 1,
    "dropped_table": 1,
    "renamed_column": 1,
}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    script, fixtures = sys.argv[1], sys.argv[2]
    old = os.path.join(fixtures, "old")
    failures = 0
    for case, want in EXPECTED_EXIT.items():
        proc = subprocess.run(
            [sys.executable, script, "--check", old, os.path.join(fixtures, case)],
            capture_output=True, text=True)
        ok = proc.returncode == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case}: exit {proc.returncode}, want {want}")
        if not ok:
            print(proc.stdout + proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
