#!/usr/bin/env python3
"""Hot-path files resolve their metric handles once, not per call.

Usage: obs_hot_paths_test.py REPO_ROOT

A registry lookup by name takes the registry mutex and walks a map, so the
files below keep a `static` (or member) handle per instrument and update it
lock-free. Fails on any line of those files that passes a string name to
LORE_OBS_COUNT, LORE_OBS_OBSERVE, LORE_OBS_TIMER, `.counter("` or
`.histogram("`, unless the line initialises a `static` or member handle.
"""

import os
import re
import sys

HOT_FILES = [
    "src/ml/hdc.cpp",
    "src/circuit/sta.cpp",
    "src/ml/predictor.cpp",
    "src/common/parallel.cpp",
]

LOOKUP = re.compile(
    r'LORE_OBS_(?:COUNT|OBSERVE)\(\s*"'
    r'|LORE_OBS_TIMER\(\s*\w+\s*,\s*"'
    r'|\.(?:counter|histogram)\(\s*"'
)
# `static T& h = ...` or a member initialiser (`name_(...)`, `name_ = ...`).
HANDLE_INIT = re.compile(r"\bstatic\b|\b\w+_\s*[({=]")


def offending(line):
    code = line.split("//", 1)[0]
    return bool(LOOKUP.search(code)) and not HANDLE_INIT.search(code)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    # Guard the patterns themselves against rot.
    assert offending('  LORE_OBS_COUNT("sta.runs", 1);')
    assert offending('  LORE_OBS_TIMER(timer, "sta.run_us");')
    assert offending('    registry.counter("parallel.trials").add(n);')
    assert not offending('  static obs::Counter& c = registry.counter("sta.runs");')
    assert not offending('    : cell_us_(registry.histogram("characterize.cell_us")) {}')

    failures = 0
    for rel in HOT_FILES:
        with open(os.path.join(sys.argv[1], rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if offending(line):
                    failures += 1
                    print(f"FAIL: {rel}:{lineno}: per-call metric lookup by name: "
                          f"{line.strip()}")
    if failures:
        return 1
    print(f"ok: {len(HOT_FILES)} hot-path file(s) resolve their metric handles once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
