#!/usr/bin/env python3
"""Every `LORE_*` environment variable that src/ reads is documented.

Usage: env_knobs_test.py REPO_ROOT

Collects the names passed to `getenv("LORE_...")` under src/ and the names
in the first column of README.md's environment-variable table (rows of the
form "| `LORE_NAME` | ..."). Fails on a name read but not documented, and on
a documented name that src/ no longer reads.
"""

import os
import re
import sys

GETENV = re.compile(r'getenv\("(LORE_[A-Z0-9_]+)"\)')
TABLE_ROW = re.compile(r"^\|\s*`(LORE_[A-Z0-9_]+)`\s*\|")


def read_names(src):
    names = set()
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    names.update(GETENV.findall(f.read()))
    return names


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    repo = sys.argv[1]
    read = read_names(os.path.join(repo, "src"))
    with open(os.path.join(repo, "README.md"), encoding="utf-8") as f:
        documented = {m.group(1) for line in f if (m := TABLE_ROW.match(line))}
    undocumented = sorted(read - documented)
    stale = sorted(documented - read)
    for name in undocumented:
        print(f"FAIL: src/ reads {name}, which README.md's environment table lacks")
    for name in stale:
        print(f"FAIL: README.md's environment table lists {name}, which src/ no longer reads")
    if not read:
        print("FAIL: found no getenv(\"LORE_...\") call under src/")
        return 1
    if undocumented or stale:
        return 1
    print(f"ok: {len(read)} LORE_* environment variable(s), all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
