#!/usr/bin/env python3
"""The post-mortem decoder's kind names match the C++ event vocabulary.

Usage: event_kinds_test.py REPO_ROOT

Parses the `EventKind` enum, `kEventKindCount`, and the `event_kind_name`
strings from src/obs/event.hpp, and `KIND_NAMES` from
scripts/lore_postmortem.py. A flight record stores the enum index as its
`kind` byte, so the two lists must agree name for name, in order.
"""

import ast
import os
import re
import sys

HEADER = "src/obs/event.hpp"
DECODER = "scripts/lore_postmortem.py"


def cpp_kind_names(text):
    enum = re.search(r"enum class EventKind\b[^{]*\{(.*?)\};", text, re.S)
    if not enum:
        raise ValueError("no `enum class EventKind` block")
    body = re.sub(r"//[^\n]*", "", enum.group(1))
    enumerators = [e.strip() for e in body.split(",") if e.strip()]
    order = []
    for i, e in enumerate(enumerators):
        m = re.fullmatch(r"(k\w+)(?:\s*=\s*(\d+))?", e)
        if not m:
            raise ValueError(f"unparsed enumerator {e!r}")
        if m.group(2) is not None and int(m.group(2)) != i:
            raise ValueError(f"{m.group(1)} = {m.group(2)} breaks the dense 0..n-1 numbering")
        order.append(m.group(1))
    count = re.search(r"kEventKindCount\s*=\s*(\d+)", text)
    if not count or int(count.group(1)) != len(order):
        raise ValueError(f"kEventKindCount does not match the {len(order)} enumerators")
    names = dict(re.findall(r'case EventKind::(k\w+):\s*return "([^"]+)";', text))
    missing = [k for k in order if k not in names]
    if missing:
        raise ValueError(f"event_kind_name lacks {missing}")
    return [names[k] for k in order]


def python_kind_names(text):
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "KIND_NAMES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise ValueError("no KIND_NAMES assignment")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    repo = sys.argv[1]
    with open(os.path.join(repo, HEADER), encoding="utf-8") as f:
        cpp = cpp_kind_names(f.read())
    with open(os.path.join(repo, DECODER), encoding="utf-8") as f:
        py = python_kind_names(f.read())
    if cpp != py:
        print(f"FAIL: {DECODER} KIND_NAMES {py} != {HEADER} order {cpp}")
        return 1
    print(f"ok: {len(cpp)} event kinds agree between {HEADER} and {DECODER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
