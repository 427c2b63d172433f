#!/usr/bin/env python3
"""Aggregate LORE bench artifacts (BENCH_<name>.json, schema lore.bench.v1)
into one plain-text trajectory report.

Each bench binary emits its artifact via bench/bench_util.hpp: every table it
printed plus a snapshot of the global metrics registry (schema
lore.metrics.v1 — the same schema examples/fleet_monitoring exports for the
simulated fleet-telemetry corpus). This script is the consumer side: it
collects the artifacts of one run into a single report so successive runs can
be diffed as the repo's perf trajectory.

Usage:
  scripts/bench_report.py [DIR_OR_FILE ...]
  scripts/bench_report.py --diff OLD NEW
  scripts/bench_report.py --check OLD NEW [--tolerance PCT]

With no arguments, scans $LORE_BENCH_DIR (or the current directory) for
BENCH_*.json. `--diff` takes two runs (directories or single artifacts),
matches tables by (bench, section), and prints per-cell ratios for every
numeric column — speedup deltas for timing tables, drift for accuracy
tables. `--check` is the CI gate: it matches every throughput (`*per_s`,
`*/s`) cell of OLD to NEW by table, row label and column name, and exits
non-zero when any regresses by more than --tolerance percent (default 10)
or when a gated OLD table, row or column has no match in NEW — wire it as
`BENCH_CHECK=1 scripts/reproduce.sh` against the committed baseline in
bench/samples/. Only the Python standard library is used.
"""

import json
import os
import sys


def find_artifacts(args):
    paths = []
    if not args:
        args = [os.environ.get("LORE_BENCH_DIR") or "."]
    for a in args:
        if os.path.isdir(a):
            names = sorted(n for n in os.listdir(a)
                           if n.startswith("BENCH_") and n.endswith(".json"))
            paths.extend(os.path.join(a, n) for n in names)
        else:
            paths.append(a)
    return paths


def load_artifact(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != "lore.bench.v1":
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return doc


def render_table(headers, rows):
    """Aligned text table (mirrors lore::obs::summary_table's layout)."""
    cols = [list(map(str, col)) for col in zip(*([headers] + rows))] if rows else [
        [h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []

    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()

    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    for row in rows:
        lines.append(fmt(row))
    return "\n".join(lines)


def metrics_rows(metrics):
    """Flatten a lore.metrics.v1 document into (instrument, name, value) rows."""
    rows = []
    for name, v in sorted(metrics.get("counters", {}).items()):
        rows.append(["counter", name, str(v)])
    for name, v in sorted(metrics.get("gauges", {}).items()):
        rows.append(["gauge", name, f"{v:.6g}"])
    for name, h in sorted(metrics.get("histograms", {}).items()):
        summary = (f"count={h.get('count', 0)} mean="
                   f"{(h.get('sum', 0.0) / h['count']) if h.get('count') else 0.0:.6g} "
                   f"p50={h.get('p50', 0.0):.6g} p95={h.get('p95', 0.0):.6g} "
                   f"p99={h.get('p99', 0.0):.6g}")
        rows.append(["histogram", name, summary])
    return rows


# Campaign-runtime health counters (src/common/campaign.cpp + parallel.cpp):
# nonzero timeouts/retries/failures/suppressed exceptions mean a figure was
# produced by a degraded campaign and should be read with that in mind.
RESILIENCE_COUNTERS = [
    "campaign.trials_completed",
    "campaign.trials_resumed",
    "campaign.timeouts",
    "campaign.retries",
    "campaign.trial_failures",
    "campaign.checkpoints",
    "pool.suppressed_exceptions",
]


def interval_rows(doc):
    """Per-interval rate rows from the live aggregator's history, if the
    artifact embeds one (schema lore.intervals.v1 under the `intervals` key:
    the bench ran with the telemetry pipeline active)."""
    block = doc.get("intervals")
    if not isinstance(block, dict) or block.get("schema") != "lore.intervals.v1":
        return []
    rows = []
    for iv in block.get("intervals", []):
        try:
            rows.append([
                str(iv["seq"]),
                f"{iv['dt_s']:.3f}",
                str(iv["trials_completed"]),
                f"{iv['trials_per_s']:.6g}",
                f"{iv['events_per_s']:.6g}",
                f"{iv['timeout_rate']:.4g}",
                str(iv["events_dropped"]),
                str(iv["alerts"]),
            ])
        except (KeyError, TypeError) as e:
            print(f"bench_report: skipping malformed interval in "
                  f"{doc.get('bench', '?')}: {e}", file=sys.stderr)
    return rows


INTERVAL_HEADERS = ["seq", "dt_s", "trials", "trials_per_s", "events_per_s",
                    "timeout_rate", "dropped", "alerts"]


def resilience_summary(docs):
    """One row per bench of the campaign-health counters, if any are present."""
    rows = []
    for doc in docs:
        counters = doc.get("metrics", {}).get("counters", {})
        if not any(name in counters for name in RESILIENCE_COUNTERS):
            continue
        rows.append([doc.get("bench", "?")] +
                    [str(counters.get(name, 0)) for name in RESILIENCE_COUNTERS])
    if not rows:
        return []
    headers = ["bench"] + [n.split(".", 1)[1] for n in RESILIENCE_COUNTERS]
    degraded = [r[0] for r in rows
                if any(int(v) for v in r[3:6]) or int(r[7])]
    out = ["=== campaign resilience summary ===",
           render_table(headers, rows)]
    if degraded:
        out.append("WARNING: degraded campaigns (timeouts/retries/failures/"
                   f"suppressed exceptions) in: {', '.join(degraded)}")
    else:
        out.append("all campaigns healthy: no timeouts, retries, failures, or "
                   "suppressed exceptions")
    out.append("")
    return out


def fleet_summary(docs):
    """Resurface the campaign fabric's fleet-throughput table (bench/fabric.cpp)
    so multi-process scaling — and any bit-identity violation — is visible at
    the top level of the report."""
    out = []
    for doc in docs:
        for table in doc.get("tables", []):
            headers = table.get("headers", [])
            if "workers" not in headers or "identical" not in headers:
                continue
            rows = table.get("rows", [])
            out.append("=== fleet throughput summary "
                       f"({doc.get('bench', '?')}) ===")
            out.append(render_table(headers, rows))
            ident_col = headers.index("identical")
            broken = [r for r in rows if len(r) > ident_col and r[ident_col] == "NO"]
            if broken:
                out.append("WARNING: fleet results NOT bit-identical to the "
                           "single-process reference — the fabric's merge "
                           "contract is broken")
            else:
                out.append("all fleet runs bit-identical to the single-process "
                           "reference")
            out.append("")
    return out


def prune_summary(docs):
    """Resurface the predict-and-prune table (bench/fi_acceleration.cpp) so the
    accuracy-for-speed trade — prune rate vs audit-measured false-benign
    rate — is visible at the top level of the report."""
    out = []
    for doc in docs:
        for table in doc.get("tables", []):
            headers = table.get("headers", [])
            if "pruned" not in headers or "false_benign_rate" not in headers:
                continue
            rows = table.get("rows", [])
            out.append(f"=== predict-and-prune summary ({doc.get('bench', '?')}) ===")
            out.append(render_table(headers, rows))
            fb_col = headers.index("false_benign_rate")
            high = [r for r in rows
                    if len(r) > fb_col and (_to_float(r[fb_col]) or 0.0) > 0.2]
            if high:
                out.append("WARNING: audit-measured false-benign rate above 0.2 — "
                           "pruning is trading away campaign accuracy")
            out.append("")
    return out


def scenario_summary(docs):
    """Resurface the generative sweep table (bench/scenario_sweep.cpp) —
    scenarios run, invariant violations, sweep throughput — so cross-layer
    health is visible at the top level of the report."""
    out = []
    for doc in docs:
        for table in doc.get("tables", []):
            headers = table.get("headers", [])
            if "scenarios" not in headers or "violations" not in headers:
                continue
            rows = table.get("rows", [])
            out.append(f"=== scenario sweep summary ({doc.get('bench', '?')}) ===")
            out.append(render_table(headers, rows))
            v_col = headers.index("violations")
            flagged = [r for r in rows
                       if len(r) > v_col and (_to_float(r[v_col]) or 0.0) > 0]
            if flagged:
                out.append("NOTE: the sweep surfaced invariant violations — see the "
                           "bench's findings output for the offending scenarios")
            else:
                out.append("no invariant violations across the sweep")
            out.append("")
    return out


def meta_line(doc):
    """One-line host context from the artifact's `meta` block, if present."""
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        return None
    cores = meta.get("host_cores")
    cores_s = f"{cores:.0f}" if isinstance(cores, (int, float)) else "?"
    return (f"host_cores={cores_s} build={meta.get('build_tag', '?')} "
            f"simd={meta.get('simd', '?')}")


def report(paths):
    out = []
    docs = []
    for path in paths:
        try:
            doc = load_artifact(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
            print(f"bench_report: skipping {path}: {e}", file=sys.stderr)
            continue
        docs.append(doc)
        out.append(f"=== {doc.get('bench', os.path.basename(path))} ({path}) ===")
        ml = meta_line(doc)
        if ml:
            out.append(ml)
        for table in doc.get("tables", []):
            out.append("")
            out.append(f"-- {table.get('section', '(untitled)')}")
            out.append(render_table(table.get("headers", []), table.get("rows", [])))
        metrics = doc.get("metrics", {})
        rows = metrics_rows(metrics)
        if rows:
            out.append("")
            out.append("-- metrics registry snapshot")
            out.append(render_table(["kind", "name", "value"], rows))
        ivs = interval_rows(doc)
        if ivs:
            out.append("")
            out.append("-- live pipeline intervals (lore.intervals.v1)")
            out.append(render_table(INTERVAL_HEADERS, ivs))
        out.append("")
    out.extend(fleet_summary(docs))
    out.extend(prune_summary(docs))
    out.extend(scenario_summary(docs))
    out.extend(resilience_summary(docs))
    out.append(f"bench_report: aggregated {len(docs)} artifact(s)")
    return "\n".join(out), len(docs)


def _to_float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def load_run(arg):
    """One run (a directory or single file) as a pair:
    (bench, section) -> table, plus bench -> artifact meta block."""
    tables = {}
    metas = {}
    for path in find_artifacts([arg]):
        try:
            doc = load_artifact(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
            print(f"bench_report: skipping {path}: {e}", file=sys.stderr)
            continue
        if isinstance(doc.get("meta"), dict):
            metas[doc.get("bench", "")] = doc["meta"]
        for table in doc.get("tables", []):
            tables[(doc.get("bench", ""), table.get("section", ""))] = table
    return tables, metas


def host_context_warnings(old_meta, new_meta):
    """Warn when the two runs disagree on machine shape: timing and
    throughput ratios across different core counts are apples to oranges."""
    out = []
    for bench in sorted(set(old_meta) & set(new_meta)):
        oc = _to_float(old_meta[bench].get("host_cores"))
        nc = _to_float(new_meta[bench].get("host_cores"))
        if oc and nc and oc != nc:
            out.append(f"WARNING: {bench}: host core count changed "
                       f"{oc:.0f} -> {nc:.0f}; throughput and parallel-scaling "
                       "ratios below are not comparable across machine shapes")
    return out


def diff_tables(old, new):
    """Per-cell new/old ratios for every numeric column of matching tables.

    Rows are matched positionally and must agree on their first (label)
    column; a ratio > 1 means the value grew — for an `*_ns`/`*_ms` column
    that is a slowdown, so timing columns are annotated with the inverted
    ratio (the speedup of NEW over OLD) instead.
    """
    out = []
    throughput = []  # (bench, section, row label, column, ratio) for *per_s cols
    for key in sorted(set(old) & set(new)):
        told, tnew = old[key], new[key]
        if told.get("headers") != tnew.get("headers"):
            out.append(f"-- {key[0]}: {key[1]}: headers changed, skipping")
            continue
        headers = told.get("headers", [])
        timing = [h.endswith(("_ns", "_us", "_ms", "_s")) and not h.endswith("per_s")
                  for h in headers]
        rows = []
        for rold, rnew in zip(told.get("rows", []), tnew.get("rows", [])):
            if rold[:1] != rnew[:1]:
                continue
            cells = [str(rnew[0])]
            for c, (a, b) in enumerate(zip(rold[1:], rnew[1:]), start=1):
                fa, fb = _to_float(a), _to_float(b)
                if fa is None or fb is None or fa == 0.0 or fb == 0.0:
                    cells.append("-" if a == b else f"{a}->{b}")
                elif timing[c]:
                    cells.append(f"{fa / fb:.3g}x faster" if fa >= fb
                                 else f"{fb / fa:.3g}x slower")
                else:
                    cells.append(f"{fb / fa:.3g}x")
                    if headers[c].endswith("per_s"):
                        throughput.append(
                            (key[0], key[1], str(rnew[0]), headers[c], fb / fa))
            rows.append(cells)
        out.append(f"-- {key[0]}: {key[1]}")
        out.append(render_table(headers, rows))
        out.append("")
    if throughput:
        # Throughput (`*per_s`) is the headline perf number — resurface every
        # rate ratio in one table so a regression can't hide mid-diff.
        out.append("-- throughput summary (NEW/OLD, >1 is faster)")
        rows = [[f"{bench}: {section}"[:60], label, column, f"{ratio:.3g}x"]
                for bench, section, label, column, ratio in throughput]
        out.append(render_table(["table", "row", "column", "ratio"], rows))
        worst = min(throughput, key=lambda e: e[4])
        best = max(throughput, key=lambda e: e[4])
        out.append(f"throughput: best {best[4]:.3g}x ({best[2]}), "
                   f"worst {worst[4]:.3g}x ({worst[2]})")
        out.append("")
    missing = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))
    for key in missing:
        out.append(f"-- only in OLD: {key[0]}: {key[1]}")
    for key in added:
        out.append(f"-- only in NEW: {key[0]}: {key[1]}")
    out.append(f"bench_report: diffed {len(set(old) & set(new))} table(s)")
    return "\n".join(out)


def is_throughput_header(h):
    """Rate columns: `*per_s` (metrics idiom) and `*/s` (table idiom)."""
    return h.endswith("per_s") or h.endswith("/s")


def _label_keys(rows):
    """(first cell, occurrence) for each row: the k-th row carrying a label
    in OLD matches the k-th row carrying it in NEW, wherever it sits."""
    seen = {}
    keys = []
    for row in rows:
        label = str(row[0]) if row else ""
        keys.append((label, seen.get(label, 0)))
        seen[label] = seen.get(label, 0) + 1
    return keys


def throughput_ratios(old, new):
    """Match every gated OLD cell — a nonzero number in a throughput column —
    to NEW by (bench, section), row label and column name. Returns (ratios,
    missing): ratios as (bench, section, row label, column, old value, new
    value, new/old ratio), and one line per gated OLD table, column or row
    that NEW lacks."""
    ratios, missing = [], []
    for key in sorted(old):
        told = old[key]
        headers = told.get("headers", [])
        gated = [c for c, h in enumerate(headers) if is_throughput_header(h)]
        rows = [(k, r) for k, r in zip(_label_keys(told.get("rows", [])),
                                       told.get("rows", []))
                if any(_to_float(r[c]) for c in gated if c < len(r))]
        if not rows:
            continue
        name = f"{key[0]}: {key[1]}"
        tnew = new.get(key)
        if tnew is None:
            missing.append(f"table '{name}' is missing from NEW")
            continue
        new_headers = tnew.get("headers", [])
        for c in gated:
            if headers[c] not in new_headers:
                missing.append(f"table '{name}': column '{headers[c]}' is "
                               "missing from NEW")
        new_rows = dict(zip(_label_keys(tnew.get("rows", [])),
                            tnew.get("rows", [])))
        for (label, k), rold in rows:
            rnew = new_rows.get((label, k))
            if rnew is None:
                missing.append(f"table '{name}': row '{label}' is missing "
                               "from NEW")
                continue
            for c in gated:
                fa = _to_float(rold[c]) if c < len(rold) else None
                if not fa or headers[c] not in new_headers:
                    continue
                nc = new_headers.index(headers[c])
                fb = _to_float(rnew[nc]) if nc < len(rnew) else None
                if fb is None:
                    missing.append(f"table '{name}': row '{label}' has no "
                                   f"number in column '{headers[c]}' in NEW")
                    continue
                ratios.append((key[0], key[1], label, headers[c], fa, fb, fb / fa))
    return ratios, missing


def check_throughput(old, new, tolerance_pct):
    """The regression gate: 0 when every gated throughput cell of OLD has a
    match in NEW within `tolerance_pct` percent, 1 otherwise (regressions and
    unmatched tables, columns and rows listed)."""
    ratios, missing = throughput_ratios(old, new)
    if not ratios and not missing:
        print("bench_report: no matching *per_s columns between the two runs",
              file=sys.stderr)
        return 1
    floor = 1.0 - tolerance_pct / 100.0
    regressions = [r for r in ratios if r[6] < floor]
    rows = [[f"{bench}: {section}"[:60], label, column,
             f"{fa:.6g}", f"{fb:.6g}", f"{ratio:.3g}x",
             "REGRESSED" if ratio < floor else "ok"]
            for bench, section, label, column, fa, fb, ratio in ratios]
    print(render_table(
        ["table", "row", "column", "old", "new", "ratio", "verdict"], rows))
    print()
    for line in missing:
        print(f"MISSING: {line}")
    if regressions or missing:
        print(f"bench_report: FAIL — {len(regressions)} of {len(ratios)} "
              f"throughput cell(s) regressed beyond {tolerance_pct:g}% "
              f"(ratio < {floor:.3g}); {len(missing)} gated table(s), "
              "column(s) or row(s) of OLD missing from NEW")
        return 1
    print(f"bench_report: OK — {len(ratios)} throughput cell(s) within "
          f"{tolerance_pct:g}% of baseline")
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--check"]:
        argv = argv[1:]
        tolerance = 10.0
        if "--tolerance" in argv:
            i = argv.index("--tolerance")
            try:
                tolerance = float(argv[i + 1])
            except (IndexError, ValueError):
                print("bench_report: --tolerance needs a number", file=sys.stderr)
                return 2
            del argv[i:i + 2]
        if len(argv) != 2:
            print("usage: bench_report.py --check OLD NEW [--tolerance PCT]",
                  file=sys.stderr)
            return 2
        (old, old_meta), (new, new_meta) = load_run(argv[0]), load_run(argv[1])
        if not old or not new:
            print("bench_report: no artifacts in one of the runs", file=sys.stderr)
            return 1
        for w in host_context_warnings(old_meta, new_meta):
            print(w)
        return check_throughput(old, new, tolerance)
    if argv[:1] == ["--diff"]:
        if len(argv) != 3:
            print("usage: bench_report.py --diff OLD NEW", file=sys.stderr)
            return 2
        (old, old_meta), (new, new_meta) = load_run(argv[1]), load_run(argv[2])
        if not old or not new:
            print("bench_report: no artifacts in one of the runs", file=sys.stderr)
            return 1
        warnings = host_context_warnings(old_meta, new_meta)
        for w in warnings:
            print(w)
        if warnings:
            print()
        print(diff_tables(old, new))
        return 0
    paths = find_artifacts(argv)
    if not paths:
        print("bench_report: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    text, seen = report(paths)
    print(text)
    return 0 if seen else 1


if __name__ == "__main__":
    sys.exit(main())
