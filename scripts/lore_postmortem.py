#!/usr/bin/env python3
"""Post-mortem decoder for `lore.flight.v1` flight-recorder rings.

A LORE process started with LORE_FLIGHT=<file> (or a fabric worker under
LORE_FLIGHT_DIR) keeps an mmap-backed on-disk ring of its last N telemetry
events (src/obs/flight.hpp). Because the mapping lives in the page cache,
the ring survives SIGKILL and fatal signals — this script turns any ring,
cleanly sealed or torn mid-write, into a human-readable timeline:

  scripts/lore_postmortem.py /tmp/flight-12345.ring
  scripts/lore_postmortem.py --last 32 --json ring.out

Reported, in order: how the process died (seal state), the inflight fabric
shard at death (last shard_begin without a matching shard_end), the spans
still open at death, the last --last events, and per-trial causal chains for
trials that retried or failed. Only the Python standard library is used.
"""

import argparse
import json
import signal
import struct
import sys

MAGIC = b"LOREFLT1"
HEADER_BYTES = 4096
RECORD_BYTES = 64
# FlightHeaderRaw: magic[8], version u32, record_size u32, capacity u64,
# cursor u64, pid u32, seal_signal i32, sealed u32, reserved u32, seal_t_us f64
HEADER_FMT = "<8sIIQQIiIId"
# FlightSlot: seq u64, t_us f64, a u64, value f64, span u64, kind u8, pad u8,
# tid u16, label[16], crc u32 (crc covers the first 60 bytes)
RECORD_FMT = "<QdQdQBBH16sI"

# lore.events.v1 kinds (src/obs/event.hpp); index = wire value.
KIND_NAMES = [
    "trial_completed", "trial_timeout", "trial_retry", "trial_failed",
    "checkpoint_written", "span_begin", "span_end", "alert",
    "trials_pruned", "shard_begin", "shard_end",
]

SEAL_NAMES = {0: "TORN", 1: "SEALED_CLEAN", 2: "SEALED_SIGNAL"}

SIGNAL_NAMES = {4: "SIGILL", 6: "SIGABRT", 7: "SIGBUS", 8: "SIGFPE",
                11: "SIGSEGV"}


def crc32_ieee(data):
    """CRC-32 (IEEE, reflected) — matches flight.cpp's table-driven CRC.
    zlib's crc32 is the same polynomial/reflection, so delegate to it."""
    import zlib
    return zlib.crc32(data) & 0xFFFFFFFF


def decode_ring(path):
    """Decode one ring file into (header dict, records list, torn count).
    Raises ValueError on a foreign or corrupt header."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER_BYTES:
        raise ValueError(f"{path}: too small for a lore.flight.v1 header")
    (magic, version, record_size, capacity, cursor, pid, seal_signal,
     sealed, _reserved, seal_t_us) = struct.unpack_from(HEADER_FMT, blob, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r} (not a flight ring)")
    if version != 1 or record_size != RECORD_BYTES:
        raise ValueError(f"{path}: unsupported version {version} / "
                         f"record size {record_size}")
    if capacity == 0 or capacity & (capacity - 1):
        raise ValueError(f"{path}: capacity {capacity} is not a power of two")
    if len(blob) < HEADER_BYTES + capacity * RECORD_BYTES:
        raise ValueError(f"{path}: truncated ring body")

    header = {
        "path": path, "version": version, "capacity": capacity,
        "cursor": cursor, "pid": pid, "sealed": sealed,
        "seal_signal": seal_signal, "seal_t_us": seal_t_us,
    }

    # Live window: the newest min(cursor, capacity) sequence numbers. A slot
    # whose stored seq disagrees, or whose CRC fails, was mid-write at death.
    live = min(cursor, capacity)
    first_seq = 0 if cursor < capacity else cursor - capacity
    records, torn = [], 0
    for seq in range(first_seq, first_seq + live):
        off = HEADER_BYTES + (seq & (capacity - 1)) * RECORD_BYTES
        (sseq, t_us, a, value, span, kind, _pad, tid, label,
         crc) = struct.unpack_from(RECORD_FMT, blob, off)
        if sseq != seq or crc != crc32_ieee(blob[off:off + 60]):
            torn += 1
            continue
        records.append({
            "seq": sseq, "t_us": t_us, "a": a, "value": value,
            "span": span, "kind": kind, "tid": tid,
            "label": label.split(b"\0", 1)[0].decode("utf-8", "replace"),
        })
    return header, records, torn


def kind_name(kind):
    return KIND_NAMES[kind] if kind < len(KIND_NAMES) else f"kind{kind}"


def seal_summary(header):
    sealed = header["sealed"]
    name = SEAL_NAMES.get(sealed, f"sealed={sealed}")
    if sealed == 2:
        sig = header["seal_signal"]
        return (f"{name}: fatal {SIGNAL_NAMES.get(sig, f'signal {sig}')} at "
                f"t={header['seal_t_us'] / 1e6:.6f}s")
    if sealed == 1:
        return f"{name}: process closed the recorder normally"
    return (f"{name}: no seal — the process died uncatchably (SIGKILL, OOM "
            "kill, or power loss) or is still running")


def inflight_shard(records):
    """The shard begun but never ended — what the worker was executing when
    it died. None when every shard_begin has a matching shard_end."""
    shard = None
    for r in records:
        if kind_name(r["kind"]) == "shard_begin":
            shard = r["a"]
        elif kind_name(r["kind"]) == "shard_end" and shard == r["a"]:
            shard = None
    return shard


def open_spans(records):
    """Spans begun but not ended, oldest first, as (span id, label, t_us).
    Matched by the record's own span id, so interleaved threads resolve."""
    opened = {}
    for r in records:
        name = kind_name(r["kind"])
        if name == "span_begin":
            opened[r["span"]] = r
        elif name == "span_end":
            opened.pop(r["span"], None)
    return sorted(opened.values(), key=lambda r: r["seq"])


def trial_chains(records):
    """Per-trial causal chains for trials that struggled: trial index ->
    ordered [retry/timeout/failed/completed] records."""
    chains = {}
    for r in records:
        name = kind_name(r["kind"])
        if name in ("trial_retry", "trial_timeout", "trial_failed",
                    "trial_completed"):
            chains.setdefault(r["a"], []).append(r)
    return {t: evs for t, evs in chains.items()
            if any(kind_name(e["kind"]) != "trial_completed" for e in evs)}


def format_record(r):
    name = kind_name(r["kind"])
    extra = f" label={r['label']}" if r["label"] else ""
    span = f" span={r['span']:016x}" if r["span"] else ""
    return (f"  #{r['seq']:<8} t={r['t_us'] / 1e6:10.6f}s tid={r['tid']:<3} "
            f"{name:<19} a={r['a']:<8} value={r['value']:.6g}{span}{extra}")


def report(header, records, torn, last):
    out = [f"=== lore_postmortem: {header['path']} ===",
           f"pid {header['pid']}, capacity {header['capacity']} records, "
           f"{header['cursor']} written, {len(records)} recovered, "
           f"{torn} torn",
           seal_summary(header), ""]

    shard = inflight_shard(records)
    if shard is not None:
        out.append(f"inflight fabric shard at death: {shard}")
    spans = open_spans(records)
    if spans:
        out.append(f"open spans at death ({len(spans)}):")
        for r in spans:
            out.append(f"  {r['span']:016x}  {r['label']:<20} opened "
                       f"t={r['t_us'] / 1e6:.6f}s (parent {r['a']:016x})")
    if shard is not None or spans:
        out.append("")

    tail = records[-last:] if last else records
    out.append(f"last {len(tail)} events (of {len(records)} recovered):")
    out.extend(format_record(r) for r in tail)

    chains = trial_chains(records)
    if chains:
        out.append("")
        out.append(f"struggling trials ({len(chains)}):")
        for trial in sorted(chains)[:20]:
            steps = " -> ".join(
                kind_name(e["kind"]).replace("trial_", "")
                for e in chains[trial])
            out.append(f"  trial {trial}: {steps}")
        if len(chains) > 20:
            out.append(f"  ... and {len(chains) - 20} more")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rings", nargs="+", help="lore.flight.v1 ring file(s)")
    ap.add_argument("--last", type=int, default=64,
                    help="events of timeline tail to print (0 = all)")
    ap.add_argument("--json", action="store_true",
                    help="emit the decoded ring as JSON instead of a report")
    args = ap.parse_args()

    rc = 0
    for path in args.rings:
        try:
            header, records, torn = decode_ring(path)
        except (OSError, ValueError) as e:
            print(f"lore_postmortem: {e}", file=sys.stderr)
            rc = 1
            continue
        if args.json:
            print(json.dumps({"header": header, "torn_records": torn,
                              "records": records}, indent=2))
        else:
            print(report(header, records, torn, args.last))
            print()
    return rc


if __name__ == "__main__":
    # Die quietly when the report is piped into `head` and the pipe closes.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
