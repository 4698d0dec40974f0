#!/usr/bin/env python3
"""Schema checker for the observability artifacts (CI gate).

Validates a RunSummary JSON and/or a versioned JSONL trace produced by
`ldke_sim --summary/--trace` without depending on anything outside the
Python standard library.  Exits non-zero and prints every violation so
a CI failure points straight at the malformed field.

Beyond field shapes, the trace check enforces one protocol invariant:
every `audit` eviction (kind "eviction_issued") must be followed by a
hash-refresh application (kind "refresh_applied") at the same or a later
timestamp — the §IV-C/§IV-D convergence property.  Evictions landing
within --allow-tail-s of the end of the trace are excused: the run may
simply have stopped before the next refresh round.

It also checks the drop accounting: each `trace_drops` record names a
known record family (no `family` means "pkt", as every writer before the
field meant), appears at most once per family, satisfies
seen == recorded + dropped, and the trace holds exactly `recorded` lines
of that family.

Usage:
  tools/validate_obs.py --summary run.json --trace run.jsonl
"""

import argparse
import json
import sys

# The RunSummary document evolves additively and stays at version 1;
# the JSONL trace gained the audit/health record families in version 2.
SUMMARY_SCHEMA_VERSION = 1
TRACE_SCHEMA_VERSION = 2
ACCEPTED_TRACE_VERSIONS = (1, 2)

AUDIT_KINDS = frozenset({
    "key_established", "member_joined", "refresh_round", "refresh_applied",
    "refresh_replay", "eviction_issued", "evicted", "join_started",
    "join_admitted", "join_rejected", "node_left", "node_failed", "sleep",
    "wake", "partition", "heal", "replay_rejected", "nonce_wrap_abort",
    "neighbor_key_stored", "neighbor_key_dropped",
})

# RunSummary: section -> {field: type}.  `float` accepts ints too (JSON
# has one number type; the writer emits 250 for 250.0).
NUMBER = (int, float)
SUMMARY_SECTIONS = {
    "config": {
        "node_count": int,
        "density": NUMBER,
        "side_m": NUMBER,
        "seed": int,
    },
    "sim": {
        "events_executed": int,
        "queue_high_water": int,
        "wall_seconds": NUMBER,
        "sim_time_s": NUMBER,
    },
    "channel": {
        "transmissions": int,
        "deliveries": int,
        "bytes_sent": int,
        "collisions": int,
        "losses": int,
    },
    "crypto": {
        "seals": int,
        "opens": int,
        "open_failures": int,
        "prf_calls": int,
        "sealed_bytes": int,
        "opened_bytes": int,
        "macs": int,
    },
    "energy": {"total_j": NUMBER, "tx_j": NUMBER, "rx_j": NUMBER},
    "latency": {
        "originated": int,
        "delivered": int,
        "unmatched": int,
        "p50_ms": NUMBER,
        "p90_ms": NUMBER,
        "p95_ms": NUMBER,
        "p99_ms": NUMBER,
        "max_ms": NUMBER,
    },
}

TRACE_LINE_FIELDS = {
    "meta": {
        "v": int, "tool": str, "nodes": int, "density": NUMBER, "seed": int,
    },
    "span": {"name": str, "t0": int, "t1": int, "depth": int},
    "pkt": {"t": int, "sender": int, "kind": str, "bytes": int},
    "delivery": {"src": int, "t_tx": int, "t_rx": int},
    "counters": {"snapshot": dict},
    # `trace_drops.family` is optional (absent means "pkt"), so it is
    # checked with the drop accounting below.
    "trace_drops": {"seen": int, "recorded": int, "dropped": int},
    # Schema v2 families.  `audit.subject` is optional (omitted when the
    # event has no counterpart node/cluster), so it is checked inline.
    "audit": {"t": int, "kind": str, "actor": int, "arg": int},
    "health": {
        "t": int,
        "phase": str,
        "active": int,
        "live_links": int,
        "secured_links": int,
        "secured_frac": NUMBER,
        "components": int,
        "largest": int,
        "delivered": int,
        "p50_ms": NUMBER,
        "p95_ms": NUMBER,
        "epoch_skew": int,
        "epoch_mean": NUMBER,
    },
}

# trace_drops families; each one counts the lines of the same type.
DROP_FAMILIES = frozenset({"pkt", "audit"})


class Checker:
    def __init__(self):
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)

    def expect(self, obj, field, kind, where):
        value = obj.get(field)
        if value is None:
            self.fail(f"{where}: missing field '{field}'")
        elif not isinstance(value, kind) or isinstance(value, bool):
            self.fail(f"{where}: field '{field}' is {type(value).__name__}, "
                      f"expected {kind}")
        return value


def check_summary(path, checker):
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        checker.fail(f"{path}: unreadable RunSummary: {err}")
        return

    version = checker.expect(summary, "schema_version", int, path)
    if version is not None and version != SUMMARY_SCHEMA_VERSION:
        checker.fail(f"{path}: schema_version {version}, "
                     f"validator knows {SUMMARY_SCHEMA_VERSION}")
    checker.expect(summary, "tool", str, path)

    for section, fields in SUMMARY_SECTIONS.items():
        block = summary.get(section)
        if not isinstance(block, dict):
            checker.fail(f"{path}: missing section '{section}'")
            continue
        for field, kind in fields.items():
            checker.expect(block, field, kind, f"{path}:{section}")

    # The Fig 9 contract: setup runs must expose the per-node message
    # count the paper plots.
    setup = summary.get("setup")
    if isinstance(setup, dict):
        checker.expect(setup, "setup_messages_per_node", NUMBER,
                       f"{path}:setup")

    counters = summary.get("counters")
    if not isinstance(counters, dict):
        checker.fail(f"{path}: missing section 'counters'")
    else:
        for family in ("counters", "gauges", "histograms"):
            if family not in counters:
                checker.fail(f"{path}:counters: missing family '{family}'")

    phases = summary.get("phases")
    if not isinstance(phases, list):
        checker.fail(f"{path}: 'phases' must be a list")


def check_trace(path, checker, allow_tail_s=2.0):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        checker.fail(f"{path}: unreadable trace: {err}")
        return

    if not lines:
        checker.fail(f"{path}: empty trace")
        return

    stats = {}
    drops = []          # (lineno, record) of every trace_drops
    evictions = []      # (lineno, t_ns) of every eviction_issued
    refresh_ts = []     # t_ns of every refresh_applied
    last_audit_ns = None
    for lineno, raw in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as err:
            checker.fail(f"{where}: not JSON: {err}")
            continue
        line_type = record.get("type")
        if not isinstance(line_type, str):
            checker.fail(f"{where}: missing 'type'")
            continue
        stats[line_type] = stats.get(line_type, 0) + 1
        fields = TRACE_LINE_FIELDS.get(line_type)
        if fields is None:
            # Readers skip unknown types; the validator only reports them.
            continue
        for field, kind in fields.items():
            checker.expect(record, field, kind, f"{where} ({line_type})")
        if line_type == "meta":
            if lineno != 1:
                checker.fail(f"{where}: meta must be the first line")
            version = record.get("v")
            if (isinstance(version, int)
                    and version not in ACCEPTED_TRACE_VERSIONS):
                checker.fail(f"{where}: trace v{version}, validator knows "
                             f"v{ACCEPTED_TRACE_VERSIONS}")
        elif line_type == "trace_drops":
            drops.append((lineno, record))
        elif line_type == "span":
            t0, t1 = record.get("t0"), record.get("t1")
            if (isinstance(t0, int) and isinstance(t1, int)
                    and t1 != -1 and t1 < t0):
                checker.fail(f"{where}: span ends before it starts")
        elif line_type == "audit":
            kind = record.get("kind")
            if isinstance(kind, str) and kind not in AUDIT_KINDS:
                checker.fail(f"{where}: unknown audit kind '{kind}'")
            subject = record.get("subject")
            if subject is not None and (not isinstance(subject, int)
                                        or isinstance(subject, bool)):
                checker.fail(f"{where}: audit 'subject' must be an int "
                             f"when present")
            t_ns = record.get("t")
            if isinstance(t_ns, int):
                if last_audit_ns is not None and t_ns < last_audit_ns:
                    checker.fail(f"{where}: audit stream out of order "
                                 f"({t_ns} after {last_audit_ns})")
                last_audit_ns = t_ns
                if kind == "eviction_issued":
                    evictions.append((lineno, t_ns))
                elif kind == "refresh_applied":
                    refresh_ts.append(t_ns)
        elif line_type == "health":
            frac = record.get("secured_frac")
            if isinstance(frac, NUMBER) and not 0.0 <= frac <= 1.0:
                checker.fail(f"{where}: secured_frac {frac} outside [0, 1]")
            secured = record.get("secured_links")
            live = record.get("live_links")
            if (isinstance(secured, int) and isinstance(live, int)
                    and secured > live):
                checker.fail(f"{where}: secured_links {secured} exceeds "
                             f"live_links {live}")

    if stats.get("meta", 0) != 1:
        checker.fail(f"{path}: expected exactly one meta line, "
                     f"found {stats.get('meta', 0)}")
    if stats.get("span", 0) == 0:
        checker.fail(f"{path}: no span lines")
    check_drops(path, drops, stats, checker)

    # Eviction -> refresh convergence.  Survivors must re-key after every
    # revocation; an eviction with no refresh_applied at t >= t_evict is
    # a protocol-health violation unless it sits in the trace tail.
    if evictions and last_audit_ns is not None:
        tail_ns = int(allow_tail_s * 1e9)
        for lineno, t_evict in evictions:
            if any(t >= t_evict for t in refresh_ts):
                continue
            if last_audit_ns - t_evict <= tail_ns:
                continue  # run ended before the next refresh round
            checker.fail(
                f"{path}:{lineno}: eviction at t={t_evict} never followed "
                f"by refresh_applied (and not within {allow_tail_s}s of "
                f"trace end)")
    return stats


def check_drops(path, drops, stats, checker):
    """Each family's drops record must add up and match its line count."""
    families = set()
    for lineno, record in drops:
        where = f"{path}:{lineno} (trace_drops)"
        family = record.get("family", "pkt")
        if not isinstance(family, str) or family not in DROP_FAMILIES:
            checker.fail(f"{where}: unknown family {family!r}")
            continue
        if family in families:
            checker.fail(f"{where}: second record for family '{family}'")
        families.add(family)
        seen = record.get("seen")
        recorded = record.get("recorded")
        dropped = record.get("dropped")
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (seen, recorded, dropped)):
            continue  # the field check already reported it
        if seen != recorded + dropped:
            checker.fail(f"{where}: seen {seen} != recorded {recorded} + "
                         f"dropped {dropped}")
        lines = stats.get(family, 0)
        if lines != recorded:
            checker.fail(f"{where}: {lines} '{family}' lines, but {recorded} "
                         f"recorded")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", help="RunSummary JSON to validate")
    parser.add_argument("--trace", help="JSONL trace to validate")
    parser.add_argument("--allow-tail-s", type=float, default=2.0,
                        help="excuse unconverged evictions within this many "
                             "seconds of the end of the trace (default 2.0)")
    args = parser.parse_args()
    if not args.summary and not args.trace:
        parser.error("nothing to validate: pass --summary and/or --trace")

    checker = Checker()
    if args.summary:
        check_summary(args.summary, checker)
    stats = None
    if args.trace:
        stats = check_trace(args.trace, checker, args.allow_tail_s)

    if checker.errors:
        for error in checker.errors:
            print(f"FAIL {error}", file=sys.stderr)
        return 1
    report = []
    if args.summary:
        report.append(f"{args.summary} ok")
    if args.trace and stats is not None:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        report.append(f"{args.trace} ok ({detail})")
    print("; ".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
