#!/usr/bin/env python3
"""Schema checker for results/BENCH_dataplane.json (CI gate).

Validates the artifact written by bench_dataplane without depending on
anything outside the Python standard library.  Exits non-zero and prints
every violation so a CI failure points straight at the malformed field.

Beyond shape, it re-checks invariants any real engine window holds, so a
stale or hand-edited artifact cannot sneak past CI:
  - delivered never exceeds originated,
  - the latency percentiles are ordered (p50 <= p95 <= p99),
  - an optional --min-pps floor on the engine's originations/s.

Usage:
  tools/validate_dataplane.py results/BENCH_dataplane.json [--min-pps N]
"""

import argparse
import json
import sys

SCHEMA_VERSION = 4  # 4 replaced `aesni_shani` with the shared `host` block
NUMBER = (int, float)

TOP_FIELDS = {
    "schema_version": int,
    "bench": str,
    "seed": int,
    "host": dict,
    "nodes": int,
    "density": NUMBER,
    "duration_s": NUMBER,
}

HOST_FIELDS = {
    "cores": int,
    "aesni": bool,
    "sha_ni": bool,
}

ENGINE_FIELDS = {
    "setup_s": NUMBER,
    "engine_wall_s": NUMBER,
    "originated": int,
    "hop_tx": int,
    "delivered": int,
    "originated_per_s": NUMBER,
    "hop_tx_per_s": NUMBER,
    "seal_per_s": NUMBER,
    "open_per_s": NUMBER,
    "latency_p50_ms": NUMBER,
    "latency_p95_ms": NUMBER,
    "latency_p99_ms": NUMBER,
    "seals": int,
    "opens": int,
    "refresh_rounds": int,
    "peak_rss_kb": int,
}


class Checker:
    def __init__(self):
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)

    def expect(self, obj, field, kind, where):
        value = obj.get(field)
        if value is None:
            self.fail(f"{where}: missing field '{field}'")
        elif kind is not bool and isinstance(value, bool):
            self.fail(f"{where}: field '{field}' is bool, expected {kind}")
        elif not isinstance(value, kind):
            self.fail(f"{where}: field '{field}' is {type(value).__name__}, "
                      f"expected {kind}")
        return value


def check(path, min_pps, checker):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        checker.fail(f"{path}: unreadable artifact: {err}")
        return

    version = checker.expect(doc, "schema_version", int, path)
    if version is not None and version != SCHEMA_VERSION:
        checker.fail(f"{path}: schema_version {version}, "
                     f"validator knows {SCHEMA_VERSION}")
    for field, kind in TOP_FIELDS.items():
        checker.expect(doc, field, kind, path)
    if isinstance(doc.get("host"), dict):
        for field, kind in HOST_FIELDS.items():
            checker.expect(doc["host"], field, kind, f"{path}:host")
    if doc.get("bench") not in (None, "dataplane"):
        checker.fail(f"{path}: bench is '{doc.get('bench')}', "
                     f"expected 'dataplane'")

    engine = doc.get("engine")
    if not isinstance(engine, dict):
        checker.fail(f"{path}: missing section 'engine'")
        return
    where = f"{path}:engine"
    values = {field: checker.expect(engine, field, kind, where)
              for field, kind in ENGINE_FIELDS.items()}
    if any(not isinstance(v, NUMBER) or isinstance(v, bool)
           for v in values.values()):
        return  # shape errors already reported

    if values["delivered"] > values["originated"]:
        checker.fail(f"{where}: delivered {values['delivered']} exceeds "
                     f"originated {values['originated']}")
    p50, p95, p99 = (values[f"latency_{p}_ms"] for p in ("p50", "p95", "p99"))
    if not p50 <= p95 <= p99:
        checker.fail(f"{where}: latency percentiles out of order "
                     f"(p50={p50}, p95={p95}, p99={p99})")
    if min_pps > 0 and values["originated_per_s"] < min_pps:
        checker.fail(f"{where}: originated_per_s "
                     f"{values['originated_per_s']:.0f} below floor "
                     f"{min_pps:.0f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="BENCH_dataplane.json to validate")
    parser.add_argument("--min-pps", type=float, default=0.0,
                        help="floor on the engine's originations/s")
    args = parser.parse_args()

    checker = Checker()
    check(args.artifact, args.min_pps, checker)
    if checker.errors:
        for error in checker.errors:
            print(f"FAIL {error}", file=sys.stderr)
        return 1
    print(f"{args.artifact} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
