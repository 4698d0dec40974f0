#!/usr/bin/env python3
"""Schema checker for results/BENCH_dataplane.json (CI gate).

Validates the artifact written by bench_dataplane without depending on
anything outside the Python standard library.  Exits non-zero and prints
every violation so a CI failure points straight at the malformed field.

Beyond shape, it re-checks the bench's own invariants so a stale or
hand-edited artifact cannot sneak past CI:
  - the scalar and batched pipelines report bit-identical delivery
    metrics (originated/hop_tx/delivered and every latency percentile)
    and identical crypto work (seals, opens),
  - metrics_identical agrees with that comparison,
  - an optional --min-pps floor on the batched pipeline's originations/s.

Usage:
  tools/validate_dataplane.py results/BENCH_dataplane.json [--min-pps N]
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1
NUMBER = (int, float)

TOP_FIELDS = {
    "schema_version": int,
    "bench": str,
    "nodes": int,
    "density": NUMBER,
    "duration_s": NUMBER,
    "seed": int,
    "aesni_shani": bool,
    "engine_wall_speedup": NUMBER,
    "metrics_identical": bool,
}

CRYPTO_FIELDS = {
    "msg_bytes": int,
    "aad_bytes": int,
    "lanes": int,
    "scalar_seal_per_s": NUMBER,
    "batched_seal_per_s": NUMBER,
    "seal_speedup": NUMBER,
    "scalar_open_per_s": NUMBER,
    "batched_open_per_s": NUMBER,
    "open_speedup": NUMBER,
}

PIPELINE_FIELDS = {
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
    "batches_sealed": int,
    "max_group_lanes": int,
    "refresh_rounds": int,
    "arena_generations": int,
    "peak_rss_kb": int,
}

# The fields that must be bit-identical between the two pipelines for
# the batched path to count as equivalent.  seals and opens count the
# crypto work the deployment does (crypto/obs.hpp): memo hits count like
# computed calls, so they do not depend on the pipeline either.
IDENTICAL_FIELDS = (
    "originated",
    "hop_tx",
    "delivered",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "seals",
    "opens",
)


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
    if doc.get("bench") not in (None, "dataplane"):
        checker.fail(f"{path}: bench is '{doc.get('bench')}', "
                     f"expected 'dataplane'")

    crypto = doc.get("crypto")
    if not isinstance(crypto, dict):
        checker.fail(f"{path}: missing section 'crypto'")
    else:
        for field, kind in CRYPTO_FIELDS.items():
            checker.expect(crypto, field, kind, f"{path}:crypto")

    pipelines = doc.get("pipelines")
    if not isinstance(pipelines, dict):
        checker.fail(f"{path}: missing section 'pipelines'")
        return
    for name in ("scalar", "batched"):
        block = pipelines.get(name)
        if not isinstance(block, dict):
            checker.fail(f"{path}: missing pipeline '{name}'")
            continue
        for field, kind in PIPELINE_FIELDS.items():
            checker.expect(block, field, kind, f"{path}:pipelines.{name}")

    scalar = pipelines.get("scalar")
    batched = pipelines.get("batched")
    if isinstance(scalar, dict) and isinstance(batched, dict):
        mismatched = [f for f in IDENTICAL_FIELDS
                      if scalar.get(f) != batched.get(f)]
        for field in mismatched:
            checker.fail(f"{path}: pipelines disagree on '{field}': "
                         f"scalar={scalar.get(field)} "
                         f"batched={batched.get(field)}")
        if doc.get("metrics_identical") is True and mismatched:
            checker.fail(f"{path}: metrics_identical claims true but "
                         f"{len(mismatched)} field(s) differ")
        if doc.get("metrics_identical") is False and not mismatched:
            checker.fail(f"{path}: metrics_identical claims false but the "
                         f"compared fields all match")
        if min_pps > 0:
            pps = batched.get("originated_per_s")
            if isinstance(pps, NUMBER) and pps < min_pps:
                checker.fail(f"{path}: batched originated_per_s {pps:.0f} "
                             f"below floor {min_pps:.0f}")
        if isinstance(batched.get("batches_sealed"), int) \
                and batched["batches_sealed"] == 0:
            checker.fail(f"{path}: batched pipeline sealed zero batches — "
                         f"the multi-buffer path never ran")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="BENCH_dataplane.json to validate")
    parser.add_argument("--min-pps", type=float, default=0.0,
                        help="floor on the batched pipeline's originations/s")
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
