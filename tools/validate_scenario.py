#!/usr/bin/env python3
"""Schema checker for the scenario suite (CI gate).

Validates two kinds of artifact, auto-detected per file, using nothing
outside the Python standard library.  Exits non-zero and prints every
violation so a CI failure points straight at the malformed field.

  - A ScenarioSpec JSON file (examples/scenarios/*.json): the same
    structural rules src/scenario/spec.cpp enforces — schema_version,
    known motion models, rates >= 0, active_fraction in (0, 1],
    scripted events inside their phase window, partitions inside the
    deployment area.

  - results/BENCH_scenarios.json, written by bench_scenarios: shape of
    every engine phase and baseline replay, plus the bench's own hard
    gates re-checked — deterministic reruns, and every replay's trace
    digest equal to its engine's (a stale or hand-edited artifact
    cannot sneak past CI).  When the artifact carries a `scale_sweep`,
    every point's fields and sanity are re-checked too:
    positive timings, element-identity, and the incremental-vs-full
    speedup consistent with its own timings and above the recorded
    gate at gate-sized deployments.

Usage:
  tools/validate_scenario.py examples/scenarios/*.json \\
                             [results/BENCH_scenarios.json]
"""

import json
import sys

SCHEMA_VERSION = 1
# 2 added the mobile-scale sweep, 3 the shared envelope (seed, host).
BENCH_SCHEMA_VERSION = 3
NUMBER = (int, float)
MOTION_MODELS = ("none", "waypoint", "group")

ENGINE_PHASE_FIELDS = {
    "name": str,
    "start_s": NUMBER,
    "end_s": NUMBER,
    "attempts": int,
    "originated": int,
    "delivered": int,
    "delivery_ratio": NUMBER,
    "latency_p50_ms": NUMBER,
    "latency_p95_ms": NUMBER,
    "dropped_gone": int,
    "dropped_partition": int,
    "tx_gated": int,
    "motion_epochs": int,
    "joins": int,
    "join_successes": int,
    "leaves": int,
    "fails": int,
    "sleeps": int,
    "wakes": int,
    "forced_wakes": int,
    "partitions": int,
    "heals": int,
    "reclustered": int,
    "refresh_rounds": int,
    "catch_up_epochs": int,
    "hash_epoch_lag_end": NUMBER,
    "orphans_end": int,
    "orphan_node_s": NUMBER,
    "heads_end": int,
    "mean_degree_end": NUMBER,
}

REPLAY_PHASE_FIELDS = {
    "name": str,
    "alive_fraction": NUMBER,
    "awake_fraction": NUMBER,
    "in_range_pairs": int,
    "secured_pairs": int,
    "secured_link_fraction": NUMBER,
    "mean_secured_degree": NUMBER,
    "unkeyed_nodes": int,
}

HOST_FIELDS = {
    "cores": int,
    "aesni": bool,
    "sha_ni": bool,
}

SWEEP_POINT_FIELDS = {
    "nodes": int,
    "side_m": NUMBER,
    "range_m": NUMBER,
    "mobile_fraction": NUMBER,
    "mean_degree": NUMBER,
    "incr_epoch_s": NUMBER,
    "full_epoch_s": NUMBER,
    "incr_ns_per_node": NUMBER,
    "full_ns_per_node": NUMBER,
    "movers_per_epoch": NUMBER,
    "speedup": NUMBER,
    "identical": bool,
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


def check_spec(doc, path, checker):
    version = checker.expect(doc, "schema_version", int, path)
    if version is not None and version != SCHEMA_VERSION:
        checker.fail(f"{path}: schema_version {version}, "
                     f"validator knows {SCHEMA_VERSION}")
    checker.expect(doc, "name", str, path)
    nodes = checker.expect(doc, "nodes", int, path)
    if nodes is not None and nodes < 2:
        checker.fail(f"{path}: nodes must be >= 2 (base station + sensor)")
    side = doc.get("side_m", 1000.0)

    motion = doc.get("motion", {})
    model = motion.get("model", "none")
    if model not in MOTION_MODELS:
        checker.fail(f"{path}: unknown motion model '{model}' "
                     f"(one of {MOTION_MODELS})")
    if motion.get("epoch_s", 0.5) <= 0:
        checker.fail(f"{path}: motion.epoch_s must be > 0")

    churn = doc.get("churn", {})
    for rate in ("leave_rate_hz", "fail_rate_hz", "join_rate_hz"):
        if churn.get(rate, 0.0) < 0:
            checker.fail(f"{path}: churn.{rate} must be >= 0")

    duty = doc.get("duty", {})
    af = duty.get("active_fraction", 0.8)
    if not 0.0 < af <= 1.0:
        checker.fail(f"{path}: duty.active_fraction must be in (0, 1]")
    if not duty.get("period_s", 2.0) >= 1e-9:
        checker.fail(f"{path}: duty.period_s must be >= 1e-9 (one nanosecond)")

    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        checker.fail(f"{path}: needs a non-empty 'phases' array")
        return
    for pi, phase in enumerate(phases):
        where = f"{path}: phases[{pi}]"
        checker.expect(phase, "name", str, where)
        duration = phase.get("duration_s", 1.0)
        if duration <= 0:
            checker.fail(f"{where}: duration_s must be > 0")
        for ei, event in enumerate(phase.get("events", [])):
            ewhere = f"{where}.events[{ei}]"
            kind = event.get("kind")
            if kind not in ("partition", "heal"):
                checker.fail(f"{ewhere}: unknown kind '{kind}'")
            at_s = event.get("at_s", 0.0)
            if not 0.0 <= at_s < duration:
                checker.fail(f"{ewhere}: at_s {at_s} outside "
                             f"[0, {duration})")
            if kind == "partition" and not 0.0 < event.get("x_m", 0.0) < side:
                checker.fail(f"{ewhere}: partition x_m outside (0, {side})")


def check_engine_stats(doc, where, checker):
    checker.expect(doc, "name", str, where)
    checker.expect(doc, "seed", int, where)
    digest = checker.expect(doc, "trace_digest", str, where)
    for field in ("originated", "delivered", "dropped_gone",
                  "dropped_partition", "tx_gated", "joins", "leaves",
                  "fails", "reclusters"):
        checker.expect(doc, field, int, where)
    phases = doc.get("phases", [])
    if not phases:
        checker.fail(f"{where}: no phases recorded")
    for pi, phase in enumerate(phases):
        for field, kind in ENGINE_PHASE_FIELDS.items():
            checker.expect(phase, field, kind, f"{where}.phases[{pi}]")
    return digest


def check_sweep(doc, path, checker):
    """The mobile-scale sweep: shape + the bench's own gates re-checked."""
    points = doc.get("scale_sweep")
    if points is None:
        if "sweep_identical" in doc:
            checker.fail(f"{path}: sweep flags present but no scale_sweep")
        return
    if checker.expect(doc, "sweep_identical", bool, path) is False:
        checker.fail(f"{path}: bench reported sweep topologies diverged")
    min_speedup = checker.expect(doc, "sweep_min_speedup", NUMBER, path)
    gate_nodes = checker.expect(doc, "sweep_gate_nodes", int, path)
    if not points:
        checker.fail(f"{path}: scale_sweep is empty")
    for si, pt in enumerate(points):
        where = f"{path}: scale_sweep[{si}]"
        for field, kind in SWEEP_POINT_FIELDS.items():
            checker.expect(pt, field, kind, where)
        if pt.get("identical") is False:
            checker.fail(f"{where}: incremental != full-rebuild topology")
        incr = pt.get("incr_epoch_s", 0)
        full = pt.get("full_epoch_s", 0)
        speedup = pt.get("speedup", 0)
        if isinstance(incr, (int, float)) and incr <= 0:
            checker.fail(f"{where}: incr_epoch_s must be > 0")
        elif isinstance(full, (int, float)) and isinstance(speedup, (int, float)):
            if abs(speedup - full / incr) > 1e-6 * max(1.0, speedup):
                checker.fail(f"{where}: speedup {speedup} inconsistent with "
                             f"full/incr = {full / incr}")
        if (isinstance(min_speedup, (int, float))
                and isinstance(speedup, (int, float))
                and isinstance(gate_nodes, int)
                and pt.get("nodes", 0) >= gate_nodes
                and speedup < min_speedup):
            checker.fail(f"{where}: speedup {speedup} below the "
                         f"{min_speedup}x gate at {pt.get('nodes')} nodes")
        mf = pt.get("mobile_fraction", 0)
        if isinstance(mf, (int, float)) and not 0.0 < mf <= 1.0:
            checker.fail(f"{where}: mobile_fraction must be in (0, 1]")


def check_bench(doc, path, checker):
    version = checker.expect(doc, "schema_version", int, path)
    if version is not None and version != BENCH_SCHEMA_VERSION:
        checker.fail(f"{path}: schema_version {version}, "
                     f"validator knows {BENCH_SCHEMA_VERSION}")
    if doc.get("bench") != "scenarios":
        checker.fail(f"{path}: bench is '{doc.get('bench')}', "
                     f"expected 'scenarios'")
    checker.expect(doc, "seed", int, path)
    host = checker.expect(doc, "host", dict, path)
    if isinstance(host, dict):
        for field, kind in HOST_FIELDS.items():
            checker.expect(host, field, kind, f"{path}: host")
    checker.expect(doc, "nodes", int, path)
    if checker.expect(doc, "deterministic", bool, path) is False:
        checker.fail(f"{path}: bench reported non-deterministic reruns")
    if checker.expect(doc, "digests_match", bool, path) is False:
        checker.fail(f"{path}: bench reported replay digest mismatch")

    scenarios = doc.get("scenarios", [])
    if not scenarios:
        checker.fail(f"{path}: no scenarios recorded")
    for si, entry in enumerate(scenarios):
        where = f"{path}: scenarios[{si}]"
        checker.expect(entry, "wall_s", NUMBER, where)
        if entry.get("deterministic") is not True:
            checker.fail(f"{where}: engine rerun was not bit-identical")
        engine = entry.get("engine", {})
        digest = check_engine_stats(engine, f"{where}.engine", checker)
        replays = entry.get("replays", [])
        if len(replays) < 3:
            checker.fail(f"{where}: expected >= 3 baseline replays, "
                         f"got {len(replays)}")
        for ri, replay in enumerate(replays):
            rwhere = f"{where}.replays[{ri}]"
            checker.expect(replay, "scheme", str, rwhere)
            if digest is not None and replay.get("trace_digest") != digest:
                checker.fail(f"{rwhere}: trace_digest "
                             f"{replay.get('trace_digest')} != engine's "
                             f"{digest}")
            for pi, phase in enumerate(replay.get("phases", [])):
                for field, kind in REPLAY_PHASE_FIELDS.items():
                    checker.expect(phase, field, kind,
                                   f"{rwhere}.phases[{pi}]")
            if len(replay.get("phases", [])) != len(engine.get("phases", [])):
                checker.fail(f"{rwhere}: phase count differs from engine")
    check_sweep(doc, path, checker)


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    checker = Checker()
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            checker.fail(f"{path}: unreadable: {err}")
            continue
        if not isinstance(doc, dict):
            checker.fail(f"{path}: top level is not an object")
        elif "bench" in doc:
            check_bench(doc, path, checker)
        else:
            check_spec(doc, path, checker)

    if checker.errors:
        for error in checker.errors:
            print(f"FAIL {error}")
        return 1
    print(f"OK {len(argv) - 1} artifact(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
