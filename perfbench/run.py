#!/usr/bin/env python3
"""End-to-end benchmark of the LDKE sensor-network simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady_2k --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the ldke_e2e
worker) as a Release tree, then runs the workload as a batch job: one
single-threaded worker process at a time, each doing set-up and the
measured window once on inputs generated from --seed, repeated until
--seconds have passed.  Every process's outputs are checked; a process
whose outputs break a check counts as failed.

--trace 0 prints the end-to-end metrics (medians over the processes).
--trace 1 runs untraced processes for half the time, then one traced
process, and prints the per-layer metrics (see perfbench/METRICS.md).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 1
# Held out for confirming claims: never used while tuning a change.
HELD_OUT_SEED = 20261016

MIN_PROCESSES = 3
WORKER_TIMEOUT_S = 150


def side_for(nodes):
    """Deployment side that keeps the 600-node/km^2 field density."""
    return 1000.0 * math.sqrt(nodes / 600.0)


WORKLOADS = {
    # §IV-B localized key setup at a working set far beyond cache.
    "setup_100k": {
        "kind": "setup",
        "nodes": 100000,
        "density": 12.0,
        "side_m": side_for(100000),
    },
    # §IV-C DATA under hash refresh on a cache-resident deployment, below
    # radio capacity (80 readings/s) so host cost does not depend on a
    # growing in-flight backlog.
    "steady_2k": {
        "kind": "steady",
        "nodes": 2000,
        "density": 12.0,
        "side_m": side_for(2000),
        "steady": {
            "duration_s": 240.0,
            "tick_interval_s": 0.05,
            "readings_per_tick": 4,
            "reading_bytes": 24,
            "refresh_interval_s": 1.0,
            "evict_interval_s": 0.0,
        },
    },
    # §IV-C/D/E key lifecycle under all-mobile waypoint motion, churn and
    # duty cycling, beside DATA through the same seal/open and channel.
    "mobile_churn_20k": {
        "kind": "scenario",
        "spec": {
            "schema_version": 1,
            "name": "mobile_churn_20k",
            "nodes": 20000,
            "density": 10.0,
            "side_m": side_for(20000),
            "motion": {"model": "waypoint", "epoch_s": 0.25,
                       "speed_min_mps": 2.0, "speed_max_mps": 12.0,
                       "pause_s": 0.5},
            "churn": {"leave_rate_hz": 4.0, "fail_rate_hz": 2.0,
                      "join_rate_hz": 4.0},
            "duty": {"period_s": 1.0, "active_fraction": 0.8},
            "data": {"tick_interval_s": 0.05, "readings_per_tick": 8,
                     "reading_bytes": 24, "refresh_interval_s": 1.0,
                     "evict_interval_s": 8.0, "evict_batch": 1},
            "phases": [
                {"name": "baseline", "duration_s": 2.0},
                {"name": "storm", "duration_s": 16.0, "mobility": True,
                 "churn": True, "duty": True},
                {"name": "recovered", "duration_s": 2.0},
            ],
        },
    },
}

# Metric names and units come from the benchmark definition itself.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DEFINITION = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def runner_seed(workload, seed):
    """The simulator seed for (workload, benchmark seed): the worker only
    ever sees this derived value, inside its generated config."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


# ---- build ------------------------------------------------------------------


def build():
    """Configures and builds the Release worker; returns its path."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, out, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "ldke_e2e", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail(f"build step failed ({' '.join(cmd[:2])}); see {log_path}")
    build_type = ""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"refusing to measure: {build_dir} is '{build_type}', not Release")
    return os.path.join(build_dir, "ldke_e2e"), build_type


def host_record(build_type, sample):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "aesni": sample.get("aesni"),
        "sha_ni": sample.get("sha_ni"),
        "build_type": build_type,
        "threads": 1,
    }


# ---- one worker process -----------------------------------------------------


def make_config(workload, seed, trace, variant=None):
    config = json.loads(json.dumps(WORKLOADS[workload]))
    config["seed"] = runner_seed(workload, seed)
    config["trace"] = bool(trace)
    if variant is not None:
        variant(config)
    return config


def run_worker(binary, config):
    """Runs one worker process to completion; returns its report or None."""
    try:
        proc = subprocess.run([binary], input=json.dumps(config),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check_outputs(workload, sim):
    """Invariants every run of the workload must hold; returns violations."""
    bad = []
    kind = WORKLOADS[workload]["kind"]
    if kind == "setup" and sim.get("secured_link_fraction") != 1.0:
        bad.append("setup left a link without a shared key")
    if kind in ("steady", "scenario"):
        if sim["delivered"] > sim["originated"]:
            bad.append("delivered > originated")
        if sim["latency_samples"] != sim["delivered"]:
            bad.append("latency samples != delivered")
        if sim["delivered"] and sim["latency_p50_ms"] > sim["latency_p95_ms"]:
            bad.append("latency p50 > p95")
    if kind == "scenario":
        if sim["join_successes"] > sim["joins"]:
            bad.append("join successes > joins")
        if sim["phase_originated_sum"] != sim["originated"]:
            bad.append("phase originations do not sum to the total")
        if not 0.0 < sim["secured_link_fraction"] <= 1.0:
            bad.append("storm secured-link fraction out of range")
    return bad


class Tally:
    """Attempted/failed accounting with the determinism check: every sim
    output of a seed must repeat bit-for-bit in every process."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reports = []

    def add(self, report):
        self.attempted += 1
        if report is None:
            self.failed += 1
            print("perfbench: worker produced no report", file=sys.stderr)
            return None
        bad = check_outputs(self.workload, report["sim"])
        if self.reference is None:
            self.reference = report["sim"]
        elif report["sim"] != self.reference:
            bad.append("sim outputs differ from the first process of this seed")
        if bad:
            self.failed += 1
            print(f"perfbench: check failed: {'; '.join(bad)}", file=sys.stderr)
        self.reports.append(report)
        return report


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


# ---- report -----------------------------------------------------------------


def end_to_end_metrics(tally):
    reports = tally.reports
    return {
        "setup_s": median_of(reports, "setup_s"),
        "wall_s": median_of(reports, "wall_s"),
        "peak_rss_mb": median_of(reports, "peak_rss_mb"),
        "sim_secured_link_fraction": tally.reference["secured_link_fraction"],
    }


def print_outcomes(workload, tally, gated):
    """Every named end-to-end outcome with unit, clock and sample count,
    including the simulated ones the benchmark cannot gate (METRICS.md)."""
    kind = WORKLOADS[workload]["kind"]
    sim = tally.reference
    host = f"median of {len(tally.reports)}"
    rows = [(name, END_TO_END[name], "sim" if name.startswith("sim_") else "host",
             "1 per seed" if name.startswith("sim_") else host, value)
            for name, value in gated.items()]
    if kind in ("steady", "scenario"):
        samples = f"{sim['latency_samples']} samples"
        rows += [
            ("sim_delivery_ratio", "ratio", "sim", f"{sim['originated']} originated",
             sim["delivered"] / sim["originated"] if sim["originated"] else 0.0),
            ("sim_latency_p50_ms", "ms", "sim", samples, sim["latency_p50_ms"]),
            ("sim_latency_p95_ms", "ms", "sim", samples, sim["latency_p95_ms"]),
        ]
    if kind == "scenario":
        rows.append(("sim_join_success_ratio", "ratio", "sim", f"{sim['joins']} joins",
                     sim["join_successes"] / sim["joins"] if sim["joins"] else 0.0))
    print(f"workload {workload}:")
    for name, unit, clock, samples, value in rows:
        print(f"  {name:28s} {value:14.6g} {unit:6s} {clock:5s} {samples}")


def drop_evictions(config):
    config["spec"]["data"]["evict_interval_s"] = 0.0


def drop_dynamics(config):
    drop_evictions(config)
    for phase in config["spec"]["phases"]:
        phase["mobility"] = phase["churn"] = phase["duty"] = False


def per_layer_metrics(binary, workload, seed, tally, untraced_wall):
    traced = tally.add(run_worker(binary, make_config(workload, seed, True)))
    if traced is None:
        return None
    metrics = dict(traced["layers"])
    metrics["obs.trace_overhead_pct"] = (
        (traced["wall_s"] - untraced_wall) / untraced_wall * 100.0)
    evictions = dynamics = 0.0
    if WORKLOADS[workload]["kind"] == "scenario":
        # The ablations re-run the scenario with parts switched off; they
        # are not workloads of their own and are not output-checked
        # against the full run.
        walls = []
        for variant in (drop_evictions, drop_dynamics):
            report = run_worker(binary, make_config(workload, seed, False, variant))
            tally.attempted += 1
            if report is None:
                tally.failed += 1
                walls.append(untraced_wall)
            else:
                walls.append(report["wall_s"])
        evictions = (untraced_wall - walls[0]) / untraced_wall * 100.0
        dynamics = (walls[0] - walls[1]) / untraced_wall * 100.0
    metrics["scenario.evictions_share_pct"] = evictions
    metrics["scenario.dynamics_share_pct"] = dynamics
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, build_type = build()
    tally = Tally(args.workload)
    budget = args.seconds / 2 if args.trace else args.seconds
    min_processes = 2 if args.trace else MIN_PROCESSES
    start = time.monotonic()
    while True:
        tally.add(run_worker(binary, make_config(args.workload, args.seed, False)))
        if (tally.attempted >= min_processes and
                time.monotonic() - start >= budget):
            break
    if not tally.reports:
        fail("no worker process produced a report")

    print("host: " + json.dumps(host_record(build_type, tally.reports[0])))
    gated = end_to_end_metrics(tally)
    print_outcomes(args.workload, tally, gated)

    if args.trace:
        values = per_layer_metrics(binary, args.workload, args.seed, tally,
                                   gated["wall_s"])
        if values is None:
            fail("the traced worker produced no report")
        units = PER_LAYER
    else:
        values = gated
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"no value for {missing}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
