#!/bin/bash
# Runs every bench at full fidelity from a dedicated *Release* build tree
# and records the outputs into results/.  Honors LDKE_BENCH_TRIALS /
# LDKE_BENCH_NODES for quick runs and LDKE_BENCH_BUILD_DIR to relocate
# the build tree (default: build-bench/).
#
# Numbers are only worth recording from an optimized build, so this
# script configures its own -DCMAKE_BUILD_TYPE=Release tree (the default
# build/ tree may be Debug, or carry an empty cached CMAKE_BUILD_TYPE
# from an old configure) and refuses to record otherwise.  The
# google-benchmark micro suites additionally emit machine-readable JSON
# (results/BENCH_crypto_micro.json, results/BENCH_sim_micro.json,
# results/BENCH_net_micro.json).
#
# Note: google-benchmark's "Library was built as DEBUG" console warning
# and the JSON's "library_build_type" field describe the *installed
# libbenchmark package* (Debian ships it debug-built), not our code, so
# they appear even from a Release tree.  The refusal below therefore
# keys on the one thing this script controls and that governs our own
# code's optimization: the build tree's cached CMAKE_BUILD_TYPE — every
# binary run here was just built from that tree.
set -u
cd "$(dirname "$0")" || exit 1

BUILD_DIR=${LDKE_BENCH_BUILD_DIR:-build-bench}

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release > /dev/null || exit 1
cmake --build "$BUILD_DIR" -j"$(nproc)" || exit 1

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "refusing to record benches: $BUILD_DIR is '$build_type', not Release" >&2
    exit 1
    ;;
esac

mkdir -p results
status=0

# google-benchmark suites that also record machine-readable JSON.
declare -A json_out=(
  [bench_crypto_micro]=BENCH_crypto_micro.json
  [bench_sim_micro]=BENCH_sim_micro.json
  [bench_net_micro]=BENCH_net_micro.json
)

for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  echo "=== $name ==="
  extra=()
  if [[ -v "json_out[$name]" ]]; then
    extra=(--benchmark_out="results/${json_out[$name]}"
           --benchmark_out_format=json)
  fi
  "$b" "${extra[@]}" > "results/$name.txt" 2>&1
  rc=$?
  echo "exit=$rc ($name)"
  [ $rc -ne 0 ] && status=1
done

# Diff the fresh data-plane bench against the committed baseline (the
# results/BENCH_dataplane.json the bench just overwrote).
if [ -f results/BENCH_dataplane.json ] &&
   git cat-file -e HEAD:results/BENCH_dataplane.json 2>/dev/null; then
  echo "=== diff BENCH_dataplane.json (committed -> fresh) ==="
  git show HEAD:results/BENCH_dataplane.json > results/.dataplane_baseline.json
  python3 - results/.dataplane_baseline.json results/BENCH_dataplane.json <<'PYEOF'
import json, sys

before = json.load(open(sys.argv[1]))
after = json.load(open(sys.argv[2]))

def walk(path, b, a):
    if isinstance(b, dict) and isinstance(a, dict):
        for k in b:
            if k in a:
                walk(path + [k], b[k], a[k])
        return
    if isinstance(b, (int, float)) and not isinstance(b, bool) and b != 0:
        name = ".".join(path)
        delta = (a - b) / b * 100.0
        flag = "  <-- drifted" if abs(delta) > 25.0 else ""
        print(f"{name:45s} {b:14.1f} -> {a:14.1f}  ({delta:+.1f}%){flag}")

if "engine" in before and "engine" in after:
    walk(["engine"], before["engine"], after["engine"])
PYEOF
  rm -f results/.dataplane_baseline.json
fi

# Diff the fresh scenario bench against the committed baseline: per-point
# mobile-scale sweep timings (the incremental-vs-full speedup is the
# number this artifact exists to pin) plus per-scenario wall time.
if [ -f results/BENCH_scenarios.json ] &&
   git cat-file -e HEAD:results/BENCH_scenarios.json 2>/dev/null; then
  echo "=== diff BENCH_scenarios.json (committed -> fresh) ==="
  git show HEAD:results/BENCH_scenarios.json > results/.scenarios_baseline.json
  python3 - results/.scenarios_baseline.json results/BENCH_scenarios.json <<'PYEOF'
import json, sys

before = json.load(open(sys.argv[1]))
after = json.load(open(sys.argv[2]))

def points(doc):
    return {p["nodes"]: p for p in doc.get("scale_sweep", [])}

def show(name, b, a, flag_drift=True):
    if not isinstance(b, (int, float)) or isinstance(b, bool) or b == 0:
        return
    delta = (a - b) / b * 100.0
    flag = "  <-- drifted" if flag_drift and abs(delta) > 25.0 else ""
    print(f"{name:45s} {b:14.3f} -> {a:14.3f}  ({delta:+.1f}%){flag}")

bp, ap = points(before), points(after)
for nodes in sorted(bp):
    if nodes not in ap:
        continue
    for field in ("incr_epoch_s", "full_epoch_s", "speedup", "engine_wall_s"):
        if field in bp[nodes] and field in ap[nodes]:
            show(f"scale_sweep[{nodes}].{field}",
                 bp[nodes][field], ap[nodes][field])

bs = {s["engine"]["name"]: s for s in before.get("scenarios", [])}
for s in after.get("scenarios", []):
    name = s["engine"]["name"]
    if name in bs:
        show(f"scenarios.{name}.wall_s", bs[name]["wall_s"], s["wall_s"])
PYEOF
  rm -f results/.scenarios_baseline.json
fi
exit $status
