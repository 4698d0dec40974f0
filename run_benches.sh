#!/bin/bash
# Runs every bench at full fidelity from a dedicated Release build tree
# (LDKE_BENCH_BUILD_DIR, default build-bench/) and records the outputs
# into results/.  Honors LDKE_BENCH_TRIALS / LDKE_BENCH_NODES for quick
# runs.  LDKE_BENCH_OUT is unset, so every JSON bench writes its own
# results/BENCH_<name>.json; the google-benchmark micro suites also write
# results/BENCH_{crypto,sim,net}_micro.json.
#
# The script configures its own -DCMAKE_BUILD_TYPE=Release tree (build/
# may be Debug, or carry an empty cached CMAKE_BUILD_TYPE) and refuses to
# record from anything else.  The refusal keys on that tree's cached
# CMAKE_BUILD_TYPE, not on google-benchmark's "Library was built as
# DEBUG" warning or its JSON "library_build_type": those describe the
# installed libbenchmark package (Debian ships it debug-built), not our
# code.
set -u
cd "$(dirname "$0")" || exit 1

BUILD_DIR=${LDKE_BENCH_BUILD_DIR:-build-bench}
unset LDKE_BENCH_OUT

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

# Diff every fresh JSON artifact that carries the bench envelope
# (schema_version, bench, host) against its committed version: numeric
# leaves, objects by key, and arrays by element identity (name, scheme,
# nodes and lanes, or the engine's name) where each element has a
# distinct one, else by position.  Each leaf that moved is printed, one
# that moved more than 25 % is flagged, and unmatched elements are named.
python3 - <<'PYEOF'
import glob, json, subprocess

def keyed(items):
    ids = [",".join(f"{k}={s[k]}" for s in (x, x.get("engine", {}))
                    for k in ("name", "scheme", "nodes", "lanes") if k in s)
           if isinstance(x, dict) else "" for x in items]
    if not all(ids) or len(set(ids)) < len(ids):
        ids = map(str, range(len(items)))
    return dict(zip(ids, items))

def walk(path, b, a, out):
    if isinstance(b, dict) and isinstance(a, dict):
        for k in b:
            if k in a:
                walk(f"{path}.{k}", b[k], a[k], out)
    elif isinstance(b, list) and isinstance(a, list):
        kb, ka = keyed(b), keyed(a)
        out += [f"{path}[{k}] is in one run only"
                for k in sorted(kb.keys() ^ ka.keys())]
        for k in kb:
            if k in ka:
                walk(f"{path}[{k}]", kb[k], ka[k], out)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (a, b)) and a != b:
        delta = f"{(a - b) / b * 100.0:+.1f}%" if b != 0 else "from 0"
        flag = "  <-- drifted" if b != 0 and abs(a - b) > 0.25 * abs(b) else ""
        out.append(f"{path:60s} {b:12.4g} -> {a:12.4g}  ({delta}){flag}")

for fresh in sorted(glob.glob("results/BENCH_*.json")):
    shown = subprocess.run(["git", "show", f"HEAD:{fresh}"],
                           capture_output=True, text=True)
    if shown.returncode != 0:
        continue
    before, after = json.loads(shown.stdout), json.load(open(fresh))
    if not all(k in before for k in ("schema_version", "bench", "host")):
        continue
    moved = []
    walk(before["bench"], before, after, moved)
    print(f"=== diff {fresh} (committed -> fresh): {len(moved)} leaves moved ===",
          *moved, sep="\n")
PYEOF
exit $status
