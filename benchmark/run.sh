#!/usr/bin/env bash
# Wall-clock serve benchmark: builds Release into build-bench/ and runs each
# workload in its own mcs_bench process.
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                    [--trace 0|1] [--smoke]
#
# Without --workload every workload runs. Each run prints
# "workload metric value unit" lines and, last, one JSON object
# {"correct","attempted","failed","metrics"}; --trace 1 swaps the
# end-to-end metrics for the per-layer ones. These flags are the command
# line BENCHMARK.json's "command" is invoked with. The records are
# merged into bench-out/results.json with a machine descriptor. Exits
# non-zero when a build or run fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workloads=(table1-replay large-rounds tiny-rounds-socket)
selected=()
forward=()
suffix=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) selected+=("${2:?--workload needs a name}"); shift 2 ;;
    --seed|--seconds) forward+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    --trace)
      forward+=("$1" "${2:?--trace needs 0 or 1}")
      [ "$2" = 0 ] && suffix="" || suffix=".traced"
      shift 2 ;;
    --smoke) forward+=("$1"); shift ;;
    -h|--help) sed -n '2,14p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[ ${#selected[@]} -gt 0 ] || selected=("${workloads[@]}")

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src/serve" ]; then
  echo "run.sh: no library sources next to benchmark/; nothing to build" >&2
  exit 2
fi

build="$root/build-bench"
{
  [ -f "$build/CMakeCache.txt" ] ||
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)"
} >&2

out="$root/bench-out"
mkdir -p "$out"
status=0
for workload in "${selected[@]}"; do
  rm -f "$out/$workload$suffix.json"
  "$build/mcs_bench" --workload "$workload" --cli "$build/mcs/tools/mcs_cli" \
    --out-dir "$out" "${forward[@]}" || status=$?
done

sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$out" "$suffix" "$sha" "${selected[@]}" <<'EOF'
import json, os, sys
out, suffix, sha, *names = sys.argv[1:]
records = {}
for name in names:
    path = os.path.join(out, name + suffix + ".json")
    if os.path.exists(path):
        with open(path) as f:
            records[name] = json.load(f)
machine = dict(next(iter(records.values()))["machine"]) if records else {}
machine["git_sha"] = sha
with open(os.path.join(out, "results.json"), "w") as f:
    json.dump({"schema": "mcs.bench.results.v1", "machine": machine,
               "workloads": records}, f, indent=1)
    f.write("\n")
EOF
exit "$status"
