#!/usr/bin/env bash
# Runs the benchmark's timed runs into a result set for benchcmp:
#
#   bash perfbench/sweep.sh <outdir> <runs> [workload...]
#
# Each workload runs <runs> times with seeds 1..<runs> for the run_seconds
# that BENCHMARK.json names, writing <outdir>/<workload>.<seed>.json.
# Without workload arguments it runs every workload.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: bash perfbench/sweep.sh <outdir> <runs> [workload...]" >&2
	exit 2
fi
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
outdir=$1 runs=$2
shift 2
seconds=$(sed -n 's/^[[:space:]]*"run_seconds":[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
if [[ -z $seconds ]]; then
	echo "perfbench: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi
mkdir -p "$outdir"
# Build once up front, so a broken build stops the sweep here.
bash "$here/run.sh" --list >/dev/null
names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
	mapfile -t names < <(bash "$here/run.sh" --list)
fi
for w in "${names[@]}"; do
	for ((seed = 1; seed <= runs; seed++)); do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$outdir/$w.$seed.json"
		tail -n 1 "$outdir/$w.$seed.json" | cut -c1-160
	done
done
