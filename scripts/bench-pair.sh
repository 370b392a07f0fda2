#!/usr/bin/env bash
# Paired benchmark runs of a base revision against the working tree:
#
#   scripts/bench-pair.sh <workload|all> <base-rev> [pairs]     (make bench-pair)
#
# The base is exported with `git archive` into .bench_build/pair/base (no
# worktree, nothing registered in .git) and builds its own lambdabench there;
# both sides go through their own cmd/lambdabench/run.sh, exactly as the
# BENCHMARK.json command does. Pair i runs both sides on seed i, odd pairs
# base first, even pairs change first, so slow waves of the host hit both
# sides alike. Each side's result lines accumulate in its own set file (one
# per side, all workloads) and the change's `lambdabench -compare` judges them
# against the BENCHMARK.json bounds — for a single workload against a copy of
# BENCHMARK.json that lists only that workload (python3 writes it), because
# -compare wants every listed workload in both sets. -compare needs at least
# two runs a side; its exit status (1 = a metric worse or unresolved) is the
# script's.
set -euo pipefail
workload=${1:?usage: bench-pair.sh <workload|all> <base-rev> [pairs]}
base=${2:?usage: bench-pair.sh <workload|all> <base-rev> [pairs]}
pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/pair"
rev=$(git -C "$root" rev-parse --short "$base^{commit}")
bench="$root/BENCHMARK.json"
mkdir -p "$out"
if [ "$workload" = all ]; then
	workload="oltp_cluster scan_agg result_fetch paper_layers"
else
	python3 - "$bench" "$out/BENCHMARK.$workload.json" "$workload" <<'PY'
import json, sys
b = json.load(open(sys.argv[1]))
b["workloads"] = [w for w in b["workloads"] if w["name"] == sys.argv[3]]
if not b["workloads"]:
    sys.exit("bench-pair: BENCHMARK.json has no workload " + sys.argv[3])
json.dump(b, open(sys.argv[2], "w"))
PY
	bench="$out/BENCHMARK.$workload.json"
fi

rm -rf "$out/base"
mkdir -p "$out/base"
git -C "$root" archive "$rev" | tar -x -C "$out/base"

sets=("$out/base-$rev.jsonl" "$out/change.jsonl")
rm -f "${sets[@]}"
for w in $workload; do
	for i in $(seq 1 "$pairs"); do
		order="0 1"
		if [ $((i % 2)) -eq 0 ]; then order="1 0"; fi
		for side in $order; do
			dir="$out/base"
			if [ "$side" -eq 1 ]; then dir="$root"; fi
			echo "pair $i/$pairs $w: $(basename "${sets[$side]}" .jsonl)" >&2
			bash "$dir/cmd/lambdabench/run.sh" --workload "$w" --seed "$i" --trace 0 \
				-append "${sets[$side]}" >/dev/null
		done
	done
done
bash "$root/cmd/lambdabench/run.sh" -benchmark-json "$bench" -compare "${sets[@]}"
