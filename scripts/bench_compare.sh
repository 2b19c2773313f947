#!/usr/bin/env bash
# bench_compare.sh PARENT_REV — the benchmark gate: measure PARENT_REV and
# this checkout's work tree on one host, then judge the change.
#
# PARENT_REV is exported into a temporary directory. Three alternating
# parent/change pairs (seeds 1-3) each run `benchmark/run.sh --trace 0`:
# all four workloads, untraced, at the harness's default run length. Then
# `benchmark -compare parent.json change.json` prints a verdict per
# workload and end-to-end metric, and the script exits with its status:
# 1 when a metric regressed past its bound or failed operations rose.
# An unresolved verdict (the runs spread wider than the bound) passes.
# Workloads, pair count and seeds are fixed: the gate has no options.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: $0 PARENT_REV" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
change=$PWD
rev=$(git rev-parse --verify "$1^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
trap 'rm -rf "$work"' EXIT
# An exported tree, not a worktree: nothing is registered in .git, so an
# interrupted run leaves nothing behind but its temporary directory.
mkdir "$work/parent"
git archive "$rev" | tar -x -C "$work/parent"

for seed in 1 2 3; do
	# Alternate which side runs first, so a host that slows down during
	# the gate weighs on both sides alike.
	sides="parent change"
	((seed % 2)) || sides="change parent"
	for side in $sides; do
		dir=$change
		[[ $side == parent ]] && dir=$work/parent
		echo "== seed $seed: $side ($dir) =="
		(cd "$dir" && bash benchmark/run.sh --trace 0 --seed "$seed" --out "$work/$side.json")
	done
done

echo "== $rev vs the work tree =="
go run ./benchmark -compare "$work/parent.json" "$work/change.json"
