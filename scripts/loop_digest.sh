#!/usr/bin/env bash
# loop_digest.sh [SRC] — one SHA-256 over the reports of both closed-loop
# drivers: insitu-node for each Fig. 24 variant on a clean and on a lossy
# downlink, then a 3-node insitu-fleet with faults in both directions and
# an admission cap. Two checkouts that print the same digest on one host
# run the same loop; SRC (default: this checkout) names the tree to
# build, so a refactor is compared by running this one script against a
# copy of its parent commit. Nothing is compared across hosts: math.Exp
# and the GEMM kernels pick FMA by CPUID, so report bytes are
# host-specific.
set -euo pipefail

src=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/loop-digest.XXXXXX")
trap 'rm -rf "$work"' EXIT
export GOMAXPROCS=1

(cd "$src" && go build -o "$work/" ./cmd/insitu-node ./cmd/insitu-fleet)

{
	for fault in "" "-fault-rate 0.3"; do
		for variant in a b c d; do
			# shellcheck disable=SC2086 # $fault is zero or two words
			"$work/insitu-node" -variant "$variant" -bootstrap 24 -stages 16,16 -classes 4 $fault
		done
	done
	"$work/insitu-fleet" -nodes 3 -bootstrap 24 -rounds 16,16 -classes 4 \
		-fault-rate 0.3 -uplink-fault-rate 0.2 -max-round-samples 64
	# Stdout only: progress, the wall-clock "aggregate throughput" line
	# and the health summary all go to stderr.
} 2>/dev/null | sha256sum | cut -d' ' -f1
