#!/usr/bin/env bash
# test_report.sh REPORT [N] — summarize a `go test -json` report: the
# output of every failed test and package (build errors included), then
# the N (default 10) slowest tests, slowest first, as
# "seconds  package  test". A subtest counts on its own; its parent's
# time includes it. The caller keeps go test's exit status; this script
# fails only if it cannot read the report.
set -euo pipefail

report=$1
n=${2:-10}

# One jq per section and no pipeline, so no reader can exit before its
# writer is done.
jq -j -s '
	[.[] | select(.Action == "fail") | [.Package, (.Test // "")]] as $failed
	| .[]
	| select(.Action == "build-output" or (.Action == "output"
		and ([.Package, (.Test // "")] as $k | $failed | index([$k])) != null))
	| .Output' "$report"

echo "The $n slowest tests:"
jq -r -s --argjson n "$n" '
	def pad($w): tostring | " " * ($w - length) + .;
	def secs: (. * 100 | round) as $c
		| "\($c / 100 | floor).\($c % 100 | tostring | if length < 2 then "0" + . else . end)";
	map(select(.Test != null and (.Action == "pass" or .Action == "fail")))
	| sort_by(-.Elapsed) | .[:$n][]
	| "\(.Elapsed | secs | pad(8))s  \(.Package)  \(.Test)\(if .Action == "fail" then "  (FAILED)" else "" end)"' "$report"
