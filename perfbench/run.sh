#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload fillrandom --seed 1 --seconds 30 --trace 0
# --workload all runs every workload in turn, each in its own process so
# that peak_rss_mb stays per workload.
# Build outputs, the Go build cache and Go's temporary files stay under
# .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
		for w in fillrandom readrandom zipf-mixed; do
			args[i + 1]=$w
			"$out/perfbench" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/perfbench" "$@"
