#!/usr/bin/env bash
# Builds fvperf from the checkout's sources and runs it with the given
# arguments, for example:
#
#   bash fvperf/run.sh --workload fig3 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced run's spans
# and CPU profiles. The build messages go to stderr, so the last line of
# stdout is always the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
	go -C fvperf build -o "$out/bin/fvperf" . >&2
exec "$out/bin/fvperf" "$@"
