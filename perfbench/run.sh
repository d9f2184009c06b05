#!/usr/bin/env bash
# Builds the benchmark and the clued daemon from this checkout's sources,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Everything it writes — the Go build
# cache, the binaries and the traced run's spans — stays under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's cache, temporary files and config (telemetry
# counters included) inside the checkout; never fetch anything.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/clued" repro/cmd/clued
) >&2

exec "$out/perfbench" -clued "$out/clued" -out "$out/trace" -root "$root" -commit "$commit" "$@"
