#!/usr/bin/env bash
# Builds the shipped commands and the benchmark harness from source, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With a fresh config directory the go command starts a detached telemetry
# upload process that outlives this script; switching telemetry off before any
# other go command keeps it from starting.
go telemetry off >&2
go build -o "$out/bin/" ./cmd/tables ./cmd/sweep ./cmd/serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
