#!/usr/bin/env bash
# Regenerates the profile-guided-optimisation profiles the shipped commands
# build with. Run from the repository root:
#
#   ./scripts/pgo.sh
#
# It CPU-profiles BenchmarkTables (every paper table at the benchmark's
# budget, three times) in a binary built without PGO, so the result does
# not depend on the profile it replaces, then merges the samples into one
# profile with `go tool pprof -proto` and writes it to
# cmd/{tables,sweep,serve}/default.pgo, which `go build` picks up by
# default (-pgo=auto). Regenerate after changing a hot loop (pipeline,
# workload, power, sim). A stale profile only loses speed, never
# correctness: PGO changes inlining and code layout, not results.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -pgo=off -o "$tmp/tables.test" -run '^$' -bench BenchmarkTables \
	-benchtime 3x -cpuprofile "$tmp/cpu.pprof" ./cmd/tables
go tool pprof -proto "$tmp/cpu.pprof" >"$tmp/default.pgo"
for cmd in tables sweep serve; do
	cp "$tmp/default.pgo" "cmd/$cmd/default.pgo"
done
ls -l cmd/*/default.pgo
