#!/usr/bin/env bash
# Regenerates the profile-guided-optimisation profiles the shipped commands
# build with. Run from the repository root:
#
#   ./scripts/pgo.sh
#
# Each profile comes from its command's own traffic, CPU-profiled in a test
# binary built without PGO, so the result does not depend on the profile it
# replaces:
#
#   - cmd/sweep: BenchmarkSweep, the benchmark's PI setpoint and toggle1
#     trigger grids over every benchmark (gang execution);
#   - cmd/tables: BenchmarkTables, every paper table at the benchmark's
#     budget (solo runs on both thermal paths, multicore);
#   - cmd/serve: the tables profile too, since a served /run is one solo
#     run and serve has no benchmark of its own.
#
# `go tool pprof -proto` writes each as cmd/<name>/default.pgo, which
# `go build` picks up by default (-pgo=auto). Regenerate after changing a
# hot loop (pipeline, workload, power, sim), and keep a regenerated
# profile only where the benchmark reads no worse with it. A stale
# profile only loses speed, never correctness: PGO changes inlining and
# code layout, not results.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

profile() { # profile <package> <benchmark> <output>
	go test -pgo=off -o "$tmp/$2.test" -run '^$' -bench "^$2\$" \
		-benchtime 3x -cpuprofile "$tmp/$2.pprof" "$1"
	go tool pprof -proto "$tmp/$2.pprof" >"$3"
}

profile ./cmd/sweep BenchmarkSweep cmd/sweep/default.pgo
profile ./cmd/tables BenchmarkTables cmd/tables/default.pgo
cp cmd/tables/default.pgo cmd/serve/default.pgo
ls -l cmd/*/default.pgo
