package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/sim"
)

// writeRefs regenerates refs.json from the current build: the tables and
// sweep output digests at the benchmark's budgets, the config-cycles one
// tables command simulates, and the digest of the pre-stored served
// bodies. Run it only when a change is meant to alter those outputs.
func writeRefs(e *env) error {
	ctx := context.Background()
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	var r refs
	r.Tables.Insts, r.Sweep.Insts, r.Serve.Insts = tablesInsts, sweepInsts, storedInsts

	prom := filepath.Join(e.work, "refs-tables.prom")
	out, err := runProc(ctx, e.cmd("tables"), "-insts", itoa(tablesInsts), "-progress=false", "-metrics", prom)
	if err != nil {
		return err
	}
	r.Tables.SHA256 = digest(out.stdout)
	f, err := os.Open(prom)
	if err != nil {
		return err
	}
	m, err := parseMetrics(f)
	f.Close()
	if err != nil {
		return err
	}
	solo := uint64(m["sim_cycles_total"])
	if solo == 0 {
		return fmt.Errorf("tables reported no sim_cycles_total")
	}
	// Multicore runs are not counted in sim_cycles_total; replay the
	// face-off's grid to count their core-cycles.
	var multi uint64
	for _, sc := range bench.MulticoreWorkloads() {
		for _, n := range []int{1, 2, 4} {
			for _, pol := range bench.MulticorePolicies() {
				cfg, err := bench.NewMulticoreRun(sc, pol, n, tablesInsts)
				if err != nil {
					return err
				}
				mr, err := sim.RunMulticore(ctx, cfg)
				if err != nil {
					return err
				}
				multi += mr.Cycles * uint64(n)
			}
		}
	}
	r.Tables.CfgCycles = solo + multi

	r.Sweep.SHA256 = map[string]string{}
	for _, c := range sweepCmds() {
		out, err := runProc(ctx, e.cmd("sweep"), c.args(sweepInsts)...)
		if err != nil {
			return err
		}
		r.Sweep.SHA256[c.id()] = digest(out.stdout)
	}

	_, expected, err := ensurePristine(e)
	if err != nil {
		return err
	}
	r.Serve.SHA256 = expectedDigest(expected)

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	logf("refs: tables %d config-cycles (%d solo, %d multicore core-cycles)", r.Tables.CfgCycles, solo, multi)
	return os.WriteFile(refsPath(e), append(data, '\n'), 0o644)
}
