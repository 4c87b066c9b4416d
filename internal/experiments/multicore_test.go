package experiments

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestMulticoreFaceOffMatchesSolo pins the grouped face-off to the solo
// engine: at a budget where the uncontrolled, PID and agi runs of a cell
// share one group to the end and the budget run leaves it, the rendered
// table is byte-identical to one rendered from a RunMulticore per spec.
// Progress counts jobs, and a face-off cell is one job.
func TestMulticoreFaceOffMatchesSolo(t *testing.T) {
	p := smallParams()
	p.Insts = 10_000
	counts := []int{1, 2}
	var done atomic.Int64
	p.Progress = func(pr runner.Progress) { done.Store(int64(pr.Total)) }
	got, err := MulticoreFaceOff(p, counts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(bench.MulticoreWorkloads()) * len(counts)
	if done.Load() != int64(cells) {
		t.Errorf("face-off ran %d jobs, want one per cell (%d)", done.Load(), cells)
	}

	var specs []mcSpec
	var solo []*sim.MulticoreResult
	for _, sc := range bench.MulticoreWorkloads() {
		for _, nc := range counts {
			for _, pol := range bench.MulticorePolicies() {
				cfg, err := bench.NewMulticoreRun(sc, pol, nc, p.Insts)
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.RunMulticore(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, mcSpec{scenario: sc, policy: pol, cores: nc})
				solo = append(solo, r)
			}
		}
	}
	if want := faceOffTable(specs, solo).String(); got.String() != want {
		t.Errorf("grouped face-off differs from solo runs\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMulticoreFaceOffCountsRunnerMetrics: a face-off run with a registry
// reports its jobs, one per cell, in the runner metrics, as solo batches
// do.
func TestMulticoreFaceOffCountsRunnerMetrics(t *testing.T) {
	p := smallParams()
	p.Insts = 2_000
	p.Registry = telemetry.NewRegistry()
	if _, err := MulticoreFaceOff(p, []int{1}); err != nil {
		t.Fatal(err)
	}
	cells := int64(len(bench.MulticoreWorkloads()))
	if got := p.Registry.Counter("runner_runs_completed_total", "").Value(); got != cells {
		t.Errorf("runner_runs_completed_total = %d, want one per cell (%d)", got, cells)
	}
}
