package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestMetricsMatchResult runs an instrumented simulation to completion and
// checks the registry's counters against the authoritative Result tallies
// (the batched delta flush must be exact after Finish) and the number of
// sampled thermal-step timings.
func TestMetricsMatchResult(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{
		Workload: hotProfile(),
		MaxInsts: testInsts,
		Manager:  piManager(),
		Metrics:  telemetry.NewSimMetrics(reg),
	}
	res := run(t, cfg)

	value := func(name string) int64 {
		t.Helper()
		return reg.Counter(name, "").Value()
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"sim_cycles_total", res.Cycles},
		{"sim_insts_total", res.Insts},
		{"sim_stall_cycles_total", res.StallCycles},
		{"sim_emergency_cycles_total", res.EmergencyCycles},
		{"sim_stress_cycles_total", res.StressCycles},
	} {
		if got := value(c.name); got != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := value("dtm_samples_total"); got <= 0 {
		t.Error("no DTM samples counted")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sim_thermal_step_seconds_count") {
		t.Error("thermal-step histogram missing from exposition")
	}
	// One timed solve per 1024-cycle mark: the first window flush at or
	// after it (a mark in the final, partial window goes untimed).
	if got, want := cfg.Metrics.ThermalStep.Count(), int64(res.Cycles/1024)-1; got < want {
		t.Errorf("thermal-step histogram holds %d samples over %d cycles, want at least %d", got, res.Cycles, want)
	}
}

// TestZeroAllocTraceRoundTrips drives an instrumented PI run with a trace
// recorder attached and decodes the emitted JSONL back: sample labels,
// cadence and controller fields must survive the trip (acceptance criterion
// for the -trace flag plumbing).
func TestZeroAllocTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf, 13, 64)
	cfg := Config{
		Workload:      hotProfile(),
		MaxInsts:      testInsts,
		Manager:       piManager(),
		Trace:         rec,
		TraceInterval: 500,
	}
	res := run(t, cfg)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Cycles / 500
	if uint64(len(samples)) != want {
		t.Fatalf("decoded %d samples, want %d (cycles=%d)", len(samples), want, res.Cycles)
	}
	sawPID, sawHot := false, false
	for i, s := range samples {
		if s.Run != "hot/PI" {
			t.Fatalf("sample %d run label = %q", i, s.Run)
		}
		if s.Cycle%500 != 0 || s.Cycle == 0 {
			t.Fatalf("sample %d off-cadence cycle %d", i, s.Cycle)
		}
		if len(s.BlockTemps) != len(res.Blocks) {
			t.Fatalf("sample %d has %d block temps, want %d", i, len(s.BlockTemps), len(res.Blocks))
		}
		if s.PTerm != 0 || s.ITerm != 0 {
			sawPID = true
		}
		if s.HotTemp > 100 {
			sawHot = true
		}
	}
	if !sawPID {
		t.Error("no sample carried controller terms")
	}
	if !sawHot {
		t.Error("trace never saw a heated block")
	}
}
