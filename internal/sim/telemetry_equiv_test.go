package sim_test

// Telemetry sinks only read a run. Attaching Metrics, a Trace recorder or a
// TraceStride, alone or together, must leave every Result field other than
// the time series bit-identical to the plain run, on both thermal paths:
// no sink may end a fast-path window, flush the thermal accounting or
// steer a controller.

import (
	"encoding/json"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sinkVariants attaches each telemetry sink alone and all three together.
// The strides are misaligned with the 256-cycle window and the 1000-cycle
// DTM interval, so every observation falls inside an open window.
var sinkVariants = map[string]func(*sim.Config){
	"metrics": func(c *sim.Config) { c.Metrics = telemetry.NewSimMetrics(telemetry.NewRegistry()) },
	"trace": func(c *sim.Config) {
		c.Trace = telemetry.NewRecorder(io.Discard, int(floorplan.NumBlocks), 64)
		c.TraceInterval = 700
	},
	"trace-stride": func(c *sim.Config) { c.TraceStride = 333 },
	"all": func(c *sim.Config) {
		c.Metrics = telemetry.NewSimMetrics(telemetry.NewRegistry())
		c.Trace = telemetry.NewRecorder(io.Discard, int(floorplan.NumBlocks), 64)
		c.TraceInterval = 700
		c.TraceStride = 333
	},
}

// plainJSON marshals res without its time series, the one part of a Result
// a sink adds.
func plainJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	r := *res
	r.TempTrace, r.DutyTrace, r.BlockTrace = nil, nil, nil
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTelemetryLeavesResultUnchanged(t *testing.T) {
	if raceDetector {
		t.Skip("a run matrix that pins arithmetic; it runs in the non-race gates")
	}
	const insts = 100_000
	nblk := numBlocks(t)
	features := []struct {
		name    string
		policy  string
		strides []uint64 // 0 auto-selects the fast path where it can
		mutate  func(*sim.Config)
	}{
		{"PI", "PI", []uint64{0, 1}, nil},
		{"toggle1", "toggle1", []uint64{0, 1}, nil},
		{"fscale", "fscale", []uint64{0, 1}, nil},
		{"proxies", "PI", []uint64{1}, func(c *sim.Config) { c.ProxyWindows = []int{1000, 10_000} }},
		{"coupled-sink", "PI", []uint64{1}, func(c *sim.Config) { c.CoupleChipSink = true }},
		{"tangential", "PI", []uint64{0, 1}, func(c *sim.Config) { c.Tangential = true }},
	}
	for _, f := range features {
		for _, stride := range f.strides {
			f, stride := f, stride
			name := f.name + "/fast"
			if stride == 1 {
				name = f.name + "/euler"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				build := func(sink func(*sim.Config)) *sim.Result {
					cfg, err := bench.NewRun("gcc", f.policy, insts)
					if err != nil {
						t.Fatal(err)
					}
					cfg.ThermalStride = stride
					hotInit(nblk, 112)(&cfg)
					if f.mutate != nil {
						f.mutate(&cfg)
					}
					if sink != nil {
						sink(&cfg)
					}
					res, err := sim.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := plainJSON(t, build(nil))
				for sink, attach := range sinkVariants {
					res := build(attach)
					if got := plainJSON(t, res); got != want {
						t.Errorf("%s changed the result:\nplain: %s\nwith:  %s", sink, want, got)
					}
					if res.TempTrace == nil {
						continue
					}
					// Record cycles 1, 1+s, 1+2s, … up to the last cycle.
					s := res.TempTrace.Stride
					if n := uint64(res.TempTrace.Len()); n != (res.Cycles-1)/s+1 {
						t.Errorf("%s: %d trace points over %d cycles at stride %d", sink, n, res.Cycles, s)
					}
					for i, x := range res.TempTrace.Xs {
						if x != 1+uint64(i)*s {
							t.Fatalf("%s: trace point %d at cycle %d, want %d", sink, i, x, 1+uint64(i)*s)
						}
					}
				}
			})
		}
	}
}
