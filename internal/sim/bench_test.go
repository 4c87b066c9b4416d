package sim

import (
	"io"
	"testing"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/power"
	"repro/internal/telemetry"
)

// paperPlant mirrors bench.Plant (which sim cannot import without a
// cycle): K = R*Papp of the hottest block, tau = the longest block RC.
func paperPlant() control.Plant {
	return control.Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
}

func piManager() *dtm.Manager {
	g := control.MustTune(paperPlant(), control.Spec{Kind: control.KindPI})
	ctl := control.NewPID(g, 111.1, 0.2, float64(dtm.DefaultSampleInterval)/1.5e9)
	return dtm.NewManager(dtm.NewCT(control.KindPI, ctl))
}

// steadySim builds a Sim with an effectively unbounded budget and warms
// it past construction transients so the measured loop is steady state.
func steadySim(tb testing.TB, cfg Config) *Sim {
	tb.Helper()
	cfg.Workload = hotProfile()
	cfg.MaxInsts = 1 << 60
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		s.Step()
	}
	return s
}

// benchVariants is the DTM/proxy/leakage matrix for the per-cycle
// benchmarks and the zero-alloc guard.
var benchVariants = []struct {
	name string
	cfg  func() Config
}{
	{"Plain", func() Config { return Config{} }},
	{"Leakage", func() Config { return Config{Leakage: power.DefaultLeakage()} }},
	{"DTM", func() Config { return Config{Manager: piManager()} }},
	{"DTMEuler", func() Config { return Config{Manager: piManager(), ThermalStride: 1} }},
	{"Proxies", func() Config { return Config{ProxyWindows: []int{10_000, 100_000}} }},
	{"Scaling", func() Config { return Config{Scaling: dtm.NewFreqScaling(0, 0.75, 1<<30)} }},
	{"Tangential", func() Config { return Config{Tangential: true} }},
	{"Kitchen", func() Config {
		return Config{
			Leakage:      power.DefaultLeakage(),
			Manager:      piManager(),
			ProxyWindows: []int{10_000},
			Tangential:   true,
		}
	}},
	{"Instrumented", func() Config {
		return Config{
			Manager: piManager(),
			Metrics: telemetry.NewSimMetrics(telemetry.NewRegistry()),
			Trace:   telemetry.NewRecorder(io.Discard, 13, 256),
		}
	}},
	{"InstrumentedKitchen", func() Config {
		return Config{
			Leakage:      power.DefaultLeakage(),
			Manager:      piManager(),
			ProxyWindows: []int{10_000},
			Tangential:   true,
			Metrics:      telemetry.NewSimMetrics(telemetry.NewRegistry()),
			Trace:        telemetry.NewRecorder(io.Discard, 13, 256),
		}
	}},
}

// BenchmarkRunCycle measures the steady-state per-cycle cost of the sim
// loop across feature combinations; -benchmem must report 0 allocs/op.
func BenchmarkRunCycle(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			s := steadySim(b, v.cfg())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkRunEndToEnd measures whole runs (construction included).
func BenchmarkRunEndToEnd(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := v.cfg()
				cfg.Workload = hotProfile()
				cfg.MaxInsts = 100_000
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestZeroAllocStep enforces the zero-allocation contract of the hot loop
// for every feature combination, telemetry included (time-series traces
// excluded: they append by design). Part of the repository's allocation
// gate (`go test -run TestZeroAlloc`).
func TestZeroAllocStep(t *testing.T) {
	for _, v := range benchVariants {
		t.Run(v.name, func(t *testing.T) {
			s := steadySim(t, v.cfg())
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 5_000; i++ {
					s.Step()
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state loop allocates %.2f times per 5k cycles; want 0", allocs)
			}
		})
	}
}
