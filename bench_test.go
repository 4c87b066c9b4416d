// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (the mapping is the experiment index in
// DESIGN.md), plus ablation benches for the design choices the paper
// motivates, plus component micro-benchmarks. Each iteration regenerates
// the corresponding artifact end to end at a CI-scaled instruction budget;
// run `go test -bench=. -benchmem` and compare shapes against
// EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/packstore"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// benchParams is the scaled-down experiment budget for the harness.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Insts = 400_000
	return p
}

func report(b *testing.B, name, artifact string) {
	if testing.Verbose() {
		fmt.Printf("--- %s ---\n%s\n", name, artifact)
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
		if i == 0 {
			report(b, "Table 2", t.String())
		}
	}
}

func BenchmarkTable3Thermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3()
		if len(t.Rows) != 8 {
			b.Fatalf("table 3 has %d rows", len(t.Rows))
		}
		if i == 0 {
			report(b, "Table 3", t.String())
		}
	}
}

// baselineOnce caches the uncontrolled suite for the Table 4-8 benches
// within one harness invocation.
var baselineCache []*sim.Result

func baseline(b *testing.B) []*sim.Result {
	b.Helper()
	if baselineCache == nil {
		res, err := experiments.Baseline(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		baselineCache = res
	}
	return baselineCache
}

func BenchmarkTable4Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table4(baseline(b))
		if len(t.Rows) != 18 {
			b.Fatalf("table 4 rows = %d", len(t.Rows))
		}
		if i == 0 {
			report(b, "Table 4", t.String())
		}
	}
}

func BenchmarkTable5Categories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table5()
		if len(t.Rows) != 4 {
			b.Fatalf("table 5 rows = %d", len(t.Rows))
		}
		if i == 0 {
			report(b, "Table 5", t.String())
		}
	}
}

func BenchmarkTable6PerStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table6(baseline(b))
		if i == 0 {
			report(b, "Table 6", t.String())
		}
	}
}

func BenchmarkTable7Emergency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table7(baseline(b))
		if i == 0 {
			report(b, "Table 7", t.String())
		}
	}
}

func BenchmarkTable8Stress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table8(baseline(b))
		if i == 0 {
			report(b, "Table 8", t.String())
		}
	}
}

func BenchmarkTable9ProxyPerStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps, _, err := experiments.ProxyTables(benchParams(), []int{10_000, 100_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, "Table 9", ps.String())
		}
	}
}

func BenchmarkTable10ProxyChipWide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, cw, err := experiments.ProxyTables(benchParams(), []int{10_000, 100_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, "Table 10", cw.String())
		}
	}
}

// policyEvalCache shares the expensive policy matrix between the Table 11
// and Table 12 benches (like baselineCache).
var policyEvalCache *experiments.PolicyEval

func policyEval(b *testing.B) *experiments.PolicyEval {
	b.Helper()
	if policyEvalCache == nil {
		ev, err := experiments.RunPolicyEval(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		policyEvalCache = ev
	}
	return policyEvalCache
}

func BenchmarkTable11Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := policyEval(b)
		if i == 0 {
			report(b, "Table 11", ev.Table11().String())
		}
	}
}

func BenchmarkTable12Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := policyEval(b)
		hs := ev.Headlines()
		// Sanity: the CT controllers must not allow emergencies and
		// must beat toggle1's loss.
		for _, h := range hs {
			if (h.Policy == "PI" || h.Policy == "PID") && h.LossVsToggle1 >= 1 {
				b.Errorf("%s loss ratio %.2f >= toggle1", h.Policy, h.LossVsToggle1)
			}
		}
		if i == 0 {
			report(b, "Table 12", ev.Table12().String())
		}
	}
}

func BenchmarkTable13Setpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.SetpointStudy(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, "Table 13", t.String())
		}
	}
}

func BenchmarkFigureTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Trace(benchParams(), "gcc", "PI", 2000)
		if err != nil {
			b.Fatal(err)
		}
		if res.TempTrace.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFigureStepResponse(b *testing.B) {
	plant := bench.Plant()
	for i := 0; i < b.N; i++ {
		g := control.MustTune(plant, control.Spec{Kind: control.KindPID})
		ctl := control.NewPID(g, 111.1, 0.2, 667e-9)
		tr := control.SimulateLoop(plant, ctl, control.LoopConfig{
			Ambient: 100, Duration: 3e-3, Levels: 8,
		})
		if tr.MaxTemp() > 111.3 {
			b.Errorf("step response exceeded emergency: %v", tr.MaxTemp())
		}
	}
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationTangential quantifies the Figure 3B vs 3C question: how
// much does lateral coupling change the hottest-block temperature?
func BenchmarkAblationTangential(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		plain, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 300_000})
		if err != nil {
			b.Fatal(err)
		}
		tang, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 300_000, Tangential: true})
		if err != nil {
			b.Fatal(err)
		}
		var maxd float64
		for j := range plain.Blocks {
			d := plain.Blocks[j].MaxTemp - tang.Blocks[j].MaxTemp
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
		b.ReportMetric(maxd, "maxΔC")
	}
}

// BenchmarkAblationPolicyDelay sweeps toggle1's policy delay — too short
// re-triggers constantly, too long wastes performance (Section 2.1).
func BenchmarkAblationPolicyDelay(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	for _, delay := range []int{0, 2, 5, 20, 100} {
		b.Run(fmt.Sprintf("delay%d", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mgr := dtm.NewManager(dtm.NewToggle1(bench.NonCTTrigger, delay))
				res, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 400_000, Manager: mgr})
				if err != nil {
					b.Fatal(err)
				}
				if res.EmergencyCycles > 0 {
					b.Errorf("delay %d: %d emergencies", delay, res.EmergencyCycles)
				}
				b.ReportMetric(res.IPC, "IPC")
				b.ReportMetric(float64(res.Engagements), "engagements")
			}
		})
	}
}

// BenchmarkAblationWindup compares PI with and without the paper's
// anti-windup protection (Section 3.3) on the bursty benchmark.
func BenchmarkAblationWindup(b *testing.B) {
	prof, err := bench.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "antiwindup"
		if disable {
			name = "windup"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := bench.NewPolicy("PI", 0)
				if err != nil {
					b.Fatal(err)
				}
				pol.(*dtm.CT).Controller().DisableAntiWindup = disable
				res, err := sim.Run(sim.Config{
					Workload: prof, MaxInsts: 2_000_000, Manager: dtm.NewManager(pol),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.EmergencyFrac(), "emerg%")
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

// BenchmarkAblationSampling sweeps the controller sampling interval
// (Section 5.3 conjectures longer intervals would barely hurt).
func BenchmarkAblationSampling(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	for _, interval := range []uint64{250, 1000, 4000, 16000} {
		b.Run(fmt.Sprintf("every%d", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := bench.NewPolicy("PI", 0)
				if err != nil {
					b.Fatal(err)
				}
				mgr := dtm.NewManager(pol)
				mgr.Interval = interval
				res, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 400_000, Manager: mgr})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.EmergencyFrac(), "emerg%")
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

// BenchmarkAblationGating compares clock-gating styles (Wattch cc0/cc2/cc3).
func BenchmarkAblationGating(b *testing.B) {
	prof, err := bench.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []power.GatingStyle{power.GateResidual10, power.GateIdeal, power.GateNone} {
		b.Run(g.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 300_000, Gating: g})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgChipPower, "W")
			}
		})
	}
}

// --- Component micro-benchmarks ---

func BenchmarkThermalStep(b *testing.B) {
	net := thermal.New(thermal.DefaultConfig())
	power := make([]float64, net.NumBlocks())
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(power)
	}
}

func BenchmarkPipelineCycle(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	core, err := pipeline.New(pipeline.DefaultConfig(), gen)
	if err != nil {
		b.Fatal(err)
	}
	var act pipeline.Activity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Step(&act)
	}
}

func BenchmarkPowerModel(b *testing.B) {
	m, err := power.New(power.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	act := pipeline.Activity{WindowInserts: 3, WindowIssues: 4, WindowWakeups: 4,
		RegReads: 6, RegWrites: 3, IntOps: 3, DCacheAccess: 2, BPredAccess: 1}
	out := make([]float64, m.NumBlocks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BlockPower(&act, out)
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkPIDUpdate(b *testing.B) {
	g := control.MustTune(bench.Plant(), control.Spec{Kind: control.KindPID})
	ctl := control.NewPID(g, 111.1, 0.2, 667e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Update(110.9 + 0.3*float64(i%3))
	}
}

// BenchmarkBaselineBatch measures a full uncontrolled-suite regeneration
// through the parallel experiment engine, serial (1 worker) versus
// parallel (GOMAXPROCS workers). The ratio of the two is the engine's
// wall-time speedup on this host; cmd/benchrec records it to
// BENCH_runner.json.
func BenchmarkBaselineBatch(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			p := benchParams()
			p.Insts = 200_000
			p.Workers = tc.workers
			for i := 0; i < b.N; i++ {
				res, err := experiments.Baseline(p)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(bench.Names()) {
					b.Fatalf("got %d results", len(res))
				}
			}
		})
	}
}

func BenchmarkFullSystemCyclesPerSecond(b *testing.B) {
	prof, err := bench.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Workload: prof, MaxInsts: 200_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSensorPlacement answers the paper's deferred question
// (Section 4.2): how many well-placed sensors are needed? It selects
// optimal k-sensor placements from recorded per-block traces across hot
// benchmarks and reports the worst-case blind spot, then verifies that a
// PI controller restricted to the 3-sensor placement still prevents
// emergencies on the hottest benchmark.
func BenchmarkAblationSensorPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Record per-block temperature traces on three thermally
		// diverse benchmarks.
		var series [][]float64
		for _, name := range []string{"gcc", "equake", "art"} {
			res, err := experiments.Trace(experiments.Params{Insts: 600_000}, name, "none", 500)
			if err != nil {
				b.Fatal(err)
			}
			if series == nil {
				series = make([][]float64, len(res.BlockTrace))
			}
			for j, s := range res.BlockTrace {
				series[j] = append(series[j], s.Ys...)
			}
		}
		res3, err := sensor.SelectSensors(series, 3)
		if err != nil {
			b.Fatal(err)
		}
		res1, err := sensor.SelectSensors(series, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res1.MaxError, "blindspot1C")
		b.ReportMetric(res3.MaxError, "blindspot3C")
		if res3.MaxError > res1.MaxError {
			b.Error("more sensors increased the blind spot")
		}

		// Drive PI from only the selected 3 blocks on gcc.
		var monitored []floorplan.BlockID
		for _, idx := range res3.Blocks {
			monitored = append(monitored, floorplan.BlockID(idx))
		}
		prof, err := bench.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.Config{Workload: prof, MaxInsts: 600_000, MonitoredBlocks: monitored}
		pol, err := bench.NewPolicy("PI", 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Manager = dtm.NewManager(pol)
		out, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*out.EmergencyFrac(), "emerg%@3sensors")
		if out.EmergencyFrac() > 0.001 {
			b.Errorf("3-sensor PI left %.2f%% emergencies", 100*out.EmergencyFrac())
		}
	}
}

// BenchmarkSeedSensitivity quantifies how much the headline metrics move
// across workload seeds — the synthetic-proxy analogue of simulating
// different program inputs.
func BenchmarkSeedSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := experiments.SeedStudy(experiments.Params{Insts: 300_000}, "gcc", "none", 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.IPCMean, "IPCmean")
		b.ReportMetric(st.IPCStd, "IPCstd")
		b.ReportMetric(100*st.EmergMean, "emerg%mean")
		if st.IPCStd > 0.25*st.IPCMean {
			b.Errorf("seed spread too large: %v vs %v", st.IPCStd, st.IPCMean)
		}
	}
}

// BenchmarkAblationIdealization bounds the timing model: perfect branch
// prediction and perfect D-cache, separately and together, on the hottest
// benchmark. Better prediction raises IPC — and with it activity and
// temperature, the classic thermal paradox of microarchitectural
// improvements.
func BenchmarkAblationIdealization(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name         string
		bpred, dcach bool
	}{
		{"real", false, false},
		{"perfectBP", true, false},
		{"perfectD$", false, true},
		{"perfectBoth", true, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pcfg := pipeline.DefaultConfig()
				pcfg.PerfectBPred = tc.bpred
				pcfg.PerfectDCache = tc.dcach
				res, err := sim.Run(sim.Config{
					Workload: prof, MaxInsts: 400_000, Pipeline: pcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "IPC")
				b.ReportMetric(100*res.EmergencyFrac(), "emerg%")
			}
		})
	}
}

// BenchmarkAblationPerBlockControl compares the single hottest-sensor PI
// against the per-block MultiCT refinement.
func BenchmarkAblationPerBlockControl(b *testing.B) {
	for _, polName := range []string{"PI", "mPI"} {
		b.Run(polName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ipcs []float64
				var emerg uint64
				for _, benchName := range []string{"gcc", "equake", "mesa"} {
					prof, err := bench.ByName(benchName)
					if err != nil {
						b.Fatal(err)
					}
					cfg := sim.Config{Workload: prof, MaxInsts: 400_000}
					if err := bench.ApplyPolicy(&cfg, polName, 0); err != nil {
						b.Fatal(err)
					}
					res, err := sim.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					ipcs = append(ipcs, res.IPC)
					emerg += res.EmergencyCycles
				}
				if emerg > 0 {
					b.Errorf("%s left %d emergency cycles", polName, emerg)
				}
				var sum float64
				for _, v := range ipcs {
					sum += v
				}
				b.ReportMetric(sum/float64(len(ipcs)), "meanIPC")
			}
		})
	}
}

// BenchmarkAblationLeakage measures the cost of the leakage/temperature
// feedback loop with and without DTM.
func BenchmarkAblationLeakage(b *testing.B) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		leak bool
		ctl  bool
	}{
		{"base", false, false},
		{"leak", true, false},
		{"leak+PI", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{Workload: prof, MaxInsts: 400_000}
				if tc.leak {
					cfg.Leakage = power.DefaultLeakage()
				}
				if tc.ctl {
					if err := bench.ApplyPolicy(&cfg, "PI", 0); err != nil {
						b.Fatal(err)
					}
				}
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgChipPower, "W")
				b.ReportMetric(100*res.EmergencyFrac(), "emerg%")
			}
		})
	}
}

// BenchmarkResultStore measures the pack-volume result store at the
// small-object regime the run cache lives in (a few hundred JSON bytes
// per entry). get runs against a pre-populated 10^5-entry store;
// rebuild times the cold-start needle-index scan over the same
// population. cmd/benchrec records the 10^6-entry numbers into
// BENCH_runner.json.
func BenchmarkResultStore(b *testing.B) {
	payload := []byte(`{"name":"gcc/PI","ipc":0.8732,"cycles":2290432,` +
		`"avg_power":42.17,"max_temp":111.84,"emergency_cycles":18320,` +
		`"temps":[110.2,109.7,108.9,111.1,107.3,109.9,110.6,108.1,109.2,` +
		`110.8,107.9,108.8,110.0]}`)
	key := func(i int) string { return fmt.Sprintf("bench%059d", i) }
	const population = 100_000

	open := func(b *testing.B, dir string) *packstore.Store {
		s, err := packstore.Open(dir, packstore.Options{NoAutoCompact: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	}
	populate := func(b *testing.B, s *packstore.Store) {
		for i := 0; i < population; i++ {
			if err := s.Put(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("pack/put", func(b *testing.B) {
		s := open(b, b.TempDir())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pack/get", func(b *testing.B) {
		s := open(b, b.TempDir())
		populate(b, s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(key(i % population)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pack/rebuild", func(b *testing.B) {
		dir := b.TempDir()
		s := open(b, dir)
		populate(b, s)
		s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := packstore.Open(dir, packstore.Options{NoAutoCompact: true})
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != population {
				b.Fatalf("rebuild lost entries: %d", s.Len())
			}
			s.Close()
		}
	})
}
