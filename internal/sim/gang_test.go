package sim

// Unit tests for the gang executor internals: class partitioning, fork on
// actuation divergence, config validation and the
// zero-allocation contract of the class-step loop. The full gang-vs-solo
// byte-identity matrix (18 workloads x 13 policies) lives in
// gang_equiv_test.go (package sim_test, which can reach the benchmark
// suite).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/telemetry"
)

// gangPolicyConfigs builds a gang spec around hotProfile: one
// uncontrolled member plus PI members at the given setpoints (distinct
// manager instances, as NewGang requires).
func gangPolicyConfigs(insts uint64, setpoints ...float64) []Config {
	cfgs := []Config{{Workload: hotProfile(), MaxInsts: insts}}
	for _, sp := range setpoints {
		cfgs = append(cfgs, Config{
			Workload: hotProfile(),
			MaxInsts: insts,
			Manager:  newPIManager(sp),
		})
	}
	return cfgs
}

// TestGangMatchesSolo is the in-package smoke version of the golden
// matrix: a mixed gang (uncontrolled, two PI setpoints, a toggle) must
// produce results byte-identical to solo runs of the same configs.
func TestGangMatchesSolo(t *testing.T) {
	insts := raceBudget(300_000, 100_000)
	mk := func() []Config {
		cfgs := gangPolicyConfigs(insts, 111.1, 110.8)
		cfgs = append(cfgs, Config{
			Workload: hotProfile(),
			MaxInsts: insts,
			Manager:  dtm.NewManager(dtm.NewToggle1(110.3, 5)),
		})
		return cfgs
	}

	g, err := NewGang(mk(), GangOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runMatchesSolo(t, g, mk())
	st := g.Stats()
	if st.Members != len(mk()) {
		t.Errorf("Members = %d, want %d", st.Members, len(mk()))
	}
	if st.MemberCycles <= st.ClassCycles {
		t.Errorf("no sharing achieved: member=%d class=%d", st.MemberCycles, st.ClassCycles)
	}
	t.Logf("stats: %+v occupancy=%.2f", st, float64(st.MemberCycles)/float64(st.ClassCycles))
}

// runMatchesSolo runs g to completion and requires every member's result
// to marshal byte-identically to a solo run of the same config; cfgs must
// be fresh copies of the configs g was built from.
func runMatchesSolo(t *testing.T, g *Gang, cfgs []Config) {
	t.Helper()
	ganged, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		want, err1 := json.Marshal(solo)
		got, err2 := json.Marshal(ganged[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(want) != string(got) {
			t.Errorf("member %d diverged from solo run:\nsolo: %s\ngang: %s", i, want, got)
		}
	}
}

// TestGangLeakageSharesClass: leakage adds power on top of the class
// vector, so a leakage member copies the shared vector (the leader adjusts
// it in place) and sums its own chip power, while a member without leakage
// reads the shared vector and chip power as they are. Neither actuates, so
// they share one class for the whole run, with the leakage member as
// leader and as follower; every member must match its solo run.
func TestGangLeakageSharesClass(t *testing.T) {
	insts := raceBudget(200_000, 50_000)
	leak := Config{Workload: hotProfile(), MaxInsts: insts, Leakage: power.DefaultLeakage()}
	plain := Config{Workload: hotProfile(), MaxInsts: insts}
	for name, cfgs := range map[string][]Config{
		"leader":   {leak, plain, plain},
		"follower": {plain, plain, leak},
	} {
		t.Run(name, func(t *testing.T) {
			g, err := NewGang(cfgs, GangOptions{})
			if err != nil {
				t.Fatal(err)
			}
			runMatchesSolo(t, g, cfgs)
			if st := g.Stats(); st.Forks != 0 || st.MemberCycles != uint64(len(cfgs))*st.ClassCycles {
				t.Errorf("members did not share one class: %+v", st)
			}
		})
	}
}

// TestGangForkOnDivergence: an uncontrolled member and two PI members at
// different setpoints start in one class (same initial actuation, even
// though their thermal windows end on different cycles) and must fork
// once their duties diverge.
func TestGangForkOnDivergence(t *testing.T) {
	g, err := NewGang(gangPolicyConfigs(raceBudget(600_000, 300_000), 111.1, 110.5), GangOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.classes) != 1 || len(g.classes[0].members) != 3 {
		t.Fatalf("want one initial class of 3 members, got %d classes", len(g.classes))
	}
	if _, err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.stats.Forks == 0 {
		t.Error("PI members at different setpoints never forked")
	}
}

// TestGangSharesClassAcrossSchedules: an uncontrolled member and two
// identical PI members share one class for the whole run although their
// fast-path windows end on different cycles (the PI members' also end on
// every 1000-cycle DTM sample), and every member must finish
// byte-identical to its solo run.
func TestGangSharesClassAcrossSchedules(t *testing.T) {
	mk := func() []Config { return gangPolicyConfigs(raceBudget(200_000, 100_000), 111.1, 111.1) }
	g, err := NewGang(mk(), GangOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runMatchesSolo(t, g, mk())
	if st := g.Stats(); st.Forks != 0 || st.MemberCycles != 3*st.ClassCycles {
		t.Errorf("members did not share one class: %+v", st)
	}
}

// TestGangInstrumentedMatchesSolo: instrumentation and the per-cycle
// features are per member, so configs carrying them share a gang. Every
// member of a forking gang is metered into one registry and traced into one
// recorder, and each carries one more of TraceStride, proxies, the coupled
// sink, lateral flow, Euler or a shorter fast-path window. Each must finish
// byte-identical to its instrumented solo run, series included, and, series
// aside, to its plain solo run. The recorder holds the same samples, and
// every registry counter the solo runs' total. Under -race the gang keeps
// three members (uncontrolled with a series, PI with proxies, DVFS with
// leakage), which still fork; the six run in CI's non-race gang step.
func TestGangInstrumentedMatchesSolo(t *testing.T) {
	insts := raceBudget(150_000, 50_000)
	mk := func(reg *telemetry.Registry, rec *telemetry.Recorder) []Config {
		cfgs := raceMembers([]Config{
			{TraceStride: 500},
			{Manager: newPIManager(111.1), ProxyWindows: []int{10_000}},
			{Manager: newPIManager(110.5), CoupleChipSink: true},
			{Manager: dtm.NewManager(dtm.NewToggle1(110.3, 5)), ThermalStride: 1, TraceStride: 777},
			{Scaling: dtm.NewFreqScaling(110.3, 0.5, 5), Leakage: power.DefaultLeakage()},
			{Manager: newPIManager(111.1), Tangential: true, ThermalStride: 128},
		}, 0, 1, 4)
		for i := range cfgs {
			c := &cfgs[i]
			c.Workload, c.MaxInsts = hotProfile(), insts
			c.InitTemps = make([]float64, floorplan.NumBlocks)
			for b := range c.InitTemps {
				c.InitTemps[b] = 112 // engage every controller at once
			}
			if reg == nil {
				c.TraceStride = 0
				continue
			}
			c.Metrics = telemetry.NewSimMetrics(reg)
			c.Trace, c.TraceInterval, c.TraceID = rec, 600, fmt.Sprint(i)
		}
		return cfgs
	}
	samples := func(rec *telemetry.Recorder, buf *bytes.Buffer) []telemetry.Sample {
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		out, err := telemetry.DecodeTrace(buf)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Run < out[j].Run })
		return out
	}

	gangReg, soloReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	var gangBuf, soloBuf bytes.Buffer
	gangRec := telemetry.NewRecorder(&gangBuf, int(floorplan.NumBlocks), 64)
	soloRec := telemetry.NewRecorder(&soloBuf, int(floorplan.NumBlocks), 64)
	g, err := NewGang(mk(gangReg, gangRec), GangOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runMatchesSolo(t, g, mk(soloReg, soloRec))
	ganged := g.results
	for i, cfg := range mk(nil, nil) {
		plain := run(t, cfg)
		strip := func(r *Result) string {
			c := *r
			c.TempTrace, c.DutyTrace, c.BlockTrace = nil, nil, nil
			b, _ := json.Marshal(&c)
			return string(b)
		}
		if want, got := strip(plain), strip(ganged[i]); want != got {
			t.Errorf("member %d differs from its plain solo run:\nplain: %s\ngang:  %s", i, want, got)
		}
	}
	st := g.Stats()
	if st.Forks == 0 {
		t.Errorf("the gang never forked: %+v", st)
	}
	t.Logf("stats: %+v", st)

	gs, ss := samples(gangRec, &gangBuf), samples(soloRec, &soloBuf)
	if len(gs) == 0 || len(gs) != len(ss) {
		t.Fatalf("recorder holds %d samples from the gang, %d from the solo runs", len(gs), len(ss))
	}
	for i := range gs {
		a, _ := json.Marshal(gs[i])
		b, _ := json.Marshal(ss[i])
		if string(a) != string(b) {
			t.Fatalf("trace sample %d differs:\nsolo: %s\ngang: %s", i, b, a)
		}
	}
	for _, name := range []string{
		"sim_cycles_total", "sim_insts_total", "sim_stall_cycles_total",
		"sim_emergency_cycles_total", "sim_stress_cycles_total", "dtm_samples_total",
		"dtm_saturated_samples_total", "dtm_antiwindup_freezes_total", "dtm_escalations_total",
	} {
		if got, want := gangReg.Counter(name, "").Value(), soloReg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d in the gang, %d over the solo runs", name, got, want)
		}
	}
}

func TestGangRejectsIneligibleConfigs(t *testing.T) {
	base := func() Config {
		return Config{Workload: hotProfile(), MaxInsts: 100_000}
	}
	cases := map[string]func() []Config{
		"empty": func() []Config { return nil },
		"workload-mismatch": func() []Config {
			a, b := base(), base()
			b.Workload = coldProfile()
			return []Config{a, b}
		},
		"insts-mismatch": func() []Config {
			a, b := base(), base()
			b.MaxInsts = 200_000
			return []Config{a, b}
		},
		"shared-manager": func() []Config {
			a, b := base(), base()
			mgr := newPIManager(111.1)
			a.Manager, b.Manager = mgr, mgr
			return []Config{a, b}
		},
	}
	for name, mk := range cases {
		if _, err := NewGang(mk(), GangOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// steadyGang builds a gang of the configs from mk, with an effectively
// unbounded budget, and warms it past construction transients.
func steadyGang(tb testing.TB, mk func() []Config) *Gang {
	tb.Helper()
	cfgs := mk()
	for i := range cfgs {
		c := &cfgs[i]
		c.Workload = hotProfile()
		c.MaxInsts = 1 << 60
		c.MaxCycles = 1 << 62
	}
	g, err := NewGang(cfgs, GangOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40_000/classBurst; i++ {
		g.Step()
	}
	return g
}

// repeat returns n copies of the config from cfg, each with its own
// controllers.
func repeat(n int, cfg func() Config) func() []Config {
	return func() []Config {
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = cfg()
		}
		return cfgs
	}
}

// idlePI is a PI manager sampling every interval cycles at a setpoint the
// hot profile never reaches: it samples but never throttles, so it keeps
// an uncontrolled member's actuation and never forks from it.
func idlePI(interval uint64) *dtm.Manager {
	m := newPIManager(150)
	m.Interval = interval
	return m
}

// TestZeroAllocGangStep enforces the zero-allocation contract on the
// class-step loop (forks, which are rare and may allocate, cannot occur
// here because the members' actuation never diverges). Mixed puts plain
// members on three window schedules next to a proxied Euler member. Part
// of the repository's allocation gate (`go test -run TestZeroAlloc`).
func TestZeroAllocGangStep(t *testing.T) {
	for _, v := range []struct {
		name string
		cfgs func() []Config
	}{
		{"Exact", repeat(4, func() Config { return Config{} })},
		{"DTM", repeat(4, func() Config { return Config{Manager: piManager()} })},
		{"Mixed", func() []Config {
			return []Config{
				{},
				{Manager: idlePI(1000)},
				{Manager: idlePI(250)},
				{ProxyWindows: []int{10_000}},
			}
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			g := steadyGang(t, v.cfgs)
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 50; i++ {
					g.Step()
				}
			})
			if allocs > 0 {
				t.Errorf("gang step loop allocates %.2f times per %d class-steps; want 0", allocs, 50*classBurst)
			}
			if g.stats.Forks != 0 {
				t.Fatalf("identical members forked (%d)", g.stats.Forks)
			}
		})
	}
}

// BenchmarkGangStep measures the class-step cost at various gang sizes on
// one shared class; the per-member cost should shrink toward the
// member-fan-out cost as the gang grows. ns/member-cycle reports that
// per-member cost, ns/class-cycle the cost of one step of the class.
// Sweep7 is a setpoint sweep's gang: an uncontrolled member and six PI
// members that sample every 1000 cycles (at setpoints the hot profile
// never reaches, so the class never forks).
func BenchmarkGangStep(b *testing.B) {
	for _, v := range []struct {
		name string
		cfgs func() []Config
	}{
		{"Exact1", repeat(1, func() Config { return Config{} })},
		{"Exact4", repeat(4, func() Config { return Config{} })},
		{"Exact13", repeat(13, func() Config { return Config{} })},
		{"Sweep7", func() []Config {
			cfgs := []Config{{}}
			for range 6 {
				cfgs = append(cfgs, Config{Manager: idlePI(1000)})
			}
			return cfgs
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			g := steadyGang(b, v.cfgs)
			b.ReportAllocs()
			m0, c0 := g.stats.MemberCycles, g.stats.ClassCycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Step()
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(g.stats.MemberCycles-m0), "ns/member-cycle")
			b.ReportMetric(ns/float64(g.stats.ClassCycles-c0), "ns/class-cycle")
			if g.stats.Forks != 0 {
				b.Fatalf("the class forked (%d)", g.stats.Forks)
			}
		})
	}
}
