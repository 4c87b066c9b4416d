package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func smallParams() Params {
	return Params{Insts: 60_000, Policies: []string{"toggle1", "PI"}}
}

func TestStaticTables(t *testing.T) {
	t2 := Table2()
	if len(t2.Rows) < 10 {
		t.Errorf("table 2 rows = %d", len(t2.Rows))
	}
	t3 := Table3()
	if len(t3.Rows) != 8 {
		t.Errorf("table 3 rows = %d", len(t3.Rows))
	}
	if !strings.Contains(t3.String(), "81 us") {
		t.Error("table 3 missing the legible window RC value")
	}
	t5 := Table5()
	if len(t5.Rows) != 4 {
		t.Errorf("table 5 rows = %d", len(t5.Rows))
	}
}

func TestBaselineAndCharacterizationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("suite baseline is slow")
	}
	base, err := Baseline(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 18 {
		t.Fatalf("baseline results = %d", len(base))
	}
	for i, r := range base {
		if r.Benchmark != bench.Names()[i] {
			t.Errorf("result %d is %s, want %s", i, r.Benchmark, bench.Names()[i])
		}
		if r.Insts < smallParams().Insts {
			t.Errorf("%s committed %d < budget", r.Benchmark, r.Insts)
		}
	}
	for _, tab := range []interface{ String() string }{
		Table4(base), Table6(base), Table7(base), Table8(base),
	} {
		out := tab.String()
		if !strings.Contains(out, "gcc") || !strings.Contains(out, "apsi") {
			t.Error("characterization table missing benchmarks")
		}
	}
}

func TestPolicyEvalShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("policy evaluation is slow")
	}
	ev, err := RunPolicyEval(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.ByPolicy) != 2 {
		t.Fatalf("policies = %d", len(ev.ByPolicy))
	}
	for pol, pcts := range ev.PctOfBase {
		if len(pcts) != 18 {
			t.Errorf("%s: %d entries", pol, len(pcts))
		}
		for i, p := range pcts {
			if p <= 0 || p > 1.2 {
				t.Errorf("%s/%s: pct of base = %v", pol, bench.Names()[i], p)
			}
		}
	}
	hs := ev.Headlines()
	if len(hs) != 2 {
		t.Fatalf("headlines = %d", len(hs))
	}
	for _, h := range hs {
		if h.MeanPct <= 0 || h.MeanPct > 1.01 {
			t.Errorf("%s: mean pct = %v", h.Policy, h.MeanPct)
		}
	}
	if tab := ev.Table11(); len(tab.Rows) != 18 {
		t.Errorf("table 11 rows = %d", len(tab.Rows))
	}
	if tab := ev.Table12(); len(tab.Rows) != 2 {
		t.Errorf("table 12 rows = %d", len(tab.Rows))
	}
}

func TestTraceExperiment(t *testing.T) {
	traced, err := Trace(Params{Insts: 60_000}, []string{"twolf"}, "PI", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res := traced[0]
	if res.TempTrace == nil || res.TempTrace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	if svg := TraceChart(res, "hot", "duty"); !strings.Contains(svg, "twolf under PI") ||
		!strings.Contains(svg, ">hot<") || !strings.Contains(svg, ">duty<") {
		t.Errorf("trace chart lacks its title or series:\n%s", svg)
	}
	if svg := PeakHeatmap(res, "twolf peaks", map[string]float64{"D": bench.EmergencyTemp}); !strings.Contains(svg, "twolf peaks") {
		t.Errorf("heat map lacks its title:\n%s", svg)
	}
	if _, err := Trace(Params{Insts: 1000}, []string{"nope"}, "PI", 0, 100); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Trace(Params{Insts: 1000}, []string{"gcc"}, "nope", 0, 100); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSeedStudy(t *testing.T) {
	st, err := SeedStudy(Params{Insts: 60_000}, "twolf", "none", 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.Benchmark != "twolf" {
		t.Errorf("stats = %+v", st)
	}
	if st.IPCMean <= 0 {
		t.Error("zero mean IPC")
	}
	// Different seeds must actually perturb the program (nonzero spread).
	if st.IPCStd == 0 {
		t.Error("zero IPC spread across seeds — seeds not applied?")
	}
	// But the spread must be small relative to the mean (the proxies'
	// behaviour is a property of the profile, not the seed).
	if st.IPCStd > 0.25*st.IPCMean {
		t.Errorf("IPC spread %v too large vs mean %v", st.IPCStd, st.IPCMean)
	}
	if _, err := SeedStudy(Params{Insts: 1000}, "twolf", "none", 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := SeedStudy(Params{Insts: 1000}, "nope", "none", 2); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestProxyTablesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("proxy sweep is slow")
	}
	ps, cw, err := ProxyTables(Params{Insts: 60_000}, []int{5_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Rows) != 18 || len(cw.Rows) != 18 {
		t.Fatalf("proxy tables rows = %d/%d", len(ps.Rows), len(cw.Rows))
	}
	// Header carries one missed/false pair per window.
	if len(ps.Header) != 2+2 {
		t.Errorf("per-struct header = %v", ps.Header)
	}
	if _, _, err := ProxyTables(Params{Insts: 1000}, []int{0}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestBaselineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := smallParams()
	p.Context = ctx
	if _, err := Baseline(p); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled baseline error = %v, want context.Canceled", err)
	}
}

func TestBaselineProgressAndWorkers(t *testing.T) {
	p := smallParams()
	p.Insts = 20_000
	p.Workers = 2
	var done atomic.Int64
	p.Progress = func(pr runner.Progress) {
		if pr.Total != len(bench.Names()) {
			t.Errorf("progress total = %d, want %d", pr.Total, len(bench.Names()))
		}
		done.Store(int64(pr.Done))
	}
	res, err := Baseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(bench.Names()) {
		t.Fatalf("got %d results", len(res))
	}
	if done.Load() != int64(len(bench.Names())) {
		t.Errorf("final progress done = %d, want %d", done.Load(), len(bench.Names()))
	}
	for i, r := range res {
		if r == nil || r.Benchmark != bench.Names()[i] {
			t.Errorf("result %d out of order: %+v", i, r)
		}
	}
}

// TestRunSimCacheRoundTrip proves a cached result is byte-for-byte usable
// in place of a fresh simulation: the warm pass must reproduce the cold
// pass's headline metrics exactly (JSON encodes float64 losslessly), and
// instrumented runs must bypass the cache entirely.
func TestRunSimCacheRoundTrip(t *testing.T) {
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	p := Params{Insts: 60_000, Cache: cache}
	specs := []runSpec{{bench: "gcc", policy: "PI"}}
	run := func() *sim.Result {
		res, err := runBatch(p, specs)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	cold := run()
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after cold run, want 1", cache.Len())
	}
	warm := run()
	if warm == cold {
		t.Fatal("warm run returned the same pointer; want a decoded copy")
	}
	if warm.IPC != cold.IPC || warm.Cycles != cold.Cycles ||
		warm.Insts != cold.Insts || warm.Blocks[0].MaxTemp != cold.Blocks[0].MaxTemp ||
		warm.EmergencyCycles != cold.EmergencyCycles ||
		warm.StressCycles != cold.StressCycles ||
		warm.AvgDuty != cold.AvgDuty || warm.Engagements != cold.Engagements ||
		warm.Benchmark != cold.Benchmark {
		t.Errorf("cached result differs from fresh run:\ncold %+v\nwarm %+v", cold, warm)
	}

	// Telemetry-instrumented runs must execute, not replay.
	p.Registry = telemetry.NewRegistry()
	if res := run(); res == warm || res.Cycles != cold.Cycles {
		t.Errorf("instrumented run: %+v", res)
	}
	if cache.Len() != 1 {
		t.Error("instrumented run touched the cache")
	}
}

// TestGangBatchGrouping is the batch engine's grouping rule: cold configs
// sharing one experiment form one gang of up to maxGang members, whatever
// telemetry or per-cycle features they carry, and a config that differs
// in its workload runs alone.
func TestGangBatchGrouping(t *testing.T) {
	p := Params{Insts: 40_000}
	var cfgs []sim.Config
	add := func(policy string, mut func(*sim.Config)) int {
		cfg, err := p.buildConfig(runSpec{bench: "gcc", policy: policy, cfg: mut})
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
		return len(cfgs) - 1
	}
	// A loner first, so no gang-able config may join a group it leads.
	alone := map[string]int{"other-seed": add("PI", func(c *sim.Config) { c.Workload.Seed++ })}
	gang := []int{add("PI", func(c *sim.Config) {
		c.Metrics = telemetry.NewSimMetrics(telemetry.NewRegistry())
	})}
	for _, pol := range []string{"none", "toggle1", "PI", "fscale"} {
		gang = append(gang, add(pol, nil))
	}
	gang = append(gang,
		add("none", func(c *sim.Config) { c.ProxyWindows = []int{5_000} }),
		add("PI", func(c *sim.Config) { c.TraceStride = 1000 }),
		add("PID", nil))

	all := make([]int, len(cfgs))
	for i := range all {
		all[i] = i
	}
	groups := group(cfgs, all, joinGang)
	if len(groups) != 1+len(alone) {
		t.Fatalf("groups = %v, want one gang plus %d singletons", groups, len(alone))
	}
	for name, i := range alone {
		found := false
		for _, g := range groups {
			found = found || (len(g) == 1 && g[0] == i)
		}
		if !found {
			t.Errorf("%s config %d does not run alone: %v", name, i, groups)
		}
	}
	if fmt.Sprint(groups[1]) != fmt.Sprint(gang) {
		t.Errorf("gang = %v, want %v", groups[1], gang)
	}

	// A workload's column longer than maxGang splits into full gangs.
	groups = group(cfgs[gang[0]:gang[0]+1], make([]int, maxGang+1), joinGang)
	if len(groups) != 2 || len(groups[0]) != maxGang || len(groups[1]) != 1 {
		t.Errorf("maxGang+1 members grouped as %d groups of %d/%d", len(groups), len(groups[0]), len(groups[len(groups)-1]))
	}
}

// TestGangBatchMatchesSolo: the batch engine must return results
// byte-identical to solo sim.RunContext runs of the same configs, serve
// cached cells from the pre-flight probe without scheduling them, and
// fill the cache for cold cells.
func TestGangBatchMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("gang batch comparison is slow")
	}
	specs := []runSpec{
		{bench: "gcc", policy: "none"},
		{bench: "gcc", policy: "toggle1"},
		{bench: "gcc", policy: "PI"},
		{bench: "gcc", policy: "fscale"},
		{bench: "art", policy: "none"},
		{bench: "art", policy: "PI"},
	}
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	p := Params{Insts: 60_000, Cache: cache}
	solo := make([]*sim.Result, len(specs))
	for i, sp := range specs {
		cfg, err := p.buildConfig(sp)
		if err != nil {
			t.Fatal(err)
		}
		if solo[i], err = sim.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}

	ganged, err := runBatch(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		a, err1 := json.Marshal(solo[i])
		b, err2 := json.Marshal(ganged[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(a) != string(b) {
			t.Errorf("%s/%s: gang batch differs from solo:\nsolo: %s\ngang: %s",
				specs[i].bench, specs[i].policy, a, b)
		}
	}
	if cache.Len() != len(specs) {
		t.Errorf("cache holds %d entries after gang batch, want %d", cache.Len(), len(specs))
	}

	// Warm rerun: every cell must come from the pre-flight probe. A probe
	// miss would re-execute and still pass the equality check, so prove no
	// runs happen by giving the rerun an already-cancelled context — only
	// scheduled work observes it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Context = ctx
	warm, err := runBatch(p, specs)
	if err != nil {
		t.Fatalf("warm gang batch scheduled work despite full cache: %v", err)
	}
	for i := range specs {
		if warm[i] == nil || warm[i].Cycles != solo[i].Cycles {
			t.Errorf("%s/%s: warm cell differs", specs[i].bench, specs[i].policy)
		}
	}
}

// TestGangBatchFallback: a config with per-run proxy windows shares its
// workload's gang and keeps its own proxies without lending them to the
// others.
func TestGangBatchFallback(t *testing.T) {
	proxied := func(c *sim.Config) { c.ProxyWindows = []int{5_000} }
	specs := []runSpec{
		{bench: "gzip", policy: "none", cfg: proxied},
		{bench: "gzip", policy: "none"},
	}
	p := Params{Insts: 40_000}
	res, err := runBatch(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Proxies) == 0 {
		t.Error("proxied member lost its proxy results in fallback")
	}
	if len(res[1].Proxies) != 0 {
		t.Error("plain member grew proxy results")
	}
}
