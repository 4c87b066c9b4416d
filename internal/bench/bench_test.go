package bench

import (
	"testing"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRegistryCompleteAndValid(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("suite has %d benchmarks, want 18", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid profile: %v", n, err)
		}
		if p.Name != n {
			t.Errorf("profile name %q != %q", p.Name, n)
		}
		if CategoryOf(n) == "" {
			t.Errorf("%s has no category", n)
		}
		// Every profile must actually generate.
		gen, err := workload.NewGenerator(p)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		gen.Next()
	}
	if len(Names()) != 18 {
		t.Error("Names() does not list 18 benchmarks")
	}
}

func TestCategoriesPartitionSuite(t *testing.T) {
	count := map[Category]int{}
	for _, n := range Names() {
		count[CategoryOf(n)]++
	}
	if count[Extreme] < 3 || count[High] < 4 || count[Medium] < 4 || count[Low] < 4 {
		t.Errorf("category sizes = %v", count)
	}
	if CategoryOf("nonexistent") != "" {
		t.Error("unknown benchmark has a category")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("spectral"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSeedsAreStableAndDistinct(t *testing.T) {
	if seedFor("gcc") != seedFor("gcc") {
		t.Error("seed not stable")
	}
	seen := map[uint64]string{}
	for _, n := range Names() {
		s := seedFor(n)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision: %s and %s", n, prev)
		}
		seen[s] = n
	}
}

func TestPlantParameters(t *testing.T) {
	p := Plant()
	if p.K <= 0 || p.Tau <= 0 || p.Delay <= 0 {
		t.Fatalf("plant = %+v", p)
	}
	// Tau is the longest block RC: 180 us from the Table 3 values.
	if p.Tau != 180e-6 {
		t.Errorf("tau = %v, want 180e-6", p.Tau)
	}
	// Delay is half the 667 ns sampling period.
	if p.Delay < 300e-9 || p.Delay > 400e-9 {
		t.Errorf("delay = %v", p.Delay)
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	for _, name := range []string{"none", "toggle1", "toggle2", "M", "P", "PI", "PID"} {
		p, err := NewPolicy(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "none" && p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("bangbang", 0); err != nil {
	} else {
		t.Error("unknown policy accepted")
	}
}

func TestNewPolicySetpointOverride(t *testing.T) {
	p, err := NewPolicy("PI", 110.6)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := p.(*dtm.CT)
	if !ok {
		t.Fatal("PI policy is not a CT policy")
	}
	if ct.Controller().Setpoint != 110.6 {
		t.Errorf("setpoint = %v, want 110.6", ct.Controller().Setpoint)
	}
}

func TestApplyPolicy(t *testing.T) {
	var cfg sim.Config
	if err := ApplyPolicy(&cfg, "PI", 0); err != nil {
		t.Fatal(err)
	}
	if cfg.Manager == nil || cfg.Manager.Policy.Name() != "PI" {
		t.Error("manager not configured")
	}
	cfg = sim.Config{}
	if err := ApplyPolicy(&cfg, "none", 0); err != nil {
		t.Fatal(err)
	}
	if cfg.Manager != nil {
		t.Error("none policy created a manager")
	}
	cfg = sim.Config{}
	if err := ApplyPolicy(&cfg, "fscale", 0); err != nil {
		t.Fatal(err)
	}
	if cfg.Scaling == nil || cfg.Scaling.VoltageToo {
		t.Error("fscale not configured")
	}
	cfg = sim.Config{}
	if err := ApplyPolicy(&cfg, "vfscale", 0); err != nil {
		t.Fatal(err)
	}
	if cfg.Scaling == nil || !cfg.Scaling.VoltageToo {
		t.Error("vfscale not configured")
	}
	if err := ApplyPolicy(&cfg, "bogus", 0); err == nil {
		t.Error("bogus policy accepted")
	}
}

// Every listed policy name builds a run, on every benchmark's profile.
func TestBenchmarksAndPolicies(t *testing.T) {
	if len(Names()) != 18 {
		t.Errorf("benchmarks = %d, want 18", len(Names()))
	}
	for _, pol := range Policies() {
		var cfg sim.Config
		if err := ApplyPolicy(&cfg, pol, 0); err != nil {
			t.Errorf("ApplyPolicy(%s): %v", pol, err)
		}
		if _, err := NewRun("gcc", pol, 1000); err != nil {
			t.Errorf("NewRun(gcc, %s): %v", pol, err)
		}
	}
}

func TestNewRunErrors(t *testing.T) {
	if _, err := NewRun("nope", "PI", 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := NewRun("gcc", "nope", 1000); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg, err := NewRun("twolf", "PI", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts < 50_000 || res.IPC <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Policy != "PI" || res.Benchmark != "twolf" {
		t.Errorf("labels = %s/%s", res.Benchmark, res.Policy)
	}
}

// The P/PI/PID policies carry the paper's tuned controllers at their
// default setpoints.
func TestTunedController(t *testing.T) {
	for _, k := range []control.Kind{control.KindP, control.KindPI, control.KindPID} {
		p, err := NewPolicy(k.String(), 0)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		ct, ok := p.(*dtm.CT)
		if !ok {
			t.Fatalf("%v: policy %T is not a CT policy", k, p)
		}
		ctl := ct.Controller()
		if ctl.Kp <= 0 {
			t.Errorf("%v: Kp = %v", k, ctl.Kp)
		}
		if ctl.Setpoint < 110 || ctl.Setpoint > 111.3 {
			t.Errorf("%v: setpoint = %v", k, ctl.Setpoint)
		}
	}
}

func TestBenchmarkLookup(t *testing.T) {
	p, err := ByName("art")
	if err != nil || p.Name != "art" {
		t.Fatalf("ByName(art) = %v, %v", p.Name, err)
	}
	if len(p.Phases) < 2 {
		t.Error("art should be multi-phase")
	}
}

// The thresholds relate as the paper requires.
func TestOperatingPointOrdering(t *testing.T) {
	if !(NonCTTrigger < PSetpoint && PSetpoint < PISetpoint && PISetpoint < EmergencyTemp) {
		t.Error("threshold ordering broken")
	}
	if PISetpoint-PISensorRange != 110.9 {
		t.Errorf("PI engagement threshold = %v, want 110.9 (within 0.2+0.2 of D)",
			PISetpoint-PISensorRange)
	}
}

// The paper's PI/PID tuning must be feasible for the registry plant.
func TestControllersTunableForPlant(t *testing.T) {
	p := Plant()
	for _, k := range []control.Kind{control.KindP, control.KindPI, control.KindPID} {
		if _, err := control.Tune(p, control.Spec{Kind: k}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

// Category conformance: each tier exhibits its defining thermal behaviour.
// This runs the actual simulator on representative members; the full-suite
// version lives in the benchmark harness.
func TestCategoryConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("category conformance needs full-length runs")
	}
	runOne := func(name string, insts uint64) *sim.Result {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{Workload: prof, MaxInsts: insts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Extreme: sustained (gcc) and bursty (art) emergencies.
	if r := runOne("gcc", 1_500_000); r.EmergencyFrac() < 0.05 {
		t.Errorf("gcc emergency frac = %v, want extreme", r.EmergencyFrac())
	}
	if r := runOne("art", 2_500_000); r.EmergencyCycles == 0 {
		t.Error("art burst produced no emergencies")
	}
	// High: mesa rides the stress band without emergencies.
	if r := runOne("mesa", 1_500_000); r.EmergencyFrac() > 0.02 || r.StressFrac() < 0.2 {
		t.Errorf("mesa emerg=%v stress=%v, want stress-without-emergency",
			r.EmergencyFrac(), r.StressFrac())
	}
	// Low: twolf never stresses.
	if r := runOne("twolf", 800_000); r.StressCycles != 0 {
		t.Errorf("twolf stress cycles = %d, want 0", r.StressCycles)
	}
}
