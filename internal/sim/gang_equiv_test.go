package sim_test

// Gang-vs-solo equivalence over the full benchmark x policy matrix. Gang
// execution promises BYTE-IDENTICAL results to solo runs of the same
// configurations — the shared front half reorders no arithmetic, forks
// clone state bit-exactly — so the comparison here is exact (marshaled
// Result equality), not toleranced.

import (
	"context"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// gangEquivInsts sizes the matrix runs: long enough that PI-family
// policies fork the gang, short enough that 18 workloads x (13 solo + 1
// gang) runs fit the package budget.
const gangEquivInsts = 400_000

// gangPolicies returns the full policy suite (the matrices here never
// run under the race detector, see skipGangMatrixUnderRace).
func gangPolicies() []string {
	return bench.Policies()
}

// skipGangMatrixUnderRace: the gang executor is single-goroutine, so
// byte-identity is not a race property — and the matrix is far too slow
// under the ~15x race detector for the package budget. Race coverage of the gang code paths comes from the
// in-package TestGang* suite (gang_test.go); the full matrices run in
// CI's dedicated non-race gang gate (bench-multicore job).
func skipGangMatrixUnderRace(t *testing.T) {
	t.Helper()
	if sim.RaceDetector {
		t.Skip("gang matrices run in the non-race gang gate; see bench-multicore CI job")
	}
}

func gangMatrixConfigs(t *testing.T, benchmark string, policies []string) []sim.Config {
	t.Helper()
	cfgs := make([]sim.Config, 0, len(policies))
	for _, p := range policies {
		cfg, err := bench.NewRun(benchmark, p, gangEquivInsts)
		if err != nil {
			t.Fatalf("NewRun(%s,%s): %v", benchmark, p, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestGangGoldenEquivalence runs the policy suite for every benchmark
// both solo and as one gang and requires byte-identical results.
func TestGangGoldenEquivalence(t *testing.T) {
	skipGangMatrixUnderRace(t)
	policies := gangPolicies()
	for _, b := range bench.Names() {
		b := b
		t.Run(b, func(t *testing.T) {
			t.Parallel()
			solo := make([][]byte, len(policies))
			for i, cfg := range gangMatrixConfigs(t, b, policies) {
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("solo %s: %v", policies[i], err)
				}
				enc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = enc
			}

			g, err := sim.NewGang(gangMatrixConfigs(t, b, policies), sim.GangOptions{})
			if err != nil {
				t.Fatal(err)
			}
			results, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				enc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(enc) != string(solo[i]) {
					t.Errorf("%s/%s: gang result differs from solo:\nsolo: %s\ngang: %s",
						b, policies[i], solo[i], enc)
				}
			}
			st := g.Stats()
			if st.MemberCycles <= st.ClassCycles {
				t.Errorf("no sharing achieved: member=%d class=%d", st.MemberCycles, st.ClassCycles)
			}
			t.Logf("members=%d forks=%d merges=%d occupancy=%.2f",
				st.Members, st.Forks, st.Merges, float64(st.MemberCycles)/float64(st.ClassCycles))
		})
	}
}

// TestGangSharedCalibration checks the gang's split between shared and
// private state: members share one workload stream and the class's
// calibrated pipeline/power front half, but each keeps its own sensor
// calibration (offset and quantization error), which steers only its own
// DTM policy. Every member must still be byte-identical to its solo run.
func TestGangSharedCalibration(t *testing.T) {
	skipGangMatrixUnderRace(t)
	policies := gangPolicies()
	sensors := func(t *testing.T, b string) []sim.Config {
		cfgs := gangMatrixConfigs(t, b, policies)
		for i := range cfgs {
			cfgs[i].Sensor = sensor.Sensor{Offset: -0.6 + 0.1*float64(i)}
			if i%2 == 1 {
				cfgs[i].Sensor.Quantum = 0.25
			}
		}
		return cfgs
	}
	for _, b := range []string{"gzip", "art"} {
		b := b
		t.Run(b, func(t *testing.T) {
			t.Parallel()
			solo := make([][]byte, len(policies))
			for i, cfg := range sensors(t, b) {
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("solo %s: %v", policies[i], err)
				}
				if solo[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			g, err := sim.NewGang(sensors(t, b), sim.GangOptions{})
			if err != nil {
				t.Fatal(err)
			}
			results, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				t.Run(policies[i], func(t *testing.T) {
					enc, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					if string(enc) != string(solo[i]) {
						t.Errorf("gang result differs from solo:\nsolo: %s\ngang: %s", solo[i], enc)
					}
				})
			}
			st := g.Stats()
			if st.MemberCycles <= st.ClassCycles {
				t.Errorf("no sharing achieved: member=%d class=%d", st.MemberCycles, st.ClassCycles)
			}
			t.Logf("members=%d forks=%d merges=%d occupancy=%.2f",
				st.Members, st.Forks, st.Merges, float64(st.MemberCycles)/float64(st.ClassCycles))
		})
	}
}

// memberSetup configures one gang member; reg and rec are the metrics
// registry and trace recorder an instrumented member reports into.
type memberSetup func(cfg *sim.Config, reg *telemetry.Registry, rec *telemetry.Recorder) error

// eventMembers names the members of TestGangEventMembersMatchSolo: plain
// members on five window schedules (no controller, PI and PID at the
// paper's interval, PI at 250 and 4000 cycles, a 64-cycle stride), a
// stalling toggle1, and members that step every cycle: Euler, proxies,
// leakage, frequency scaling and telemetry.
var eventMembers = []struct {
	name  string
	setup memberSetup
}{
	{"none", policy("none", 0)},
	{"none/stride64", func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		cfg.ThermalStride = 64
		return nil
	}},
	{"PI", policy("PI", 0)},
	{"PI@110.5", policy("PI", 110.5)},
	{"PID", policy("PID", 0)},
	{"PI/250", interval(250)},
	{"PI/4000", interval(4000)},
	{"toggle1", policy("toggle1", 0)},
	{"PI/euler", func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		cfg.ThermalStride = 1
		return bench.ApplyPolicy(cfg, "PI", 0)
	}},
	{"none/proxies", func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		cfg.ProxyWindows = []int{10_000}
		return nil
	}},
	{"PI/leakage", func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		cfg.Leakage = power.DefaultLeakage()
		return bench.ApplyPolicy(cfg, "PI", 0)
	}},
	{"fscale", policy("fscale", 0)},
	{"PI/instrumented", func(cfg *sim.Config, reg *telemetry.Registry, rec *telemetry.Recorder) error {
		cfg.Metrics, cfg.Trace, cfg.TraceInterval = telemetry.NewSimMetrics(reg), rec, 600
		return bench.ApplyPolicy(cfg, "PI", 0)
	}},
}

// policy is the named bench policy, at setpoint when it is nonzero.
func policy(name string, setpoint float64) memberSetup {
	return func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		return bench.ApplyPolicy(cfg, name, setpoint)
	}
}

// interval is the PI policy sampling every iv cycles.
func interval(iv uint64) memberSetup {
	return func(cfg *sim.Config, _ *telemetry.Registry, _ *telemetry.Recorder) error {
		if err := bench.ApplyPolicy(cfg, "PI", 0); err != nil {
			return err
		}
		cfg.Manager.Interval = iv
		return nil
	}
}

// TestGangEventMembersMatchSolo: plain members share their class's
// history and one window per schedule and work only at window ends and
// controller samples; every other member steps every cycle. A gang mixing
// both, warm-started above the emergency level so every controller acts
// at once and the gang forks in the middle of open windows, must leave
// each member byte-identical to its solo run.
func TestGangEventMembersMatchSolo(t *testing.T) {
	setups := make(map[string]memberSetup, len(eventMembers))
	var names []string
	for _, m := range eventMembers {
		setups[m.name] = m.setup
		names = append(names, m.name)
	}
	names = raceSubset(names, "none", "PI/250", "PI/4000", "toggle1", "none/proxies", "PI/instrumented")
	insts := uint64(150_000)
	if sim.RaceDetector {
		insts = 40_000 // the warm start forks the gang within its first samples
	}
	prof, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	nblk := numBlocks(t)
	mk := func() []sim.Config {
		reg := telemetry.NewRegistry()
		rec := telemetry.NewRecorder(io.Discard, nblk, 64)
		cfgs := make([]sim.Config, len(names))
		for i, name := range names {
			cfg := &cfgs[i]
			cfg.Workload, cfg.MaxInsts = prof, insts
			cfg.InitTemps = make([]float64, nblk)
			for b := range cfg.InitTemps {
				cfg.InitTemps[b] = 112
			}
			if err := setups[name](cfg, reg, rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return cfgs
	}

	g, err := sim.NewGang(mk(), sim.GangOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ganged, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range mk() {
		solo, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("solo %s: %v", names[i], err)
		}
		want, err1 := json.Marshal(solo)
		got, err2 := json.Marshal(ganged[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(want) != string(got) {
			t.Errorf("%s: gang result differs from solo:\nsolo: %s\ngang: %s", names[i], want, got)
		}
	}
	if st := g.Stats(); st.Forks == 0 {
		t.Errorf("the gang never forked: %+v", st)
	} else {
		t.Logf("stats: %+v", st)
	}
}
