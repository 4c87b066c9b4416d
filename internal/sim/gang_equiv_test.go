package sim_test

// Gang-vs-solo equivalence over the full benchmark x policy matrix. Gang
// execution promises BYTE-IDENTICAL results to solo runs of the same
// configurations — the shared front half reorders no arithmetic, forks
// clone state bit-exactly — so the comparison here is exact (marshaled
// Result equality), not toleranced.

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/sensor"
	"repro/internal/sim"
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
	if raceDetector {
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
