package sim_test

// A/B validation of the multicore macro-stepped thermal fast path against
// the per-cycle coupled Euler path: the frozen-lateral-flow window
// treatment now spans core boundaries, so the equivalence gate sweeps the
// core-interaction scenarios, core counts and every per-core controller
// family within the same tolerances as the solo TestFastPathEquivalence*
// suite.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/sim"
)

const mcEqInsts = 60000 // per core

// skipMulticoreMatrixUnderRace: sim.Multicore steps on a single
// goroutine, so fast-vs-Euler equivalence, controller engagement and
// the allocation contract are not race properties — and the matrices
// would take most of the package's race budget on a single-CPU host.
// The full multicore matrices run in CI's dedicated non-race multicore
// job on every PR.
func skipMulticoreMatrixUnderRace(t *testing.T) {
	t.Helper()
	if sim.RaceDetector {
		t.Skip("multicore matrices run in the non-race multicore gate; see multicore CI job")
	}
}

// runMulticorePair executes one scenario/policy/core-count configuration
// under both thermal paths. Configs are rebuilt per run because the
// controllers carry internal state.
func runMulticorePair(t *testing.T, scenario, policy string, cores int, mutate func(*sim.MulticoreConfig)) (euler, fast *sim.MulticoreResult) {
	t.Helper()
	build := func(stride uint64) *sim.MulticoreResult {
		cfg, err := bench.NewMulticoreRun(scenario, policy, cores, mcEqInsts)
		if err != nil {
			t.Fatalf("NewMulticoreRun(%s,%s,%d): %v", scenario, policy, cores, err)
		}
		cfg.ThermalStride = stride
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.RunMulticore(context.Background(), cfg)
		if err != nil {
			t.Fatalf("RunMulticore(%s,%s,%d,stride=%d): %v", scenario, policy, cores, stride, err)
		}
		return res
	}
	return build(1), build(0)
}

// hotDieInit seeds every block of the die above the emergency threshold so
// both cooling and reheating crossings occur in every core.
func hotDieInit(cores int, temp float64) func(*sim.MulticoreConfig) {
	return func(cfg *sim.MulticoreConfig) {
		init := make([]float64, cores*int(floorplan.NumBlocks))
		for i := range init {
			init[i] = temp
		}
		cfg.InitTemps = init
	}
}

func compareMulticorePair(t *testing.T, euler, fast *sim.MulticoreResult, tempTol float64, emergSlack uint64) {
	t.Helper()
	if euler.Cycles != fast.Cycles {
		d := float64(euler.Cycles) - float64(fast.Cycles)
		if math.Abs(d) > 0.01*float64(euler.Cycles) {
			t.Errorf("cycle count diverged: euler=%d fast=%d", euler.Cycles, fast.Cycles)
		}
	}
	var maxAvg, maxMax float64
	for c := range euler.PerCore {
		ec, fc := &euler.PerCore[c], &fast.PerCore[c]
		for k := range ec.Blocks {
			eb, fb := &ec.Blocks[k], &fc.Blocks[k]
			if d := math.Abs(eb.AvgTemp - fb.AvgTemp); d > maxAvg {
				maxAvg = d
			}
			if d := math.Abs(eb.MaxTemp - fb.MaxTemp); d > maxMax {
				maxMax = d
			}
		}
		if d := absDiff(ec.EmergencyCycles, fc.EmergencyCycles); d > emergSlack {
			t.Errorf("core %d EmergencyCycles diverged by %d (euler=%d fast=%d)",
				c, d, ec.EmergencyCycles, fc.EmergencyCycles)
		}
		if d := absDiff(ec.StressCycles, fc.StressCycles); d > emergSlack {
			t.Errorf("core %d StressCycles diverged by %d (euler=%d fast=%d)",
				c, d, ec.StressCycles, fc.StressCycles)
		}
	}
	t.Logf("maxΔavg=%.3e maxΔmax=%.3e ΔE=%d ΔS=%d (E=%d)",
		maxAvg, maxMax,
		int64(euler.EmergencyCycles)-int64(fast.EmergencyCycles),
		int64(euler.StressCycles)-int64(fast.StressCycles),
		euler.EmergencyCycles)
	if maxAvg > tempTol {
		t.Errorf("per-block AvgTemp diverged by %.3e (tol %.1e)", maxAvg, tempTol)
	}
	if maxMax > tempTol {
		t.Errorf("per-block MaxTemp diverged by %.3e (tol %.1e)", maxMax, tempTol)
	}
	if d := absDiff(euler.EmergencyCycles, fast.EmergencyCycles); d > emergSlack {
		t.Errorf("chip EmergencyCycles diverged by %d (euler=%d fast=%d, slack %d)",
			d, euler.EmergencyCycles, fast.EmergencyCycles, emergSlack)
	}
	if d := absDiff(euler.StressCycles, fast.StressCycles); d > emergSlack {
		t.Errorf("chip StressCycles diverged by %d (euler=%d fast=%d, slack %d)",
			d, euler.StressCycles, fast.StressCycles, emergSlack)
	}
}

// TestFastPathEquivalenceMulticoreScenarios sweeps every core-interaction
// scenario at 2 and 4 cores under per-core PID.
func TestFastPathEquivalenceMulticoreScenarios(t *testing.T) {
	skipMulticoreMatrixUnderRace(t)
	for _, scenario := range bench.MulticoreWorkloads() {
		for _, cores := range []int{2, 4} {
			scenario, cores := scenario, cores
			t.Run(fmt.Sprintf("%s/%dcore", scenario, cores), func(t *testing.T) {
				t.Parallel()
				euler, fast := runMulticorePair(t, scenario, "PID", cores, hotDieInit(cores, 112))
				compareMulticorePair(t, euler, fast, eqTempTol, eqEmergSlack)
			})
		}
	}
}

// TestFastPathEquivalenceMulticorePolicies sweeps every multicore policy
// family — uncontrolled, per-core PID, adjustable-gain DVFS, hierarchical
// budget — on the hot-neighbor scenario at 2 cores.
func TestFastPathEquivalenceMulticorePolicies(t *testing.T) {
	skipMulticoreMatrixUnderRace(t)
	for _, policy := range bench.MulticorePolicies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			euler, fast := runMulticorePair(t, "hotneighbor", policy, 2, hotDieInit(2, 112))
			compareMulticorePair(t, euler, fast, eqTempTol, eqEmergSlack)
		})
	}
}

// TestFastPathEquivalenceMulticoreSingle pins the 1-core edge: the tiled
// die degenerates to the paper's floorplan (with tangential coupling) and
// the two paths must still agree.
func TestFastPathEquivalenceMulticoreSingle(t *testing.T) {
	skipMulticoreMatrixUnderRace(t)
	euler, fast := runMulticorePair(t, "hotneighbor", "PID", 1, hotDieInit(1, 112))
	compareMulticorePair(t, euler, fast, eqTempTol, eqEmergSlack)
}
