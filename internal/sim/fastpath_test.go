package sim_test

// A/B validation of the macro-stepped exponential thermal fast path
// against the per-cycle Euler path (ThermalStride 1) across the full
// benchmark suite and every DTM policy. The fast path integrates each
// window's mean power analytically, so it is exact for constant-power
// windows; with real (fluctuating) workloads the within-window
// mean-power substitution bounds the divergence, and these tests pin
// the observed error well inside the documented tolerances.

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

const (
	eqInsts = 60000
	// eqTempTol bounds per-block average and maximum temperature
	// divergence between the two integrators. The window mean-power
	// substitution perturbs within-window trajectories by
	// ~a·R·Σ|P−P̄| and end-of-window temperatures by a second-order
	// correction ~a²·w²·σP·R; the observed worst case across the suite
	// is ~1e-4 °C, so two millidegrees holds 20× margin.
	eqTempTol = 2e-3
	// eqEmergSlack bounds the emergency/stress cycle-count divergence:
	// a threshold crossing inside a window can shift by the trajectory
	// perturbation divided by the per-cycle slope, which stays under
	// one window length (observed worst case ~55 cycles).
	eqEmergSlack = uint64(sim.DefaultThermalStride)
)

// runPair executes the same configuration under the Euler and fast
// thermal paths. Configurations are rebuilt per run because policy and
// scaling objects carry internal controller state.
func runPair(t *testing.T, benchmark, policy string, mutate func(*sim.Config)) (euler, fast *sim.Result) {
	t.Helper()
	build := func(stride uint64) *sim.Result {
		cfg, err := bench.NewRun(benchmark, policy, eqInsts)
		if err != nil {
			t.Fatalf("NewRun(%s,%s): %v", benchmark, policy, err)
		}
		cfg.ThermalStride = stride
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("Run(%s,%s,stride=%d): %v", benchmark, policy, stride, err)
		}
		return res
	}
	return build(1), build(0)
}

// hotInit returns a mutate func seeding every block above the emergency
// threshold so both cooling and reheating crossings occur.
func hotInit(nblk int, temp float64) func(*sim.Config) {
	return func(cfg *sim.Config) {
		init := make([]float64, nblk)
		for i := range init {
			init[i] = temp
		}
		cfg.InitTemps = init
	}
}

func comparePair(t *testing.T, euler, fast *sim.Result, tempTol float64, emergSlack uint64) {
	t.Helper()
	if euler.Cycles != fast.Cycles {
		// Cycle counts may drift if DTM decisions diverge; report but
		// do not fail on sub-percent drift.
		d := float64(euler.Cycles) - float64(fast.Cycles)
		if math.Abs(d) > 0.01*float64(euler.Cycles) {
			t.Errorf("cycle count diverged: euler=%d fast=%d", euler.Cycles, fast.Cycles)
		}
	}
	var maxAvg, maxMax float64
	for i := range euler.Blocks {
		eb, fb := &euler.Blocks[i], &fast.Blocks[i]
		if d := math.Abs(eb.AvgTemp - fb.AvgTemp); d > maxAvg {
			maxAvg = d
		}
		if d := math.Abs(eb.MaxTemp - fb.MaxTemp); d > maxMax {
			maxMax = d
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
		t.Errorf("EmergencyCycles diverged by %d (euler=%d fast=%d, slack %d)",
			d, euler.EmergencyCycles, fast.EmergencyCycles, emergSlack)
	}
	if d := absDiff(euler.StressCycles, fast.StressCycles); d > emergSlack {
		t.Errorf("StressCycles diverged by %d (euler=%d fast=%d, slack %d)",
			d, euler.StressCycles, fast.StressCycles, emergSlack)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func numBlocks(t *testing.T) int {
	t.Helper()
	cfg, err := bench.NewRun("gcc", "none", 1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return len(s.Finish().Blocks)
}

// raceSubset returns all, or under the race detector only sub: one
// member per regime of a matrix that pins arithmetic, not concurrency.
// The full matrix runs in CI's non-race gate.
func raceSubset(all []string, sub ...string) []string {
	if sim.RaceDetector {
		return sub
	}
	return all
}

// TestFastPathEquivalenceWorkloads sweeps every benchmark in the suite
// under the PI policy (under -race, one benchmark per Table 5 category).
func TestFastPathEquivalenceWorkloads(t *testing.T) {
	nblk := numBlocks(t)
	for _, b := range raceSubset(bench.Names(), "gcc", "mesa", "gzip", "vpr") {
		b := b
		t.Run(b, func(t *testing.T) {
			t.Parallel()
			euler, fast := runPair(t, b, "PI", hotInit(nblk, 112))
			comparePair(t, euler, fast, eqTempTol, eqEmergSlack)
		})
	}
}

// TestFastPathEquivalencePolicies sweeps every DTM policy on one hot
// benchmark (under -race, one policy per actuation mechanism: none,
// fetch toggling, fetch throttling, one controller and per-block
// controllers, voltage scaling).
func TestFastPathEquivalencePolicies(t *testing.T) {
	nblk := numBlocks(t)
	for _, p := range raceSubset(bench.Policies(), "none", "toggle1", "throttle", "PI", "mPID", "vfscale") {
		p := p
		t.Run(p, func(t *testing.T) {
			t.Parallel()
			euler, fast := runPair(t, "gcc", p, hotInit(nblk, 112))
			comparePair(t, euler, fast, eqTempTol, eqEmergSlack)
		})
	}
}

// TestFastPathTangentialTolerance checks the frozen-lateral-flow
// approximation of the tangential model stays within its documented
// first-order bound (w·dt ≪ R·C keeps the error per window tiny, but
// unlike the Figure 3C model it is not exact for constant power).
func TestFastPathTangentialTolerance(t *testing.T) {
	nblk := numBlocks(t)
	euler, fast := runPair(t, "gcc", "PI", func(cfg *sim.Config) {
		hotInit(nblk, 112)(cfg)
		cfg.Tangential = true
	})
	comparePair(t, euler, fast, eqTempTol, eqEmergSlack)
}

// TestFastPathRejectsIneligibleConfigs pins the explicit-stride
// validation: per-cycle consumers must refuse a macro-stepped window.
func TestFastPathRejectsIneligibleConfigs(t *testing.T) {
	cfg, err := bench.NewRun("gcc", "PI", 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProxyWindows = []int{100}
	cfg.ThermalStride = 256
	if _, err := sim.New(cfg); err == nil {
		t.Fatal("New accepted ThermalStride 256 with power proxies")
	}
	cfg.ProxyWindows = nil
	cfg.CoupleChipSink = true
	if _, err := sim.New(cfg); err == nil {
		t.Fatal("New accepted ThermalStride 256 with CoupleChipSink")
	}
	// Auto mode silently falls back to Euler for the same configs.
	cfg.ThermalStride = 0
	if _, err := sim.New(cfg); err != nil {
		t.Fatalf("auto stride should fall back to Euler: %v", err)
	}
}

// TestFastPathTraceShapeMatchesEuler pins the trace stride phase: both
// integrators must record exactly the same sample cycles.
func TestFastPathTraceShapeMatchesEuler(t *testing.T) {
	nblk := numBlocks(t)
	euler, fast := runPair(t, "gcc", "PI", func(cfg *sim.Config) {
		hotInit(nblk, 112)(cfg)
		cfg.TraceStride = 777 // deliberately misaligned with the window
	})
	if el, fl := euler.TempTrace.Len(), fast.TempTrace.Len(); el != fl {
		t.Fatalf("trace length diverged: euler=%d fast=%d", el, fl)
	}
	for i, x := range euler.TempTrace.Xs {
		if fast.TempTrace.Xs[i] != x {
			t.Fatalf("trace sample %d at cycle %d (euler) vs %d (fast)",
				i, x, fast.TempTrace.Xs[i])
		}
		if d := math.Abs(euler.TempTrace.Ys[i] - fast.TempTrace.Ys[i]); d > eqTempTol {
			t.Fatalf("trace sample %d diverged by %.3e", i, d)
		}
	}
}
