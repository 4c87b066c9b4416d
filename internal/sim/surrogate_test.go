package sim_test

// A/B validation of the pipeline surrogate (calibrated macro-window
// replay) against the cycle-exact pipeline on the macro-stepped thermal
// fast path, across the full benchmark suite and every DTM policy. The
// surrogate substitutes calibrated mean power and IPC for the real
// pipeline inside steady-state spans, so — unlike the thermal fast path,
// which is exact for constant power — it carries genuine modeling error:
// calibration bias on non-stationary phases, splice transients when the
// frozen pipeline resumes, and quantized instruction credit. The bounds
// here are correspondingly looser than the fast path's and are the
// documented accuracy contract (README "Pipeline surrogate").

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

const (
	// surInsts sizes the A/B runs. The trend gate keeps the surrogate
	// (correctly) disengaged through the pipeline's cache/predictor
	// warm-up — several hundred thousand cycles — so the runs must be
	// long enough that steady-state replay, the regime the surrogate
	// exists for, dominates.
	surInsts = 1_500_000
	// surTempTol bounds per-block average and maximum temperature
	// divergence. Observed worst case across 18 benchmarks × 13 policies
	// is held with margin; the dominant term is calibration bias on
	// phases whose power is not stationary at the warm-up scale.
	surTempTol = 0.5
	// surResidencyTol bounds the emergency/stress residency divergence
	// as a fraction of total cycles (threshold crossings shift when the
	// replayed trajectory runs at mean power).
	surResidencyTol = 0.08
	// surCycleDriftTol bounds total cycle-count drift: the surrogate
	// credits instructions at the calibrated IPC, so a biased
	// calibration stretches or shrinks the run.
	surCycleDriftTol = 0.05
	// surAggregateFloor is the minimum replay fraction aggregated across
	// the whole workload matrix (the accuracy bounds alone would be
	// satisfied trivially by never replaying). It is deliberately an
	// aggregate, not per-benchmark: the engagement gates are meant to
	// keep the surrogate out of runs it cannot replay accurately —
	// noisy or slowly-creeping workloads, trajectories hovering at the
	// stress band — and several benchmarks legitimately sit in that
	// regime at this horizon.
	surAggregateFloor = 0.25
	// surSteadyFloor is the per-run floor for the dedicated steady-state
	// engagement test, where the workload is stationary and no DTM
	// policy perturbs the operating point. The non-replayed remainder is
	// the genuine cache warm-up ramp plus the periodic audit windows.
	surSteadyFloor = 0.50
)

// runSurPair executes the same configuration cycle-exact and with the
// pipeline surrogate, both on the macro-stepped thermal fast path so the
// delta isolates the pipeline substitution.
func runSurPair(t *testing.T, benchmark, policy string, mutate func(*sim.Config)) (exact, sur *sim.Result) {
	t.Helper()
	build := func(surrogate bool) *sim.Result {
		cfg, err := bench.NewRun(benchmark, policy, surInsts)
		if err != nil {
			t.Fatalf("NewRun(%s,%s): %v", benchmark, policy, err)
		}
		cfg.PipelineSurrogate = surrogate
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("Run(%s,%s,surrogate=%v): %v", benchmark, policy, surrogate, err)
		}
		return res
	}
	return build(false), build(true)
}

func frac(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func compareSurPair(t *testing.T, exact, sur *sim.Result) {
	t.Helper()
	drift := math.Abs(float64(exact.Cycles)-float64(sur.Cycles)) / float64(exact.Cycles)
	var maxAvg, maxMax float64
	for i := range exact.Blocks {
		eb, sb := &exact.Blocks[i], &sur.Blocks[i]
		if d := math.Abs(eb.AvgTemp - sb.AvgTemp); d > maxAvg {
			maxAvg = d
		}
		if d := math.Abs(eb.MaxTemp - sb.MaxTemp); d > maxMax {
			maxMax = d
		}
	}
	dEmerg := math.Abs(frac(exact.EmergencyCycles, exact.Cycles) - frac(sur.EmergencyCycles, sur.Cycles))
	dStress := math.Abs(frac(exact.StressCycles, exact.Cycles) - frac(sur.StressCycles, sur.Cycles))
	t.Logf("maxΔavg=%.3f maxΔmax=%.3f ΔEfrac=%.4f ΔSfrac=%.4f drift=%.4f replay=%.0f%%",
		maxAvg, maxMax, dEmerg, dStress, drift,
		100*frac(sur.SurrogateCycles, sur.Cycles))
	if maxAvg > surTempTol {
		t.Errorf("per-block AvgTemp diverged by %.3f (tol %.2f)", maxAvg, surTempTol)
	}
	if maxMax > surTempTol {
		t.Errorf("per-block MaxTemp diverged by %.3f (tol %.2f)", maxMax, surTempTol)
	}
	if dEmerg > surResidencyTol {
		t.Errorf("emergency residency diverged by %.4f (exact=%.4f sur=%.4f, tol %.2f)",
			dEmerg, frac(exact.EmergencyCycles, exact.Cycles), frac(sur.EmergencyCycles, sur.Cycles), surResidencyTol)
	}
	if dStress > surResidencyTol {
		t.Errorf("stress residency diverged by %.4f (exact=%.4f sur=%.4f, tol %.2f)",
			dStress, frac(exact.StressCycles, exact.Cycles), frac(sur.StressCycles, sur.Cycles), surResidencyTol)
	}
	if drift > surCycleDriftTol {
		t.Errorf("cycle count drifted by %.4f (exact=%d sur=%d, tol %.2f)",
			drift, exact.Cycles, sur.Cycles, surCycleDriftTol)
	}
	if exact.SurrogateCycles != 0 {
		t.Errorf("cycle-exact run reported %d surrogate cycles", exact.SurrogateCycles)
	}
}

// TestSurrogateEquivalenceWorkloads sweeps every benchmark in the suite
// under the PI policy and additionally requires the surrogate to engage
// for a meaningful share of the matrix in aggregate (the accuracy bounds
// alone would be satisfied trivially by never replaying).
func TestSurrogateEquivalenceWorkloads(t *testing.T) {
	nblk := numBlocks(t)
	var surCycles, totCycles atomic.Uint64
	t.Cleanup(func() { // runs after every parallel subtest has finished
		if t.Failed() {
			return
		}
		f := frac(surCycles.Load(), totCycles.Load())
		t.Logf("aggregate replay across matrix: %.1f%%", 100*f)
		// The floor is calibrated for the full matrix; the race-mode
		// subset deliberately over-samples refusal regimes.
		if f < surAggregateFloor && !raceDetector {
			t.Errorf("surrogate replayed only %.1f%% of the matrix (floor %.0f%%)",
				100*f, 100*surAggregateFloor)
		}
	})
	for _, b := range bench.Names() {
		b := b
		if surRaceWorkloads != nil && !surRaceWorkloads[b] {
			continue
		}
		t.Run(b, func(t *testing.T) {
			t.Parallel()
			exact, sur := runSurPair(t, b, "PI", hotInit(nblk, 112))
			compareSurPair(t, exact, sur)
			surCycles.Add(sur.SurrogateCycles)
			totCycles.Add(sur.Cycles)
		})
	}
}

// TestSurrogateSteadyStateEngagement pins the regime the surrogate exists
// for: a stationary workload with no DTM actuation must be replayed for
// the bulk of the run once calibration completes.
func TestSurrogateSteadyStateEngagement(t *testing.T) {
	nblk := numBlocks(t)
	cfg, err := bench.NewRun("gcc", "none", 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PipelineSurrogate = true
	hotInit(nblk, 104)(&cfg) // warm but clear of the stress band
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := frac(res.SurrogateCycles, res.Cycles); f < surSteadyFloor {
		t.Errorf("steady state replayed only %.1f%% of cycles (floor %.0f%%)", 100*f, 100*surSteadyFloor)
	} else {
		t.Logf("steady state replay: %.1f%%", 100*f)
	}
}

// TestSurrogateEquivalencePolicies sweeps every DTM policy on one hot
// benchmark. No engagement floor here: policies that actuate every
// sample (or stall the pipeline) legitimately limit replay.
func TestSurrogateEquivalencePolicies(t *testing.T) {
	nblk := numBlocks(t)
	for _, p := range bench.Policies() {
		p := p
		if surRacePolicies != nil && !surRacePolicies[p] {
			continue
		}
		t.Run(p, func(t *testing.T) {
			t.Parallel()
			exact, sur := runSurPair(t, "gcc", p, hotInit(nblk, 112))
			compareSurPair(t, exact, sur)
		})
	}
}

// TestSurrogateRejectsIneligibleConfigs pins the constructor validation:
// the surrogate requires the macro-stepped thermal fast path, so every
// configuration the fast path refuses (or auto-falls-back to Euler on)
// must be an explicit error, as must an explicit per-cycle stride.
func TestSurrogateRejectsIneligibleConfigs(t *testing.T) {
	base := func() sim.Config {
		cfg, err := bench.NewRun("gcc", "PI", 1000)
		if err != nil {
			t.Fatal(err)
		}
		cfg.PipelineSurrogate = true
		return cfg
	}
	cfg := base()
	cfg.ThermalStride = 1
	if _, err := sim.New(cfg); err == nil {
		t.Error("New accepted PipelineSurrogate with ThermalStride 1")
	}
	cfg = base()
	cfg.ProxyWindows = []int{100}
	if _, err := sim.New(cfg); err == nil {
		t.Error("New accepted PipelineSurrogate with power proxies")
	}
	cfg = base()
	cfg.CoupleChipSink = true
	if _, err := sim.New(cfg); err == nil {
		t.Error("New accepted PipelineSurrogate with CoupleChipSink")
	}
	cfg = base()
	if _, err := sim.New(cfg); err != nil {
		t.Errorf("New rejected an eligible surrogate config: %v", err)
	}
}

// TestSurrogateTraceShapeMatchesExact pins the trace cadence: replay
// windows clamp to trace boundaries, so both modes must record exactly
// the same sample cycles.
func TestSurrogateTraceShapeMatchesExact(t *testing.T) {
	nblk := numBlocks(t)
	exact, sur := runSurPair(t, "gcc", "PI", func(cfg *sim.Config) {
		hotInit(nblk, 112)(cfg)
		cfg.TraceStride = 777 // deliberately misaligned with the window
	})
	n := exact.TempTrace.Len()
	if sl := sur.TempTrace.Len(); sl < n {
		n = sl // cycle drift may add/remove trailing samples; cadence must match
	}
	if d := math.Abs(float64(exact.TempTrace.Len() - sur.TempTrace.Len())); d > 0.05*float64(exact.TempTrace.Len()) {
		t.Fatalf("trace length diverged: exact=%d sur=%d", exact.TempTrace.Len(), sur.TempTrace.Len())
	}
	for i := 0; i < n; i++ {
		if exact.TempTrace.Xs[i] != sur.TempTrace.Xs[i] {
			t.Fatalf("trace sample %d at cycle %d (exact) vs %d (surrogate)",
				i, exact.TempTrace.Xs[i], sur.TempTrace.Xs[i])
		}
	}
}
