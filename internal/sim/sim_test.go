package sim

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/workload"
)

// hotProfile is a compact workload that heats several blocks past the
// emergency threshold quickly (high ILP, predictable branches).
func hotProfile() workload.Profile {
	return workload.Profile{
		Name: "hot",
		Seed: 77,
		Phases: []workload.Phase{{
			Insts:            1 << 20,
			Mix:              workload.Mix{IntALU: 42, IntMult: 2, Load: 22, Store: 10, Branch: 14, Call: 1},
			DepMean:          10,
			LoopIters:        90,
			BodySize:         64,
			NumLoops:         20,
			BranchRandomFrac: 0.04,
			BranchBias:       0.6,
			WorkingSet:       96 << 10,
			StreamFrac:       0.8,
		}},
	}
}

func coldProfile() workload.Profile {
	p := hotProfile()
	p.Name = "cold"
	p.Phases[0].DepMean = 1.5
	p.Phases[0].BranchRandomFrac = 0.5
	p.Phases[0].WorkingSet = 8 << 20
	p.Phases[0].StreamFrac = 0.1
	return p
}

const testInsts = 600_000

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The hotProfile runs at testInsts that several tests compare against,
// uncontrolled and under PI at 111.1 °C. Each is simulated once per test
// binary; callers only read them.
var (
	hotBaseRun = sync.OnceValues(func() (*Result, error) {
		return Run(Config{Workload: hotProfile(), MaxInsts: testInsts})
	})
	hotPIRun = sync.OnceValues(func() (*Result, error) {
		return Run(Config{Workload: hotProfile(), MaxInsts: testInsts, Manager: newPIManager(111.1)})
	})
)

// shared returns one of the shared runs above.
func shared(t *testing.T, run func() (*Result, error)) *Result {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// raceBudget returns full, or short under the race detector (see
// race_test.go).
func raceBudget(full, short uint64) uint64 {
	if RaceDetector {
		return short
	}
	return full
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Workload: hotProfile()}); err == nil {
		t.Error("zero MaxInsts accepted")
	}
	bad := hotProfile()
	bad.Phases = nil
	if _, err := Run(Config{Workload: bad, MaxInsts: 1000}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestUncontrolledHotRunEntersEmergency(t *testing.T) {
	res := shared(t, hotBaseRun)
	if res.EmergencyCycles == 0 {
		t.Fatal("hot profile never entered emergency")
	}
	if res.StressCycles < res.EmergencyCycles {
		t.Error("stress cycles < emergency cycles")
	}
	if res.IPC <= 0.5 || res.IPC > 4 {
		t.Errorf("IPC = %v", res.IPC)
	}
	if res.AvgChipPower < 20 || res.AvgChipPower > 77 {
		t.Errorf("avg chip power = %v W", res.AvgChipPower)
	}
	if res.Policy != "none" || res.Benchmark != "hot" {
		t.Errorf("labels = %q/%q", res.Benchmark, res.Policy)
	}
	// Block results populated and self-consistent.
	if len(res.Blocks) != int(floorplan.NumBlocks) {
		t.Fatalf("blocks = %d", len(res.Blocks))
	}
	for _, b := range res.Blocks {
		if b.MaxTemp < b.AvgTemp {
			t.Errorf("%s max < avg temp", b.Name)
		}
		if b.AvgTemp < 100 {
			t.Errorf("%s avg temp below sink", b.Name)
		}
	}
}

func TestColdRunStaysCool(t *testing.T) {
	res := run(t, Config{Workload: coldProfile(), MaxInsts: raceBudget(testInsts, 100_000)})
	if res.EmergencyCycles != 0 {
		t.Errorf("cold profile hit emergency %d cycles", res.EmergencyCycles)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{Workload: hotProfile(), MaxInsts: 200_000}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Cycles != b.Cycles || a.IPC != b.IPC ||
		a.EmergencyCycles != b.EmergencyCycles ||
		math.Abs(a.AvgChipPower-b.AvgChipPower) > 1e-12 {
		t.Errorf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

func newPIManager(setpoint float64) *dtm.Manager {
	plant := control.Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
	g := control.MustTune(plant, control.Spec{Kind: control.KindPI})
	ctl := control.NewPID(g, setpoint, 0.2, 667e-9)
	return dtm.NewManager(dtm.NewCT(control.KindPI, ctl))
}

func TestPIControlEliminatesEmergencies(t *testing.T) {
	base := shared(t, hotBaseRun)
	ctl := shared(t, hotPIRun)
	if base.EmergencyCycles == 0 {
		t.Fatal("baseline must have emergencies for this test")
	}
	if ctl.EmergencyCycles != 0 {
		t.Errorf("PI left %d emergency cycles (%.2f%%)",
			ctl.EmergencyCycles, 100*ctl.EmergencyFrac())
	}
	if ctl.Policy != "PI" {
		t.Errorf("policy label = %q", ctl.Policy)
	}
	if ctl.AvgDuty >= 1 {
		t.Error("controller never throttled")
	}
	if ctl.Engagements == 0 {
		t.Error("no engagements recorded")
	}
	// Performance: retained IPC must exceed a crude toggle1-like bound.
	if ctl.IPC < 0.75*base.IPC {
		t.Errorf("PI retained only %.1f%% of baseline IPC", 100*ctl.IPC/base.IPC)
	}
}

func TestToggle1EliminatesEmergenciesWithMoreLoss(t *testing.T) {
	tg := dtm.NewManager(dtm.NewToggle1(110.3, 5))
	res := run(t, Config{Workload: hotProfile(), MaxInsts: testInsts, Manager: tg})
	if res.EmergencyCycles != 0 {
		t.Errorf("toggle1 left %d emergency cycles", res.EmergencyCycles)
	}
	pi := shared(t, hotPIRun)
	if pi.IPC <= res.IPC {
		t.Errorf("PI IPC %.3f not above toggle1 %.3f", pi.IPC, res.IPC)
	}
}

func TestInterruptMechanismCostsStalls(t *testing.T) {
	mgr := dtm.NewManager(dtm.NewToggle1(110.3, 5))
	mgr.Mechanism = dtm.Interrupt
	res := run(t, Config{Workload: hotProfile(), MaxInsts: testInsts, Manager: mgr})
	if res.StallCycles == 0 {
		t.Error("interrupt mechanism recorded no stalls")
	}
	if res.EmergencyCycles != 0 {
		t.Errorf("emergencies with interrupt mechanism: %d", res.EmergencyCycles)
	}
}

func TestFrequencyScalingCoolsChip(t *testing.T) {
	sc := dtm.NewFreqScaling(110.3, 0.5, 5)
	res := run(t, Config{Workload: hotProfile(), MaxInsts: testInsts, Scaling: sc})
	if res.EmergencyCycles != 0 {
		t.Errorf("frequency scaling left %d emergency cycles", res.EmergencyCycles)
	}
	if res.Policy != "fscale" {
		t.Errorf("policy = %q", res.Policy)
	}
	if res.StallCycles == 0 {
		t.Error("no resync stalls recorded")
	}
	// Wall time must exceed the pure cycle count / f because of scaling.
	if res.WallSeconds <= float64(res.Cycles)/1.5e9 {
		t.Error("wall time does not reflect slowed clock")
	}
	if res.InstsPerSecond() <= 0 {
		t.Error("InstsPerSecond not positive")
	}
}

func TestProxyComparisonRuns(t *testing.T) {
	res := run(t, Config{
		Workload:     hotProfile(),
		MaxInsts:     testInsts,
		ProxyWindows: []int{10_000, 500_000},
	})
	if len(res.Proxies) != 2 {
		t.Fatalf("proxies = %d", len(res.Proxies))
	}
	for _, p := range res.Proxies {
		if p.PerStruct.Cycles != res.Cycles || p.ChipWide.Cycles != res.Cycles {
			t.Errorf("window %d: comparison cycles mismatch", p.Window)
		}
		if p.PerStruct.TrueEmergency != res.EmergencyCycles {
			t.Errorf("window %d: true emergencies mismatch", p.Window)
		}
	}
	// The long window must miss more true-emergency cycles than the
	// short window (the Section 6 result).
	short, long := res.Proxies[0], res.Proxies[1]
	if long.PerStruct.Missed < short.PerStruct.Missed {
		t.Errorf("500K window missed %d < 10K window %d",
			long.PerStruct.Missed, short.PerStruct.Missed)
	}
}

func TestTraceRecording(t *testing.T) {
	res := run(t, Config{
		Workload:    hotProfile(),
		MaxInsts:    100_000,
		TraceStride: 1000,
	})
	if res.TempTrace == nil || res.TempTrace.Len() == 0 {
		t.Fatal("no temperature trace")
	}
	if res.DutyTrace.Len() != res.TempTrace.Len() {
		t.Error("trace lengths differ")
	}
	if len(res.BlockTrace) != len(res.Blocks) {
		t.Error("missing per-block traces")
	}
	if slices.Max(res.TempTrace.Ys) <= 100 {
		t.Error("temperature trace never above sink")
	}
}

func TestInitTempsRespected(t *testing.T) {
	init := make([]float64, floorplan.NumBlocks)
	for i := range init {
		init[i] = 108
	}
	res := run(t, Config{
		Workload:  coldProfile(),
		MaxInsts:  50_000,
		InitTemps: init,
	})
	// Starting at 108 the max temperature must reflect the warm start.
	for _, b := range res.Blocks {
		if b.MaxTemp < 104 {
			t.Errorf("%s max temp %v ignores 108 C init", b.Name, b.MaxTemp)
		}
	}
}

func TestMaxCyclesBoundsRun(t *testing.T) {
	res := run(t, Config{
		Workload:  hotProfile(),
		MaxInsts:  1 << 40, // unreachable
		MaxCycles: 10_000,
	})
	if res.Cycles != 10_000 {
		t.Errorf("cycles = %d, want exactly the bound", res.Cycles)
	}
}

// The default MaxCycles (50 per instruction) saturates instead of
// wrapping. At ceil(2^64/50) instructions the product wrapped to 34, so
// the run stopped after 34 cycles with nothing committed and no error.
func TestDefaultMaxCyclesSaturates(t *testing.T) {
	for _, tc := range []struct{ insts, want uint64 }{
		{math.MaxUint64 / 50, math.MaxUint64 / 50 * 50},
		{math.MaxUint64/50 + 1, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64},
	} {
		s, err := New(Config{Workload: hotProfile(), MaxInsts: tc.insts})
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.MaxCycles != tc.want {
			t.Errorf("Config MaxInsts %d: default MaxCycles = %d, want %d", tc.insts, s.cfg.MaxCycles, tc.want)
		}
		mc, err := NewMulticore(MulticoreConfig{Workloads: []workload.Profile{hotProfile()}, MaxInsts: tc.insts})
		if err != nil {
			t.Fatal(err)
		}
		if mc.cfg.MaxCycles != tc.want {
			t.Errorf("MulticoreConfig MaxInsts %d: default MaxCycles = %d, want %d", tc.insts, mc.cfg.MaxCycles, tc.want)
		}
	}
}

func TestResultFractions(t *testing.T) {
	r := Result{Cycles: 100, EmergencyCycles: 25, StressCycles: 50}
	if r.EmergencyFrac() != 0.25 || r.StressFrac() != 0.5 {
		t.Errorf("fracs = %v/%v", r.EmergencyFrac(), r.StressFrac())
	}
	var empty Result
	if empty.EmergencyFrac() != 0 || empty.StressFrac() != 0 || empty.InstsPerSecond() != 0 {
		t.Error("empty result fractions not zero")
	}
}

// Tangential coupling must not change the qualitative outcome (Figure 3C
// justification).
func TestTangentialSecondOrderAtSystemLevel(t *testing.T) {
	plain := run(t, Config{Workload: hotProfile(), MaxInsts: 200_000})
	tang := run(t, Config{Workload: hotProfile(), MaxInsts: 200_000, Tangential: true})
	for i := range plain.Blocks {
		d := math.Abs(plain.Blocks[i].MaxTemp - tang.Blocks[i].MaxTemp)
		if d > 0.6 {
			t.Errorf("%s: tangential shifted max temp by %v C", plain.Blocks[i].Name, d)
		}
	}
}

// A miscalibrated sensor reading low lets the true temperature sail past
// the threshold the policy believes it is enforcing — the hazard behind
// the paper's "sensor modeling is future work" caveat.
func TestSensorOffsetShiftsControlPoint(t *testing.T) {
	mkCfg := func(offset float64) Config {
		return Config{
			Workload: hotProfile(),
			MaxInsts: testInsts,
			Manager:  newPIManager(111.1),
			Sensor:   sensor.Sensor{Offset: offset},
		}
	}
	ideal := shared(t, hotPIRun) // an ideal sensor is the default
	low := run(t, mkCfg(-0.8))   // sensor reads 0.8 C cold
	if ideal.EmergencyCycles != 0 {
		t.Fatalf("ideal sensor run has %d emergencies", ideal.EmergencyCycles)
	}
	if low.EmergencyCycles == 0 {
		t.Error("cold-reading sensor should let true temperature enter emergency")
	}
	// A conservative (hot-reading) sensor must stay safe.
	high := run(t, mkCfg(+0.5))
	if high.EmergencyCycles != 0 {
		t.Errorf("hot-reading sensor run has %d emergencies", high.EmergencyCycles)
	}
}

// The constant-heatsink assumption (Section 4.3): over a millisecond-scale
// run the package node drifts by millikelvins.
func TestChipSinkDriftNegligibleOverShortRuns(t *testing.T) {
	res := run(t, Config{
		Workload:       hotProfile(),
		MaxInsts:       testInsts,
		CoupleChipSink: true,
	})
	if res.SinkDrift == 0 {
		t.Fatal("coupled run reports zero drift; coupling inactive?")
	}
	if d := math.Abs(res.SinkDrift); d > 0.05 {
		t.Errorf("heatsink drifted %v C over a short run; paper assumption violated", d)
	}
}

// Fetch throttling and speculation control must work end to end as DTM
// policies (the extension mechanisms of Section 2.1).
func TestThrottleAndSpecControlPolicies(t *testing.T) {
	base := shared(t, hotBaseRun)
	for _, mk := range []func() *dtm.Manager{
		func() *dtm.Manager { return dtm.NewManager(dtm.NewThrottle(110.3, 1, 5)) },
		func() *dtm.Manager { return dtm.NewManager(dtm.NewSpecControl(110.3, 1, 5)) },
	} {
		mgr := mk()
		res := run(t, Config{Workload: hotProfile(), MaxInsts: testInsts, Manager: mgr})
		if res.EmergencyFrac() > 0.05 {
			t.Errorf("%s left %.1f%% emergency cycles", mgr.Policy.Name(), 100*res.EmergencyFrac())
		}
		if res.IPC >= base.IPC {
			t.Errorf("%s cost no performance (%.3f vs %.3f): not engaging?",
				mgr.Policy.Name(), res.IPC, base.IPC)
		}
	}
}

// Limited sensor placement (Section 4.2's caveat): monitoring only a block
// that is not the workload's hot spot lets emergencies escape the policy,
// while full coverage catches them.
func TestLimitedSensorPlacementMissesHotspots(t *testing.T) {
	// hotProfile's hottest blocks are intexec/bpred; monitor only the
	// FP unit, which this integer workload leaves idle.
	blind := run(t, Config{
		Workload:        hotProfile(),
		MaxInsts:        testInsts,
		Manager:         newPIManager(111.1),
		MonitoredBlocks: []floorplan.BlockID{floorplan.FPExec},
	})
	if blind.EmergencyCycles == 0 {
		t.Error("policy with a misplaced sensor still prevented emergencies")
	}
	full := shared(t, hotPIRun)
	if full.EmergencyCycles != 0 {
		t.Errorf("full sensor coverage left %d emergencies", full.EmergencyCycles)
	}
	// Monitoring the actual hot spots is as good as full coverage here.
	spot := run(t, Config{
		Workload:        hotProfile(),
		MaxInsts:        testInsts,
		Manager:         newPIManager(111.1),
		MonitoredBlocks: []floorplan.BlockID{floorplan.IntExec, floorplan.BPred},
	})
	if spot.EmergencyCycles != 0 {
		t.Errorf("hot-spot sensors left %d emergencies", spot.EmergencyCycles)
	}
}

func TestMonitoredBlocksValidated(t *testing.T) {
	_, err := Run(Config{
		Workload:        hotProfile(),
		MaxInsts:        1000,
		Manager:         newPIManager(111.1),
		MonitoredBlocks: []floorplan.BlockID{floorplan.Chip},
	})
	if err == nil {
		t.Error("chip node accepted as a per-structure sensor")
	}
}

// The hierarchical deployment of Section 2.1: a deliberately weak primary
// (toggle at 0.9 duty) cannot contain the hot workload, so the scaling
// backup must escalate; together they eliminate almost all emergencies.
func TestHierarchyEscalatesWhenPrimaryFails(t *testing.T) {
	// Duty 0.97 quantizes to full speed: the primary is effectively
	// inert, forcing escalation.
	weak := &dtm.Toggle{Trigger: 110.3, EngagedDuty: 0.97, PolicyDelay: 5}
	h := dtm.NewHierarchy(weak, dtm.NewVoltageScaling(111.2, 0.5, 10), 111.2)
	res := run(t, Config{Workload: hotProfile(), MaxInsts: testInsts, Hierarchy: h})
	if h.Escalations() == 0 {
		t.Fatal("backup never escalated despite weak primary")
	}
	base := shared(t, hotBaseRun)
	if res.EmergencyFrac() >= base.EmergencyFrac()/4 {
		t.Errorf("hierarchy emergency %.2f%% vs base %.2f%% — backup ineffective",
			100*res.EmergencyFrac(), 100*base.EmergencyFrac())
	}
	if res.StallCycles == 0 {
		t.Error("no resync stalls from escalations")
	}
	if res.Policy == "none" {
		t.Error("policy label missing")
	}
}

func TestHierarchyExclusiveWithManager(t *testing.T) {
	h := dtm.NewHierarchy(dtm.NewToggle1(110.3, 1), dtm.NewFreqScaling(111.2, 0.5, 1), 111.2)
	_, err := Run(Config{
		Workload:  hotProfile(),
		MaxInsts:  1000,
		Hierarchy: h,
		Manager:   newPIManager(111.1),
	})
	if err == nil {
		t.Error("Hierarchy+Manager accepted")
	}
}

// Leakage feedback (extension): temperature-dependent static power makes
// the uncontrolled run hotter, and the PI controller absorbs the extra
// heat without being retuned — the robustness the paper claims for
// feedback control.
func TestLeakageFeedback(t *testing.T) {
	noLeak := shared(t, hotBaseRun)
	leak := run(t, Config{
		Workload: hotProfile(),
		MaxInsts: testInsts,
		Leakage:  power.DefaultLeakage(),
	})
	if leak.EmergencyCycles <= noLeak.EmergencyCycles {
		t.Errorf("leakage did not worsen emergencies: %d vs %d",
			leak.EmergencyCycles, noLeak.EmergencyCycles)
	}
	if leak.AvgChipPower <= noLeak.AvgChipPower {
		t.Error("leakage did not raise chip power")
	}
	ctl := run(t, Config{
		Workload: hotProfile(),
		MaxInsts: testInsts,
		Leakage:  power.DefaultLeakage(),
		Manager:  newPIManager(111.1),
	})
	if ctl.EmergencyCycles != 0 {
		t.Errorf("PI with leakage left %d emergency cycles", ctl.EmergencyCycles)
	}
	if ctl.AvgDuty >= leak.AvgDuty {
		t.Error("controller did not throttle harder to pay the leakage tax")
	}
}

func TestLeakageValidatedAtRunStart(t *testing.T) {
	_, err := Run(Config{
		Workload: hotProfile(),
		MaxInsts: 1000,
		Leakage:  &power.LeakageModel{Frac0: -1, DoubleEveryK: 5},
	})
	if err == nil {
		t.Error("invalid leakage model accepted")
	}
}

// A non-positive proxy window is a config error like any other: New
// returns it instead of panicking while building the proxy ring.
func TestProxyWindowValidated(t *testing.T) {
	for _, w := range []int{0, -1} {
		cfg := Config{Workload: hotProfile(), MaxInsts: 1000, ProxyWindows: []int{10, w}}
		if _, err := New(cfg); err == nil {
			t.Errorf("proxy window %d accepted", w)
		}
	}
}

func TestInitTempsLengthValidated(t *testing.T) {
	nblk := len(floorplan.Default())
	for _, n := range []int{1, nblk - 1, nblk + 1, 4 * nblk} {
		cfg := Config{Workload: hotProfile(), MaxInsts: 1000, InitTemps: make([]float64, n)}
		if _, err := Run(cfg); err == nil {
			t.Errorf("InitTemps of length %d accepted for %d blocks", n, nblk)
		}
	}
	// The exact length still works and is honored.
	init := make([]float64, nblk)
	for i := range init {
		init[i] = 105
	}
	cfg := Config{Workload: hotProfile(), MaxInsts: 100, MaxCycles: 100, InitTemps: init}
	res := run(t, cfg)
	for _, b := range res.Blocks {
		if b.MaxTemp < 104 {
			t.Fatalf("block %s never saw its 105 C initial temperature (max %v)", b.Name, b.MaxTemp)
		}
	}
}

// TestThermalTimeTracksWallUnderScaling is the regression test for the
// frequency-scaling drift bug: rounding the per-cycle thermal step count
// used to advance thermal time by 1 unit step per cycle at freqFactor
// 0.75 while wall time advanced 1.333 cycle times, a 25% systematic
// divergence. With the fractional-step carry, integrated thermal time
// must match wall time to within one cycle time over a 1M-cycle run.
func TestThermalTimeTracksWallUnderScaling(t *testing.T) {
	const cycles = 1_000_000
	cfg := Config{
		Workload:  hotProfile(),
		MaxInsts:  1 << 40, // never reached: MaxCycles is the budget
		MaxCycles: cycles,
		// Trigger at 0 C: scaling engages at the first sample and
		// stays engaged, so freqFactor is 0.75 for ~all cycles.
		Scaling: dtm.NewFreqScaling(0, 0.75, 1<<30),
	}
	res := run(t, cfg)
	if res.Cycles != cycles {
		t.Fatalf("ran %d cycles, want %d", res.Cycles, cycles)
	}
	dt := 1.0 / 1.5e9
	// Sanity: scaling really was engaged (wall time well beyond the
	// unscaled cycles*dt).
	if res.WallSeconds < float64(cycles)*dt*1.2 {
		t.Fatalf("scaling never engaged: wall %v vs unscaled %v", res.WallSeconds, float64(cycles)*dt)
	}
	drift := math.Abs(res.WallSeconds - res.ThermalSeconds)
	// The carry bounds the drift by one cycle time; the 0.1% headroom
	// covers float summation noise across the two 1M-term time sums.
	if drift > dt*1.001 {
		t.Errorf("thermal time drifted %.3g s from wall time (%.3g cycle times); want <= 1 cycle",
			drift, drift/dt)
	}
}

func TestThermalTimeEqualsWallUnscaled(t *testing.T) {
	res := run(t, Config{Workload: hotProfile(), MaxInsts: 50_000})
	if res.ThermalSeconds != res.WallSeconds {
		t.Errorf("unscaled run: thermal %v != wall %v", res.ThermalSeconds, res.WallSeconds)
	}
}
