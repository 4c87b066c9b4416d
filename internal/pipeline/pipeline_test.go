package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

func testProfile(seed uint64) workload.Profile {
	return workload.Profile{
		Name: "ptest",
		Seed: seed,
		Phases: []workload.Phase{{
			Insts:            1 << 20,
			Mix:              workload.Mix{IntALU: 40, Load: 18, Store: 9, Branch: 12, FPALU: 6, FPMult: 2, IntMult: 2, Call: 1},
			DepMean:          5,
			LoopIters:        40,
			BodySize:         48,
			NumLoops:         10,
			BranchRandomFrac: 0.15,
			BranchBias:       0.4,
			WorkingSet:       1 << 18,
			StreamFrac:       0.7,
		}},
	}
}

func newCore(t *testing.T, seed uint64) *Core {
	t.Helper()
	gen, err := workload.NewGenerator(testProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run advances the core until n instructions commit, returning cycles used.
func run(t *testing.T, c *Core, n uint64) uint64 {
	t.Helper()
	var act Activity
	for c.Stats().Committed < n {
		c.Step(&act)
		if c.Stats().Cycles > 200*n+100_000 {
			t.Fatalf("no forward progress: %+v", c.Stats())
		}
	}
	return c.Stats().Cycles
}

func TestConfigValidation(t *testing.T) {
	gen, _ := workload.NewGenerator(testProfile(1))
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.RUUSize = 0 },
		func(c *Config) { c.FrontEndDepth = 0 },
		func(c *Config) { c.MemPorts = 0 },
		func(c *Config) { c.LSQSize = c.RUUSize + 1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, gen); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestCommitsInstructionsWithSaneIPC(t *testing.T) {
	c := newCore(t, 42)
	cycles := run(t, c, 200_000)
	ipc := float64(200_000) / float64(cycles)
	if ipc < 0.3 || ipc > 4.0 {
		t.Errorf("IPC = %v, want in [0.3, 4]", ipc)
	}
}

func TestDeterministicExecution(t *testing.T) {
	c1 := newCore(t, 42)
	c2 := newCore(t, 42)
	run(t, c1, 100_000)
	run(t, c2, 100_000)
	s1, s2 := c1.Stats(), c2.Stats()
	if s1 != s2 {
		t.Errorf("non-deterministic stats:\n%+v\n%+v", s1, s2)
	}
}

func TestCommitOrderIsProgramOrder(t *testing.T) {
	c := newCore(t, 7)
	var lastSeq uint64
	first := true
	c.CommitHook = func(op *isa.MicroOp) {
		if !first && op.Seq != lastSeq+1 {
			t.Fatalf("commit order break: %d after %d", op.Seq, lastSeq)
		}
		lastSeq, first = op.Seq, false
	}
	run(t, c, 100_000)
}

func TestMispredictionsCauseSquashesAndWrongPath(t *testing.T) {
	c := newCore(t, 42)
	run(t, c, 150_000)
	s := c.Stats()
	if s.Squashes == 0 {
		t.Error("no squashes despite random branches")
	}
	if s.WrongPathOps == 0 {
		t.Error("no wrong-path ops fetched")
	}
	bp := c.BPredStats()
	if bp.CondMiss == 0 {
		t.Error("predictor reports zero mispredictions")
	}
	rate := bp.MispredictRate()
	if rate < 0.01 || rate > 0.5 {
		t.Errorf("mispredict rate = %v, want in [0.01, 0.5]", rate)
	}
}

func TestBranchEntropyControlsMispredictRate(t *testing.T) {
	rate := func(randomFrac float64) float64 {
		p := testProfile(9)
		p.Phases[0].BranchRandomFrac = randomFrac
		p.Phases[0].BranchBias = 0.5
		gen, _ := workload.NewGenerator(p)
		c, _ := New(DefaultConfig(), gen)
		var act Activity
		for c.Stats().Committed < 150_000 {
			c.Step(&act)
		}
		return c.BPredStats().MispredictRate()
	}
	predictable := rate(0)
	random := rate(0.9)
	if predictable > 0.25 {
		t.Errorf("mispredict rate on patterned workload = %v, want <= 0.25", predictable)
	}
	if random < predictable+0.05 {
		t.Errorf("random-branch rate %v not clearly above patterned %v", random, predictable)
	}
}

func TestFetchDutyZeroStopsCommits(t *testing.T) {
	c := newCore(t, 42)
	run(t, c, 10_000)
	c.SetFetchDuty(0)
	var act Activity
	// Drain the pipeline: at most RUU+IFQ instructions can still commit.
	before := c.Stats().Committed
	for i := 0; i < 5_000; i++ {
		c.Step(&act)
	}
	drained := c.Stats().Committed - before
	if drained > uint64(DefaultConfig().RUUSize+DefaultConfig().IFQSize) {
		t.Errorf("committed %d after gating fetch off; pipeline can hold at most %d",
			drained, DefaultConfig().RUUSize+DefaultConfig().IFQSize)
	}
	after := c.Stats().Committed
	for i := 0; i < 5_000; i++ {
		c.Step(&act)
	}
	if c.Stats().Committed != after {
		t.Error("instructions still committing long after fetch disabled")
	}
	if c.Stats().FetchGatedCy == 0 {
		t.Error("no gated cycles recorded")
	}
}

func TestFetchDutyHalvesThroughput(t *testing.T) {
	full := newCore(t, 42)
	cyclesFull := run(t, full, 150_000)

	half := newCore(t, 42)
	half.SetFetchDuty(0.5)
	cyclesHalf := run(t, half, 150_000)

	ratio := float64(cyclesHalf) / float64(cyclesFull)
	// Toggle2 costs at most 2x and, since the baseline rarely sustains
	// full fetch bandwidth, usually much less; it must cost something.
	if ratio < 1.02 || ratio > 2.5 {
		t.Errorf("duty-0.5 cycle ratio = %v, want in (1.02, 2.5)", ratio)
	}
}

func TestFetchDutyClamped(t *testing.T) {
	c := newCore(t, 1)
	c.SetFetchDuty(-0.5)
	if c.FetchDuty() != 0 {
		t.Errorf("duty = %v, want clamped 0", c.FetchDuty())
	}
	c.SetFetchDuty(2)
	if c.FetchDuty() != 1 {
		t.Errorf("duty = %v, want clamped 1", c.FetchDuty())
	}
}

func TestFetchThrottlingReducesFetchRate(t *testing.T) {
	c := newCore(t, 42)
	c.SetFetchLimit(1)
	run(t, c, 50_000)
	s := c.Stats()
	perCycle := float64(s.Fetched) / float64(s.Cycles)
	if perCycle > 1.01 {
		t.Errorf("fetched/cycle = %v with limit 1", perCycle)
	}
}

func TestSpeculationControlStallsFetch(t *testing.T) {
	c := newCore(t, 42)
	c.SetMaxUnresolvedBranches(1)
	run(t, c, 50_000)
	if c.Stats().SpecStallCy == 0 {
		t.Error("speculation control never stalled fetch")
	}
	// And it must actually bound in-flight branches most of the time;
	// sample the observable.
	if c.UnresolvedBranches() > 12 {
		t.Errorf("unresolved branches = %d, improbably high under control", c.UnresolvedBranches())
	}
}

func TestActivityCountsAreConsistent(t *testing.T) {
	c := newCore(t, 42)
	var act Activity
	var totIns, totCommit, totDC uint64
	for c.Stats().Committed < 100_000 {
		c.Step(&act)
		totIns += uint64(act.WindowInserts)
		totCommit += uint64(act.Commits)
		totDC += uint64(act.DCacheAccess)
		if act.Commits > DefaultConfig().CommitWidth {
			t.Fatalf("committed %d > width", act.Commits)
		}
		if act.Fetched > DefaultConfig().FetchWidth {
			t.Fatalf("fetched %d > width", act.Fetched)
		}
		if act.RUUOccupancy > DefaultConfig().RUUSize || act.LSQOccupancy > DefaultConfig().LSQSize {
			t.Fatalf("occupancy out of range: %+v", act)
		}
	}
	if totIns < totCommit {
		t.Errorf("window inserts %d < commits %d", totIns, totCommit)
	}
	if totDC == 0 {
		t.Error("no D-cache activity")
	}
	il1, dl1, l2 := c.CacheStats()
	if il1.Accesses == 0 || dl1.Accesses == 0 {
		t.Error("cache hierarchy unused")
	}
	if l2.Accesses == 0 {
		t.Error("L2 never accessed — misses not propagating")
	}
}

func TestStatsIPCZeroCycles(t *testing.T) {
	if (Stats{}).IPC() != 0 {
		t.Error("IPC of zero-cycle stats != 0")
	}
}

// Large code footprints must pressure the I-cache.
func TestICachePressureFromLargeCode(t *testing.T) {
	small := testProfile(3)
	big := testProfile(3)
	big.Phases[0].NumLoops = 400 // 400*48*4 ~ 77KB > 64KB L1I
	big.Phases[0].LoopIters = 2  // revisit loops rarely

	genS, _ := workload.NewGenerator(small)
	genB, _ := workload.NewGenerator(big)
	cs, _ := New(DefaultConfig(), genS)
	cb, _ := New(DefaultConfig(), genB)
	var act Activity
	for cs.Stats().Committed < 100_000 {
		cs.Step(&act)
	}
	for cb.Stats().Committed < 100_000 {
		cb.Step(&act)
	}
	il1S, _, _ := cs.CacheStats()
	il1B, _, _ := cb.CacheStats()
	if il1B.MissRate() <= il1S.MissRate() {
		t.Errorf("big-code il1 miss rate %v <= small-code %v",
			il1B.MissRate(), il1S.MissRate())
	}
}

// Larger data working sets must raise the D-cache miss rate.
func TestDCacheMissesScaleWithWorkingSet(t *testing.T) {
	small := testProfile(5)
	small.Phases[0].WorkingSet = 16 << 10
	small.Phases[0].StreamFrac = 0
	big := testProfile(5)
	big.Phases[0].WorkingSet = 8 << 20
	big.Phases[0].StreamFrac = 0

	genS, _ := workload.NewGenerator(small)
	genB, _ := workload.NewGenerator(big)
	cs, _ := New(DefaultConfig(), genS)
	cb, _ := New(DefaultConfig(), genB)
	var act Activity
	for cs.Stats().Committed < 100_000 {
		cs.Step(&act)
	}
	for cb.Stats().Committed < 100_000 {
		cb.Step(&act)
	}
	_, dl1S, _ := cs.CacheStats()
	_, dl1B, _ := cb.CacheStats()
	if dl1B.MissRate() <= dl1S.MissRate()+0.01 {
		t.Errorf("8MB working set miss rate %v not above 16KB %v",
			dl1B.MissRate(), dl1S.MissRate())
	}
	// And the big working set must cost cycles.
	if cb.Stats().Cycles <= cs.Stats().Cycles {
		t.Error("cache misses did not cost cycles")
	}
}

// Lower ILP (short dependence distances) must reduce IPC. Use an ALU-only
// workload so the dependence chain is the only bottleneck.
func TestDependenceDistanceControlsILP(t *testing.T) {
	aluProfile := func(dep float64) workload.Profile {
		return workload.Profile{
			Name: "alu",
			Seed: 11,
			Phases: []workload.Phase{{
				Insts:      1 << 20,
				Mix:        workload.Mix{IntALU: 100},
				DepMean:    dep,
				LoopIters:  200,
				BodySize:   64,
				NumLoops:   2,
				WorkingSet: 4096,
			}},
		}
	}
	ipc := func(dep float64) float64 {
		gen, _ := workload.NewGenerator(aluProfile(dep))
		c, _ := New(DefaultConfig(), gen)
		var act Activity
		for c.Stats().Committed < 100_000 {
			c.Step(&act)
		}
		return c.Stats().IPC()
	}
	serial := ipc(1.05)
	parallel := ipc(16)
	// Within one iteration the chain is fully serial, but chains of
	// consecutive loop iterations overlap (each iteration's head depends
	// on an op ~half a body earlier), so the steady state is ~2, not 1.
	if serial > 2.2 {
		t.Errorf("serial-chain IPC = %v, want ~2 or less", serial)
	}
	if parallel < serial*1.3 {
		t.Errorf("parallel IPC %v not clearly above serial %v", parallel, serial)
	}
}

func mustGen(t *testing.T, seed uint64) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(testProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPerfectBPredEliminatesSquashes(t *testing.T) {
	// Compare with PerfectDCache on both sides: synthesized wrong-path
	// loads share the correct path's address distribution, so on a real
	// cache the wrong path acts as an unrealistically effective
	// prefetcher and can mask the branch-timing benefit.
	mk := func(perfectBP bool) *Core {
		cfg := DefaultConfig()
		cfg.PerfectBPred = perfectBP
		cfg.PerfectDCache = true
		gen, _ := workload.NewGenerator(testProfile(42))
		c, _ := New(cfg, gen)
		return c
	}
	perfect, real := mk(true), mk(false)
	var act Activity
	for perfect.Stats().Committed < 100_000 {
		perfect.Step(&act)
	}
	for real.Stats().Committed < 100_000 {
		real.Step(&act)
	}
	s := perfect.Stats()
	if s.Squashes != 0 || s.WrongPathOps != 0 {
		t.Errorf("perfect bpred: squashes=%d wrongpath=%d", s.Squashes, s.WrongPathOps)
	}
	if perfect.Stats().IPC() <= real.Stats().IPC() {
		t.Errorf("perfect bpred IPC %.3f not above real %.3f",
			perfect.Stats().IPC(), real.Stats().IPC())
	}
}

func TestPerfectDCacheRemovesMemoryStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerfectDCache = true
	p := testProfile(5)
	p.Phases[0].WorkingSet = 8 << 20 // would thrash a real cache
	p.Phases[0].StreamFrac = 0
	gen, _ := workload.NewGenerator(p)
	perfect, _ := New(cfg, gen)
	var act Activity
	for perfect.Stats().Committed < 100_000 {
		perfect.Step(&act)
	}
	genR, _ := workload.NewGenerator(p)
	real, _ := New(DefaultConfig(), genR)
	for real.Stats().Committed < 100_000 {
		real.Step(&act)
	}
	if perfect.Stats().IPC() <= real.Stats().IPC() {
		t.Errorf("perfect dcache IPC %.3f not above real %.3f",
			perfect.Stats().IPC(), real.Stats().IPC())
	}
}
