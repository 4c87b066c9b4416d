package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func testProfile() Profile {
	return Profile{
		Name: "test",
		Seed: 42,
		Phases: []Phase{{
			Insts:            200_000,
			Mix:              Mix{IntALU: 40, Load: 20, Store: 10, Branch: 12, FPALU: 5, Call: 1},
			DepMean:          4,
			LoopIters:        50,
			BodySize:         40,
			NumLoops:         8,
			BranchRandomFrac: 0.2,
			BranchBias:       0.5,
			WorkingSet:       1 << 16,
			StreamFrac:       0.6,
		}},
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	good := testProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	mutate := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases[0].Insts = 0 },
		func(p *Profile) { p.Phases[0].Mix = Mix{} },
		func(p *Profile) { p.Phases[0].BodySize = 2 },
		func(p *Profile) { p.Phases[0].NumLoops = 0 },
		func(p *Profile) { p.Phases[0].LoopIters = 0 },
		func(p *Profile) { p.Phases[0].DepMean = 0.5 },
		func(p *Profile) { p.Phases[0].BranchRandomFrac = 1.5 },
		func(p *Profile) { p.Phases[0].WorkingSet = 0 },
	}
	for i, m := range mutate {
		p := testProfile()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: invalid profile accepted", i)
		}
		if _, err := NewGenerator(p); err == nil {
			t.Errorf("mutation %d: NewGenerator accepted invalid profile", i)
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	g1, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testProfile())
	for i := 0; i < 50_000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	p2 := testProfile()
	p2.Seed = 43
	g1, _ := NewGenerator(testProfile())
	g2, _ := NewGenerator(p2)
	same := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if g1.Next().Class == g2.Next().Class {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical class streams")
	}
}

func TestMixApproximatelyRealized(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	counts := make(map[isa.OpClass]int)
	const n = 300_000
	for i := 0; i < n; i++ {
		counts[g.Next().Class]++
	}
	frac := func(c isa.OpClass) float64 { return float64(counts[c]) / n }
	// Loads requested at 20/88 ~ 0.227 of sampled slots; loop-end
	// branches, returns and skipped slots perturb this, so use wide
	// bounds — the mix must be *recognizable*, not exact.
	if f := frac(isa.OpLoad); f < 0.10 || f > 0.35 {
		t.Errorf("load fraction = %v, want ~0.15-0.30", f)
	}
	if f := frac(isa.OpIntALU); f < 0.25 || f > 0.60 {
		t.Errorf("intalu fraction = %v", f)
	}
	if f := frac(isa.OpBranch); f < 0.05 || f > 0.30 {
		t.Errorf("branch fraction = %v", f)
	}
	if counts[isa.OpCall] == 0 || counts[isa.OpReturn] == 0 {
		t.Error("no calls or returns generated")
	}
	if counts[isa.OpCall] != counts[isa.OpReturn] {
		// Allow an in-flight call at the cut.
		if d := counts[isa.OpCall] - counts[isa.OpReturn]; d < 0 || d > 1 {
			t.Errorf("calls %d vs returns %d", counts[isa.OpCall], counts[isa.OpReturn])
		}
	}
}

func TestControlFlowConsistency(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	var prev isa.MicroOp
	havePrev := false
	teleports := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		op := g.Next()
		if havePrev {
			if prev.NextPC() != op.PC {
				teleports++
			}
		}
		if op.Class.IsCtrl() && op.Class != isa.OpBranch && !op.Taken {
			t.Fatalf("unconditional control not taken: %+v", op)
		}
		if op.Class == isa.OpBranch && op.Taken && op.Target == 0 {
			t.Fatalf("taken branch without target: %+v", op)
		}
		prev, havePrev = op, true
	}
	// Teleports happen only at loop-set wrap and phase switches — rare.
	if teleports > n/1000 {
		t.Errorf("%d control-flow teleports in %d ops", teleports, n)
	}
}

func TestReturnsMatchCallSites(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	var callRet []uint64
	for i := 0; i < 200_000; i++ {
		op := g.Next()
		if op.Class == isa.OpCall {
			callRet = append(callRet, op.PC+4)
		}
		if op.Class == isa.OpReturn {
			if len(callRet) == 0 {
				t.Fatal("return without call")
			}
			want := callRet[len(callRet)-1]
			callRet = callRet[:len(callRet)-1]
			if op.Target != want {
				t.Fatalf("return to %#x, want %#x", op.Target, want)
			}
		}
	}
}

func TestMemoryAddressesWithinWorkingSet(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	ws := testProfile().Phases[0].WorkingSet
	for i := 0; i < 100_000; i++ {
		op := g.Next()
		if op.Class.IsMem() {
			if op.Addr < dataBase || op.Addr >= dataBase+0x0800_0000 {
				t.Fatalf("address %#x outside data region", op.Addr)
			}
			off := op.Addr - dataBase
			if off >= ws+4096*uint64(testProfile().Phases[0].BodySize) {
				t.Fatalf("address offset %#x far outside working set %#x", off, ws)
			}
		}
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	for i := uint64(0); i < 10_000; i++ {
		if op := g.Next(); op.Seq != i {
			t.Fatalf("seq = %d at position %d", op.Seq, i)
		}
	}
}

func TestWrongPathOpsAreNonControlAndDoNotPerturb(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	// Interleave wrong-path generation with a reference stream.
	gRef, _ := NewGenerator(testProfile())
	for i := 0; i < 1000; i++ {
		gRef.Next()
	}
	for i := 0; i < 5000; i++ {
		wp := g.WrongPath(0x9000_0000 + uint64(i)*4)
		if wp.Class.IsCtrl() {
			t.Fatalf("wrong-path control op: %v", wp.Class)
		}
		if wp.Class == isa.OpStore {
			t.Fatal("wrong-path store must be converted to load")
		}
		a, b := g.Next(), gRef.Next()
		if a != b {
			t.Fatalf("wrong-path generation perturbed correct path at %d", i)
		}
	}
}

func TestPhaseSwitching(t *testing.T) {
	p := Profile{
		Name: "phased",
		Seed: 7,
		Phases: []Phase{
			{Insts: 5000, Mix: Mix{IntALU: 100}, DepMean: 3, LoopIters: 10,
				BodySize: 20, NumLoops: 2, WorkingSet: 4096},
			{Insts: 5000, Mix: Mix{FPALU: 100}, DepMean: 3, LoopIters: 10,
				BodySize: 20, NumLoops: 2, WorkingSet: 4096},
		},
	}
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var intOps, fpOps [4]int // per quarter of the stream
	const n = 20_000
	for i := 0; i < n; i++ {
		op := g.Next()
		q := i / (n / 4)
		if op.Class == isa.OpIntALU {
			intOps[q]++
		}
		if op.Class == isa.OpFPALU {
			fpOps[q]++
		}
	}
	// Quarters 0 and 2 are int-heavy; 1 and 3 FP-heavy.
	if !(intOps[0] > fpOps[0] && fpOps[1] > intOps[1] &&
		intOps[2] > fpOps[2] && fpOps[3] > intOps[3]) {
		t.Errorf("phases not alternating: int=%v fp=%v", intOps, fpOps)
	}
}

func TestCodeFootprint(t *testing.T) {
	g, _ := NewGenerator(testProfile())
	var slots int
	for _, pp := range g.phases {
		for _, b := range append(pp.loops, pp.funcs...) {
			slots += len(b.slots)
		}
	}
	if want := 8*40 + numFuncs*funcBodySize; slots != want {
		t.Errorf("static code = %d slots, want %d", slots, want)
	}
}

func TestStreamingAddressesHaveSpatialLocality(t *testing.T) {
	p := testProfile()
	p.Phases[0].StreamFrac = 1.0
	g, _ := NewGenerator(p)
	// Track per-PC address deltas: for streaming slots they must equal
	// the stride.
	last := make(map[uint64]uint64)
	strided, total := 0, 0
	for i := 0; i < 100_000; i++ {
		op := g.Next()
		if !op.Class.IsMem() {
			continue
		}
		if prev, ok := last[op.PC]; ok {
			total++
			d := int64(op.Addr) - int64(prev)
			if d == 8 || d < 0 { // stride or working-set wrap
				strided++
			}
		}
		last[op.PC] = op.Addr
	}
	if total == 0 {
		t.Fatal("no repeated memory slots observed")
	}
	if f := float64(strided) / float64(total); f < 0.95 {
		t.Errorf("strided fraction = %v, want ~1.0", f)
	}
}

func TestRNGBasics(t *testing.T) {
	r := newRNG(0) // zero seed must be remapped
	if r.state == 0 {
		t.Error("zero seed not remapped")
	}
	var mean float64
	const n = 10_000
	for i := 0; i < n; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
		mean += f
	}
	mean /= n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("uniform mean = %v", mean)
	}
	g := newRNG(9)
	m := 0.0
	for i := 0; i < n; i++ {
		m += float64(g.geometric(4))
	}
	if m /= n; math.Abs(m-4) > 0.5 {
		t.Errorf("geometric mean = %v, want ~4", m)
	}
	if g.geometric(0.5) != 1 {
		t.Error("geometric with mean<1 should return 1")
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("intn(0) did not panic")
		}
	}()
	newRNG(1).intn(0)
}

// Property: any structurally valid random profile produces well-formed
// micro-ops — PCs inside the code regions, word-aligned, register indices
// in range, memory addresses 8-byte aligned (random) or stride-aligned
// (streaming), and control ops with coherent targets.
func TestGeneratorWellFormedProperty(t *testing.T) {
	f := func(seed uint64, body8, loops8, iters8 uint8, dep float64) bool {
		p := Profile{
			Name: "prop",
			Seed: seed,
			Phases: []Phase{{
				Insts:            10_000,
				Mix:              Mix{IntALU: 30, FPALU: 8, Load: 15, Store: 8, Branch: 10, Call: 1},
				DepMean:          1 + mod1(dep)*15,
				LoopIters:        int(iters8%60) + 2,
				BodySize:         int(body8%96) + 8,
				NumLoops:         int(loops8%20) + 1,
				BranchRandomFrac: 0.3,
				BranchBias:       0.5,
				WorkingSet:       1 << 16,
				StreamFrac:       0.5,
			}},
		}
		g, err := NewGenerator(p)
		if err != nil {
			return false
		}
		for i := 0; i < 20_000; i++ {
			op := g.Next()
			if op.PC%4 != 0 {
				return false
			}
			inLoops := op.PC >= codeBase && op.PC < codeBase+phaseSpan
			inFuncs := op.PC >= funcRegion && op.PC < funcRegion+phaseSpan
			if !inLoops && !inFuncs {
				return false
			}
			for _, r := range []int16{op.Src1, op.Src2, op.Dest} {
				if r != -1 && (r < 0 || r >= 64) {
					return false
				}
			}
			if op.Class.IsMem() && op.Addr == 0 {
				return false
			}
			if op.Class.IsCtrl() && op.Class != isa.OpBranch && !op.Taken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// mod1 maps any float (incl. NaN/Inf) into [0,1).
func mod1(x float64) float64 {
	if x != x || x > 1e18 || x < -1e18 { // NaN or huge
		return 0.5
	}
	if x < 0 {
		x = -x
	}
	return x - float64(uint64(x))
}
