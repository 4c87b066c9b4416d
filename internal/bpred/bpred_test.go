package bpred

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func newDefault() *Predictor { return New(DefaultConfig()) }

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.BimodEntries = 1000; return c }(),
		func() Config { c := DefaultConfig(); c.HistoryBits = 0; return c }(),
		func() Config { c := DefaultConfig(); c.RASEntries = 0; return c }(),
		func() Config { c := DefaultConfig(); c.BTBAssoc = 0; return c }(),
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	c = c.update(false)
	if c != 0 {
		t.Errorf("counter underflowed to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter = %d, want saturated 3", c)
	}
	if !c.taken() {
		t.Error("saturated counter should predict taken")
	}
}

// A branch with a constant direction must be learned almost perfectly.
func TestLearnsAlwaysTaken(t *testing.T) {
	p := newDefault()
	const pc, target = 0x1000, 0x2000
	miss := 0
	for i := 0; i < 1000; i++ {
		pr := p.Predict(pc, isa.OpBranch)
		if !pr.Taken {
			miss++
		}
		if pr.Taken != true {
			p.Recover(isa.OpBranch, true, pr)
		}
		p.Update(pc, isa.OpBranch, true, target, pr)
	}
	if miss > 5 {
		t.Errorf("%d/1000 mispredictions on always-taken branch", miss)
	}
	// After warm-up, the BTB must supply the target.
	pr := p.Predict(pc, isa.OpBranch)
	if !pr.BTBHit || pr.Target != target {
		t.Errorf("BTB miss after training: hit=%v target=%#x", pr.BTBHit, pr.Target)
	}
	p.Recover(isa.OpBranch, true, pr) // leave history sane
}

// A short repeating pattern (TTNTTN...) exceeds bimodal but the 12-bit
// global history component must capture it, so the hybrid should approach
// perfect prediction.
func TestGlobalComponentLearnsPattern(t *testing.T) {
	p := newDefault()
	const pc = 0x4440
	pattern := []bool{true, true, false}
	miss := 0
	n := 3000
	for i := 0; i < n; i++ {
		taken := pattern[i%len(pattern)]
		pr := p.Predict(pc, isa.OpBranch)
		if pr.Taken != taken {
			miss++
			p.Recover(isa.OpBranch, taken, pr)
		}
		p.Update(pc, isa.OpBranch, taken, 0x5000, pr)
	}
	// Allow generous warm-up; steady state must be near-perfect.
	if miss > n/10 {
		t.Errorf("%d/%d mispredictions on periodic pattern", miss, n)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := newDefault()
	// call at 0x100 -> function at 0x900; return must predict 0x104.
	prCall := p.Predict(0x100, isa.OpCall)
	if !prCall.Taken {
		t.Error("call not predicted taken")
	}
	p.Update(0x100, isa.OpCall, true, 0x900, prCall)
	prRet := p.Predict(0x900, isa.OpReturn)
	if !prRet.BTBHit || prRet.Target != 0x104 {
		t.Errorf("return predicted %#x (hit=%v), want 0x104", prRet.Target, prRet.BTBHit)
	}
	p.Update(0x900, isa.OpReturn, true, 0x104, prRet)
}

func TestRASNested(t *testing.T) {
	p := newDefault()
	// Nested calls: 0x100 -> f, inside f at 0x904 -> g, g returns to 0x908,
	// f returns to 0x104.
	pr1 := p.Predict(0x100, isa.OpCall)
	p.Update(0x100, isa.OpCall, true, 0x900, pr1)
	pr2 := p.Predict(0x904, isa.OpCall)
	p.Update(0x904, isa.OpCall, true, 0xa00, pr2)
	r1 := p.Predict(0xa00, isa.OpReturn)
	if r1.Target != 0x908 {
		t.Errorf("inner return -> %#x, want 0x908", r1.Target)
	}
	p.Update(0xa00, isa.OpReturn, true, 0x908, r1)
	r2 := p.Predict(0x900, isa.OpReturn)
	if r2.Target != 0x104 {
		t.Errorf("outer return -> %#x, want 0x104", r2.Target)
	}
	p.Update(0x900, isa.OpReturn, true, 0x104, r2)
}

// Speculative history must be repaired after a mispredict: predicting and
// recovering must leave the history equal to shifting in the actual
// outcome.
func TestRecoverRestoresHistory(t *testing.T) {
	p := newDefault()
	// Establish nonzero history.
	for i := 0; i < 20; i++ {
		pr := p.Predict(0x200, isa.OpBranch)
		p.Update(0x200, isa.OpBranch, i%2 == 0, 0x300, pr)
		if pr.Taken != (i%2 == 0) {
			p.Recover(isa.OpBranch, i%2 == 0, pr)
		}
	}
	before := p.hist
	pr := p.Predict(0x204, isa.OpBranch)
	// Force a "mispredict" with actual = !pred.
	actual := !pr.Taken
	p.Recover(isa.OpBranch, actual, pr)
	want := (before << 1) & ((1 << 12) - 1)
	if actual {
		want |= 1
	}
	if p.hist != want {
		t.Errorf("recovered history = %#x, want %#x", p.hist, want)
	}
}

func TestRecoverRestoresRAS(t *testing.T) {
	p := newDefault()
	pr1 := p.Predict(0x100, isa.OpCall) // pushes 0x104
	p.Update(0x100, isa.OpCall, true, 0x900, pr1)
	// A wrong-path call pushes garbage...
	prWrong := p.Predict(0x500, isa.OpCall)
	// ...then the wrong path is squashed.
	p.Recover(isa.OpCall, true, prWrong)
	r := p.Predict(0x900, isa.OpReturn)
	if r.Target != 0x104 {
		t.Errorf("return after RAS recovery -> %#x, want 0x104", r.Target)
	}
}

func TestBTBReplacementLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBSets = 1
	cfg.BTBAssoc = 2
	p := New(cfg)
	ins := func(pc, tgt uint64) {
		pr := p.Predict(pc, isa.OpJump)
		p.Update(pc, isa.OpJump, true, tgt, pr)
	}
	lookup := func(pc uint64) (uint64, bool) {
		pr := p.Predict(pc, isa.OpJump)
		p.Update(pc, isa.OpJump, true, pr.Target, pr)
		return pr.Target, pr.BTBHit
	}
	ins(0x10, 0x100)
	ins(0x20, 0x200)
	// Touch 0x10 so 0x20 is LRU.
	if tgt, hit := lookup(0x10); !hit || tgt != 0x100 {
		t.Fatalf("lookup 0x10 = %#x,%v", tgt, hit)
	}
	ins(0x30, 0x300) // evicts 0x20
	if _, hit := p.btbLookup(0x20); hit {
		t.Error("0x20 survived eviction; LRU broken")
	}
	if _, hit := p.btbLookup(0x10); !hit {
		t.Error("0x10 evicted despite being MRU")
	}
}

func TestPredictPanicsOnNonControl(t *testing.T) {
	p := newDefault()
	defer func() {
		if recover() == nil {
			t.Fatal("Predict(OpIntALU) did not panic")
		}
	}()
	p.Predict(0x100, isa.OpIntALU)
}

// A random (uncorrelated) branch must show a high mispredict rate — the
// predictor must not be accidentally oracle-like, since workload
// predictability calibration depends on this.
func TestRandomBranchIsHardToPredict(t *testing.T) {
	p := newDefault()
	st := uint64(0x123456789)
	rnd := func() bool {
		st ^= st << 13
		st ^= st >> 7
		st ^= st << 17
		return st&1 == 1
	}
	miss := 0
	const n = 4000
	for i := 0; i < n; i++ {
		taken := rnd()
		pr := p.Predict(0x700, isa.OpBranch)
		if pr.Taken != taken {
			miss++
			p.Recover(isa.OpBranch, taken, pr)
		}
		p.Update(0x700, isa.OpBranch, taken, 0x800, pr)
	}
	if rate := float64(miss) / n; rate < 0.3 {
		t.Errorf("mispredict rate on random stream = %v, want >= 0.3", rate)
	}
}

// Property: for any interleaving of predictions with immediate recovery,
// the global history always equals the actual outcome sequence of the
// last 12 conditional branches — the speculative-update + repair pair
// never corrupts history.
func TestHistoryTracksOutcomesProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		p := newDefault()
		rnd := seed | 1
		next := func() uint64 {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			return rnd
		}
		var want uint64
		n := int(n8)%200 + 12
		for i := 0; i < n; i++ {
			pc := 0x1000 + (next()%64)*4
			taken := next()&1 == 1
			pr := p.Predict(pc, isa.OpBranch)
			if pr.Taken != taken {
				p.Recover(isa.OpBranch, taken, pr)
			}
			p.Update(pc, isa.OpBranch, taken, pc+64, pr)
			want = (want << 1) & 0xfff
			if taken {
				want |= 1
			}
		}
		return p.hist == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
