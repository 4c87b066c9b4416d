package power

import (
	"math"
	"testing"

	"repro/internal/pipeline"
)

// refBlockPower is BlockPower as it was before the subnormal flush, run on
// its own filter state ewma: the reference the flush must match.
func refBlockPower(m *Model, ewma []float64, act *pipeline.Activity, out []float64) {
	if m.gateNone {
		for i := range m.blocks {
			out[i] = m.blocks[i].peakW
		}
		return
	}
	var av [numActSlots]float64
	av[slLSQInserts] = float64(act.LSQInserts)
	av[slLSQSearches] = float64(act.LSQSearches)
	av[slWindowInserts] = float64(act.WindowInserts)
	av[slWindowIssues] = float64(act.WindowIssues)
	av[slWindowWakeups] = float64(act.WindowWakeups)
	av[slRegReads] = float64(act.RegReads)
	av[slRegWrites] = float64(act.RegWrites)
	av[slBPredAccess] = float64(act.BPredAccess)
	av[slDCacheAccess] = float64(act.DCacheAccess)
	av[slIntOps] = float64(act.IntOps)
	av[slFPOps] = float64(act.FPOps)
	dt, res := m.dt, m.residual
	for i := range m.blocks {
		b := &m.blocks[i]
		t := &m.terms[i]
		dyn := av[t.s0]*t.e0 + av[t.s1]*t.e1 + av[t.s2]*t.e2
		ewma[i] += ewmaAlpha * (dyn/dt - ewma[i])
		p := ewma[i] + res*b.peakW
		if p > b.peakW {
			p = b.peakW
		}
		out[i] = p
	}
}

func subnormal(x float64) bool { return x != 0 && math.Abs(x) < minNormal }

// Every block runs through active stretches and idle tails long enough
// (≥100 000 cycles) for the unflushed filter to go subnormal, then wakes
// again. Under GateResidual10 and GateNone every output is bitwise the
// reference's; under GateIdeal (no residual to absorb it) a subnormal
// reference output reads exactly 0. No filter value is ever subnormal.
func TestSubnormalFlushMatchesReference(t *testing.T) {
	pc := pipeline.DefaultConfig()
	active := func(c int) pipeline.Activity {
		k := c%5 + 1 // vary the load so every slot sees several levels
		return pipeline.Activity{
			LSQInserts: k % 3, LSQSearches: k % 2,
			WindowInserts: k % (pc.DecodeWidth + 1), WindowIssues: k % (pc.IssueWidth + 1),
			WindowWakeups: k, RegReads: 2 * k, RegWrites: k,
			BPredAccess: k % 2, DCacheAccess: k % 3, IntOps: k, FPOps: k % 4,
		}
	}
	stretches := []struct {
		cycles int
		idle   bool
	}{{3000, false}, {120_000, true}, {500, false}, {100_000, true}, {2000, false}, {40_000, true}}
	for _, g := range []GatingStyle{GateResidual10, GateIdeal, GateNone} {
		cfg := DefaultConfig()
		cfg.Gating = g
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumBlocks()
		ewma := make([]float64, n)
		out, want := make([]float64, n), make([]float64, n)
		var refSub int // reference filter values that were subnormal
		cycle := 0
		for _, st := range stretches {
			for c := 0; c < st.cycles; c, cycle = c+1, cycle+1 {
				var act pipeline.Activity
				if !st.idle {
					act = active(cycle)
				}
				m.BlockPower(&act, out)
				refBlockPower(m, ewma, &act, want)
				for i := range out {
					if subnormal(ewma[i]) {
						refSub++
					}
					if subnormal(m.blocks[i].ewma) {
						t.Fatalf("%v cycle %d %v: ewma %g is subnormal", g, cycle, m.blocks[i].id, m.blocks[i].ewma)
					}
					if g == GateIdeal && subnormal(want[i]) {
						if out[i] != 0 {
							t.Fatalf("%v cycle %d %v: out %g, want 0 for subnormal reference %g", g, cycle, m.blocks[i].id, out[i], want[i])
						}
						continue
					}
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v cycle %d %v: out %g, reference %g", g, cycle, m.blocks[i].id, out[i], want[i])
					}
				}
			}
		}
		if g != GateNone && refSub == 0 {
			t.Errorf("%v: the reference filter never went subnormal; the idle stretches are too short", g)
		}
	}
}
