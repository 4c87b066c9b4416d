package thermal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
)

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestNewInitializesAtSink(t *testing.T) {
	n := New(testConfig())
	if n.NumBlocks() != int(floorplan.NumBlocks) {
		t.Fatalf("blocks = %d, want %d", n.NumBlocks(), floorplan.NumBlocks)
	}
	for i := 0; i < n.NumBlocks(); i++ {
		if n.temps[i] != 100.0 {
			t.Errorf("block %d initial temp = %v, want 100", i, n.temps[i])
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	cases := []Config{
		{},
		{Blocks: floorplan.Default()}, // zero cycle time
		{Blocks: floorplan.Default(), CycleTime: -1},  // negative dt
		{Blocks: []floorplan.Block{{}}, CycleTime: 1}, // zero R/C
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStepPanicsOnLengthMismatch(t *testing.T) {
	n := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Step with wrong power length did not panic")
		}
	}()
	n.Step([]float64{1})
}

// The forward-Euler integration must track the analytic exponential step
// response closely at the paper's cycle-level dt.
func TestStepMatchesAnalyticResponse(t *testing.T) {
	cfg := testConfig()
	n := New(cfg)
	power := make([]float64, n.NumBlocks())
	for i := range power {
		power[i] = n.Block(i).PeakPower
	}
	// Advance one time constant of the slowest block (~180 us) using a
	// coarser dt to keep the test fast; dt = 10 ns is still tiny vs RC.
	cfg2 := cfg
	cfg2.CycleTime = 10e-9
	n2 := New(cfg2)
	tau := n2.LongestTimeConstant()
	steps := uint64(tau / cfg2.CycleTime)
	for s := uint64(0); s < steps; s++ {
		n2.Step(power)
	}
	elapsed := float64(steps) * cfg2.CycleTime
	for i := 0; i < n2.NumBlocks(); i++ {
		want := StepResponse(n2.Block(i), cfg.SinkTemp, power[i], elapsed)
		if got := n2.temps[i]; math.Abs(got-want) > 0.02 {
			t.Errorf("block %v: T=%v, analytic %v", n2.Block(i).ID, got, want)
		}
	}
	_ = n
}

func TestStepNMatchesAnalytic(t *testing.T) {
	cfg := testConfig()
	n := New(cfg)
	power := make([]float64, n.NumBlocks())
	for i := range power {
		power[i] = 5.0
	}
	const cycles = 1_000_000
	n.StepN(power, cycles)
	elapsed := cfg.CycleTime * cycles
	for i := 0; i < n.NumBlocks(); i++ {
		want := StepResponse(n.Block(i), cfg.SinkTemp, power[i], elapsed)
		if got := n.temps[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("block %d: StepN=%v, analytic %v", i, got, want)
		}
	}
}

// Property: under randomized constant per-block powers every block
// settles to SteadyState(i, P) = Tsink + R·P, whether advanced by the
// exact StepN or by the macro-stepped StepWindow.
func TestSteadyStateReached(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		exact, win := New(testConfig()), New(testConfig())
		power := randomState(rng, exact, win)
		// 20 time constants of the slowest block.
		cycles := uint64(20 * exact.LongestTimeConstant() / exact.cfg.CycleTime)
		exact.StepN(power, cycles)
		for c := uint64(0); c < cycles; c += 1 << 16 {
			win.StepWindow(power, 1<<16, 1, nil)
		}
		for i := 0; i < exact.NumBlocks(); i++ {
			want := exact.cfg.SinkTemp + exact.Block(i).R*power[i]
			if got := exact.SteadyState(i, power[i]); got != want {
				t.Fatalf("block %d: SteadyState = %v, want Tsink + R·P = %v", i, got, want)
			}
			if d := math.Abs(exact.temps[i] - want); d > 1e-6 {
				t.Errorf("trial %d block %d: StepN settled at %v, steady state %v", trial, i, exact.temps[i], want)
			}
			if d := math.Abs(win.temps[i] - want); d > 1e-6 {
				t.Errorf("trial %d block %d: StepWindow settled at %v, steady state %v", trial, i, win.temps[i], want)
			}
		}
	}
}

// Peak power must be able to push every block past the emergency threshold
// (Table 3 calibration: at least one benchmark puts each structure within
// reach of emergency).
func TestPeakPowerExceedsEmergency(t *testing.T) {
	const emergency = 111.3
	n := New(testConfig())
	for i := 0; i < n.NumBlocks(); i++ {
		ss := n.SteadyState(i, n.Block(i).PeakPower)
		if ss <= emergency {
			t.Errorf("block %v peak steady state %v <= emergency %v",
				n.Block(i).ID, ss, emergency)
		}
		// ...but not absurdly beyond the "up to ~12-14 C" local rise.
		if ss > 100+16 {
			t.Errorf("block %v peak rise %v C exceeds expected envelope",
				n.Block(i).ID, ss-100)
		}
	}
}

func TestCoolingDecaysTowardSink(t *testing.T) {
	n := New(testConfig())
	zero := make([]float64, n.NumBlocks())
	for i := 0; i < n.NumBlocks(); i++ {
		n.SetTemp(i, 112)
	}
	n.StepN(zero, uint64(10*n.LongestTimeConstant()/(1.0/1.5e9)))
	for i := 0; i < n.NumBlocks(); i++ {
		if math.Abs(n.temps[i]-100) > 1e-3 {
			t.Errorf("block %d did not cool to sink: %v", i, n.temps[i])
		}
	}
}

func TestHottestAndAnyAbove(t *testing.T) {
	n := New(testConfig())
	n.SetTemp(3, 111.5)
	idx, temp := n.Hottest()
	if idx != 3 || temp != 111.5 {
		t.Errorf("hottest = %d@%v, want 3@111.5", idx, temp)
	}
	if !n.AnyAbove(111.3) {
		t.Error("AnyAbove(111.3) = false with a 111.5 block")
	}
	if n.AnyAbove(112) {
		t.Error("AnyAbove(112) = true with max 111.5")
	}
}

func TestTempsCopies(t *testing.T) {
	n := New(testConfig())
	n.SetTemp(0, 200)
	got := n.Temps(nil)
	if got[0] != 200 {
		t.Errorf("Temps()[0] = %v, want 200", got[0])
	}
	got[0] = -1 // must be a copy
	if n.temps[0] != 200 {
		t.Error("Temps returned aliased storage")
	}
}

func TestIndexLookup(t *testing.T) {
	n := New(testConfig())
	i, ok := n.Index(floorplan.BPred)
	if !ok || n.Block(i).ID != floorplan.BPred {
		t.Errorf("Index(BPred) = %d,%v", i, ok)
	}
	if _, ok := n.Index(floorplan.Chip); ok {
		t.Error("Index(Chip) found in per-structure network")
	}
}

// Property: under randomized constant per-block powers no block ever
// leaves the band [min(T0,Tss), max(T0,Tss)], per Euler step or per
// StepWindow window: the RC node is first-order and cannot overshoot.
func TestNoOvershootProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		euler, win := New(testConfig()), New(testConfig())
		power := randomState(rng, euler, win)
		lo, hi := make([]float64, len(power)), make([]float64, len(power))
		for i := range power {
			tss := euler.SteadyState(i, power[i])
			lo[i], hi[i] = math.Min(euler.temps[i], tss), math.Max(euler.temps[i], tss)
		}
		check := func(n *Network, what string, step int) {
			for i, temp := range n.temps {
				if temp < lo[i]-1e-9 || temp > hi[i]+1e-9 {
					t.Fatalf("trial %d %s %d: block %d at %v left [%v, %v]", trial, what, step, i, temp, lo[i], hi[i])
				}
			}
		}
		for s := 0; s < 2000; s++ {
			euler.Step(power)
			check(euler, "Euler step", s)
		}
		// 64 windows of 2^16 cycles at invF 1.25 span about 19 time
		// constants of the slowest block, so the settled end is checked
		// too.
		for w := 0; w < 64; w++ {
			win.StepWindow(power, 1<<16, 1.25, nil)
			check(win, "window", w)
		}
	}
}

// StepWindow(w, invF) is the closed form of n = w·invF compounded Euler
// steps under constant power. In the Figure 3C model the two agree to
// rounding (1e-9 C). With tangential coupling the window freezes lateral
// flows at their start values, an error second order in the window:
// within 2e-10·n² C from start temperatures up to 25 C apart (1.3e-5 C for
// the default 256-cycle window, 8e-4 C at n = 2000, which measured 4.2e-4).
func TestStepWindowMatchesEuler(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tangential := range []bool{false, true} {
		for _, tc := range []struct {
			w    uint64
			invF float64
		}{{256, 1}, {1000, 1}, {256, 1.25}, {1000, 2}} {
			steps := float64(tc.w) * tc.invF
			bound := 1e-9
			if tangential {
				bound = 2e-10 * steps * steps
			}
			for trial := 0; trial < 10; trial++ {
				cfg := testConfig()
				cfg.Tangential = tangential
				win, euler := New(cfg), New(cfg)
				power := randomState(rng, win, euler)
				win.StepWindow(power, tc.w, tc.invF, nil)
				for s := 0; s < int(steps); s++ {
					euler.Step(power)
				}
				for i := range power {
					if d := math.Abs(win.temps[i] - euler.temps[i]); d > bound {
						t.Errorf("tangential=%v w=%d invF=%v block %d: window %v, Euler %v (|d| = %.3g > %g)",
							tangential, tc.w, tc.invF, i, win.temps[i], euler.temps[i], d, bound)
					}
				}
			}
		}
	}
}

// TestWindowTempsMatchesStepWindow: the read of an open window gives the
// temperatures StepWindow reaches bit for bit, with or without lateral
// flow, and leaves the network and its cached coefficients as they were,
// so a window closed after any number of reads is unchanged.
func TestWindowTempsMatchesStepWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tangential := range []bool{false, true} {
		cfg := testConfig()
		cfg.Tangential = tangential
		read, step := New(cfg), New(cfg)
		power := randomState(rng, read, step)
		read.WindowCoef(256, 1) // the open window's cached tables
		step.WindowCoef(256, 1)
		for _, w := range []uint64{1, 77, 256} {
			for _, invF := range []float64{1, 1.25} {
				got := make([]float64, len(power))
				read.WindowTemps(got, power, w, invF)
				before := read.Temps(nil)
				ref := New(cfg)
				for i, t0 := range before {
					ref.SetTemp(i, t0)
				}
				ref.StepWindow(power, w, invF, nil)
				for i := range got {
					if got[i] != ref.temps[i] || read.temps[i] != before[i] {
						t.Fatalf("tangential=%v w=%d invF=%v block %d: read %v, StepWindow %v, network moved %v -> %v",
							tangential, w, invF, i, got[i], ref.temps[i], before[i], read.temps[i])
					}
				}
			}
		}
		read.StepWindow(power, 256, 1, nil)
		step.StepWindow(power, 256, 1, nil)
		for i := range power {
			if read.temps[i] != step.temps[i] || read.winW != 256 {
				t.Fatalf("tangential=%v block %d: window closed after reads at %v, without at %v (cached w %d)",
					tangential, i, read.temps[i], step.temps[i], read.winW)
			}
		}
	}
}

// TestStepWindowSequenceMatchesEuler extends TestStepWindowMatchesEuler to
// power that changes between windows, as a run's does: a sequence of
// windows, each under fresh random per-block power, must track the same
// sequence of Euler steps. The error after k windows is held to k times
// the single-window bound; with tangential coupling each window adds its
// own frozen-flow error, which decays rather than compounds.
func TestStepWindowSequenceMatchesEuler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tangential := range []bool{false, true} {
		for _, tc := range []struct {
			w    uint64
			invF float64
		}{{256, 1}, {1000, 1}, {256, 1.25}, {1000, 2}} {
			steps := float64(tc.w) * tc.invF
			bound := 1e-9
			if tangential {
				bound = 2e-10 * steps * steps
			}
			cfg := testConfig()
			cfg.Tangential = tangential
			win, euler := New(cfg), New(cfg)
			randomState(rng, win, euler)
			for k := 1; k <= 12; k++ {
				power := make([]float64, win.NumBlocks())
				for i := range power {
					power[i] = 2 * win.Block(i).PeakPower * rng.Float64()
				}
				win.StepWindow(power, tc.w, tc.invF, nil)
				for s := 0; s < int(steps); s++ {
					euler.Step(power)
				}
				for i := range power {
					if d := math.Abs(win.temps[i] - euler.temps[i]); d > float64(k)*bound {
						t.Fatalf("tangential=%v w=%d invF=%v window %d block %d: window %v, Euler %v (|d| = %.3g > %g)",
							tangential, tc.w, tc.invF, k, i, win.temps[i], euler.temps[i], d, float64(k)*bound)
					}
				}
			}
		}
	}
}

// TestEulerEnergyBalance checks conservation on the per-cycle path with
// tangential coupling on: over any run of Euler steps the change in stored
// heat, the sum of C·ΔT, equals the energy put in minus the energy that
// flowed to the sink, and the lateral flows cancel on every step (each
// pair of neighbors exchanges equal and opposite heat).
func TestEulerEnergyBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig()
	cfg.Tangential = true
	n := New(cfg)
	power := randomState(rng, n)
	dt, sink := cfg.CycleTime, cfg.SinkTemp
	stored := func() float64 {
		e := 0.0
		for i, tmp := range n.temps {
			e += n.blocks[i].C * tmp
		}
		return e
	}
	e0 := stored()
	var in, out float64
	for s := 0; s < 20_000; s++ {
		if s%1000 == 0 { // power changes as a run's does
			for i := range power {
				power[i] = 2 * n.blocks[i].PeakPower * rng.Float64()
			}
		}
		lateral, scale := 0.0, 0.0
		for i, tmp := range n.temps {
			in += dt * power[i]
			out += dt * (tmp - sink) / n.blocks[i].R
			for k, j := range n.adj[i] {
				f := (tmp - n.temps[j]) * n.gTan[i][k]
				lateral += f
				scale += math.Abs(f)
			}
		}
		if math.Abs(lateral) > 1e-12*math.Max(scale, 1) {
			t.Fatalf("step %d: lateral flows sum to %g W (of %g W moved), want 0", s, lateral, scale)
		}
		n.Step(power)
	}
	got, want := stored()-e0, in-out
	if math.Abs(got-want) > 1e-9*math.Max(in, math.Abs(out)) {
		t.Errorf("stored heat changed by %.12g J, input minus sink outflow is %.12g J (in %g, out %g)", got, want, in, out)
	}
	if in == 0 || out == 0 {
		t.Errorf("degenerate run: in %g J, out %g J", in, out)
	}
}

// randomState draws per-block powers in [0, 2·peak] and start temperatures
// in [Tsink-5, Tsink+20], applies the same start temperatures to every
// network, and returns the powers.
func randomState(rng *rand.Rand, nets ...*Network) []float64 {
	n := nets[0]
	power := make([]float64, n.NumBlocks())
	for i := range power {
		power[i] = 2 * n.Block(i).PeakPower * rng.Float64()
		t0 := n.cfg.SinkTemp - 5 + 25*rng.Float64()
		for _, m := range nets {
			m.SetTemp(i, t0)
		}
	}
	return power
}

// With tangential coupling enabled, total energy still flows downhill:
// a hot block warms its cooler neighbor.
func TestTangentialCouplingWarmsNeighbor(t *testing.T) {
	cfg := testConfig()
	cfg.Tangential = true
	cfg.CycleTime = 50e-9
	n := New(cfg)
	iLSQ, _ := n.Index(floorplan.LSQ)
	iWin, _ := n.Index(floorplan.Window)
	n.SetTemp(iLSQ, 112)
	zero := make([]float64, n.NumBlocks())
	for s := 0; s < 100000; s++ {
		n.Step(zero)
	}
	if n.temps[iWin] <= 100 {
		t.Errorf("neighbor window not warmed: %v", n.temps[iWin])
	}
	// And the effect must be small relative to the normal path — the
	// paper's justification for dropping Rtan.
	if n.temps[iWin] > 100.5 {
		t.Errorf("tangential warming %v C unexpectedly large", n.temps[iWin]-100)
	}
}

// Tangential coupling must barely perturb the temperatures relative to the
// simplified model (Figure 3C vs 3B) — the paper's Section 4.3 claim.
func TestTangentialIsSecondOrder(t *testing.T) {
	base := testConfig()
	base.CycleTime = 100e-9
	tan := base
	tan.Tangential = true
	n1, n2 := New(base), New(tan)
	power := make([]float64, n1.NumBlocks())
	for i := range power {
		power[i] = n1.Block(i).PeakPower * float64(i%3) / 2.0
	}
	for s := 0; s < 200000; s++ {
		n1.Step(power)
		n2.Step(power)
	}
	for i := 0; i < n1.NumBlocks(); i++ {
		d := math.Abs(n1.temps[i] - n2.temps[i])
		// Second-order means well under the ~10 C rises involved; the
		// small regfile (three neighbors, lowest capacitance) shifts
		// the most at ~0.6 C.
		if d > 1.0 {
			t.Errorf("block %d: |simplified - tangential| = %v C", i, d)
		}
	}
}

func TestChipModelPaperExample(t *testing.T) {
	// Section 4.1: 25 W, 1 K/W die-to-case + 1 K/W heatsink, 27 C ambient
	// => 77 C steady state; C=60 J/K => tau ~ 1 minute.
	m := NewChipModel(2.0, 60, 27)
	if got := m.SteadyState(25); math.Abs(got-77) > 1e-12 {
		t.Errorf("steady state = %v, want 77", got)
	}
	if tau := m.TimeConstant(); math.Abs(tau-120) > 1e-9 {
		t.Errorf("tau = %v, want 120 s (~minutes)", tau)
	}
	m.Step(25, 1e9) // effectively infinite time
	if math.Abs(m.T-77) > 1e-6 {
		t.Errorf("after long step T = %v, want 77", m.T)
	}
}

func TestChipModelPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChipModel(0,0,..) did not panic")
		}
	}()
	NewChipModel(0, 0, 27)
}

// The paper's central observation: localized heating is orders of magnitude
// faster than chip-wide heating.
func TestLocalizedHeatingMuchFasterThanChipWide(t *testing.T) {
	n := New(testConfig())
	chip := NewChipModel(0.34, 60, 45)
	ratio := chip.TimeConstant() / n.LongestTimeConstant()
	if ratio < 1e4 {
		t.Errorf("chip tau / block tau = %v, want >= 1e4", ratio)
	}
}
