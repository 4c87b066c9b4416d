package control

import (
	"math"
	"testing"
	"testing/quick"
)

// The paper's plant: K = R*Papp ~ 12 K per unit duty, tau = longest block
// RC (180 us), L = half the 667 ns sampling period.
func paperPlant() Plant {
	return Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
}

const paperTs = 667e-9

func TestFreqResponseDC(t *testing.T) {
	p := paperPlant()
	mag, phase := p.FreqResponse(1e-6)
	if math.Abs(mag-p.K) > 1e-6 {
		t.Errorf("DC gain = %v, want %v", mag, p.K)
	}
	if math.Abs(phase) > 1e-6 {
		t.Errorf("DC phase = %v, want 0", phase)
	}
}

func TestFreqResponseCornerFrequency(t *testing.T) {
	p := Plant{K: 10, Tau: 1e-3, Delay: 0}
	mag, phase := p.FreqResponse(1 / p.Tau)
	if math.Abs(mag-10/math.Sqrt2) > 1e-9 {
		t.Errorf("corner magnitude = %v, want %v", mag, 10/math.Sqrt2)
	}
	if math.Abs(phase+math.Pi/4) > 1e-9 {
		t.Errorf("corner phase = %v, want -45 deg", phase)
	}
}

func TestKindString(t *testing.T) {
	for k, s := range map[Kind]string{KindP: "P", KindPI: "PI", KindPD: "PD", KindPID: "PID"} {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// Every tuned controller must achieve (approximately) the requested phase
// margin at the achieved crossover.
func TestTuneAchievesPhaseMargin(t *testing.T) {
	p := paperPlant()
	for _, kind := range []Kind{KindP, KindPI, KindPD, KindPID} {
		spec := Spec{Kind: kind}
		g, err := Tune(p, spec)
		if err != nil {
			t.Fatalf("%v: tune failed: %v", kind, err)
		}
		pm, wc, err := OpenLoopPhaseMargin(p, g)
		if err != nil {
			t.Fatalf("%v: phase margin: %v", kind, err)
		}
		want := defaultPhaseMargin
		tol := 2 * math.Pi / 180
		if kind == KindP {
			// P cannot supply phase; allow the documented shortfall.
			tol = 35 * math.Pi / 180
		}
		if math.Abs(pm-want) > tol {
			t.Errorf("%v: phase margin = %.1f deg at wc=%g, want %.1f +- %.1f",
				kind, pm*180/math.Pi, wc, want*180/math.Pi, tol*180/math.Pi)
		}
		if g.Kp <= 0 {
			t.Errorf("%v: Kp = %v, want > 0", kind, g.Kp)
		}
	}
}

func TestTunePIDHasAllTerms(t *testing.T) {
	g := MustTune(paperPlant(), Spec{Kind: KindPID})
	if g.Kp <= 0 || g.Ki <= 0 || g.Kd <= 0 {
		t.Errorf("PID gains = %+v, want all positive", g)
	}
	// Ti = 4*Td by default: Kp/Ki = 4*Kd/Kp.
	ti := g.Kp / g.Ki
	td := g.Kd / g.Kp
	if math.Abs(ti/td-4) > 1e-6 {
		t.Errorf("Ti/Td = %v, want 4", ti/td)
	}
}

func TestTunePIHasNoDerivative(t *testing.T) {
	g := MustTune(paperPlant(), Spec{Kind: KindPI})
	if g.Kd != 0 {
		t.Errorf("PI Kd = %v, want 0", g.Kd)
	}
	if g.Ki <= 0 {
		t.Errorf("PI Ki = %v, want > 0", g.Ki)
	}
}

func TestTuneRejectsBadInputs(t *testing.T) {
	if _, err := Tune(Plant{}, Spec{}); err == nil {
		t.Error("Tune accepted zero plant")
	}
	if _, err := Tune(paperPlant(), Spec{PhaseMargin: -1}); err == nil {
		t.Error("Tune accepted negative phase margin")
	}
	if _, err := Tune(paperPlant(), Spec{Kind: Kind(42)}); err == nil {
		t.Error("Tune accepted unknown kind")
	}
	if _, err := Tune(paperPlant(), Spec{Kind: KindPID, TiOverTd: -3}); err == nil {
		t.Error("Tune accepted negative Ti/Td")
	}
}

func TestMustTunePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTune did not panic")
		}
	}()
	MustTune(Plant{}, Spec{})
}

func TestQuantizeEightLevels(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.01, 0}, {0.5, 4.0 / 7}, {1, 1}, {1.5, 1},
		{1.0 / 7, 1.0 / 7}, {0.09, 1.0 / 7}, {0.06, 0},
	}
	for _, c := range cases {
		got := Quantize(c.in, 8)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantize(%v, 8) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeProperty(t *testing.T) {
	f := func(u float64, n8 uint8) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		n := int(n8%14) + 2
		q := Quantize(u, n)
		if q < 0 || q > 1 {
			return false
		}
		// q must be k/(n-1) for integer k.
		k := q * float64(n-1)
		if math.Abs(k-math.Round(k)) > 1e-9 {
			return false
		}
		// Within half a step of the clamped input.
		cu := math.Max(0, math.Min(1, u))
		return math.Abs(q-cu) <= 0.5/float64(n-1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizePanicsOnOneLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize with 1 level did not panic")
		}
	}()
	Quantize(0.5, 1)
}

func TestPIDFullSpeedWhenCool(t *testing.T) {
	g := MustTune(paperPlant(), Spec{Kind: KindPID})
	c := NewPID(g, 111.1, 0.2, paperTs)
	if u := c.Update(100); u != 1 {
		t.Errorf("duty at 100 C = %v, want 1 (full speed)", u)
	}
	if !c.Saturated() {
		t.Error("controller should be saturated at full speed")
	}
}

func TestPIDThrottlesWhenHot(t *testing.T) {
	g := MustTune(paperPlant(), Spec{Kind: KindPID})
	c := NewPID(g, 111.1, 0.2, paperTs)
	c.Update(100)
	if u := c.Update(112.0); u != 0 {
		t.Errorf("duty at 112 C = %v, want 0 (fully toggled)", u)
	}
}

func TestPIDErrorConventionMonotone(t *testing.T) {
	// Hotter measurement never yields a higher duty.
	g := Gains{Kp: 5, Ki: 0, Kd: 0}
	prev := math.Inf(1)
	for temp := 110.0; temp <= 112.0; temp += 0.05 {
		c := NewPID(g, 111.1, 0, paperTs)
		u := c.Update(temp)
		if u > prev+1e-12 {
			t.Fatalf("duty increased with temperature at %v C", temp)
		}
		prev = u
	}
}

func TestPIDSensorRangeClipsError(t *testing.T) {
	g := Gains{Kp: 1}
	c := NewPID(g, 111.1, 0.2, paperTs)
	// Error clipped to 0.2 => duty = Kp*0.2 even when far below setpoint.
	if u := c.Update(50); math.Abs(u-0.2) > 1e-12 {
		t.Errorf("clipped duty = %v, want 0.2", u)
	}
}

func TestPIDIntegralNeverNegative(t *testing.T) {
	g := Gains{Kp: 1, Ki: 1e5}
	c := NewPID(g, 111.1, 0, paperTs)
	for i := 0; i < 1000; i++ {
		c.Update(115) // persistently overheated: raw integral would dive
	}
	if c.Integral() < 0 {
		t.Errorf("integral = %v, want >= 0", c.Integral())
	}
}

// The paper's windup scenario (Section 3.3): a long cool period must not
// accumulate unbounded integral that delays the response to a subsequent
// overheat.
func TestPIDAntiWindupBoundsIntegral(t *testing.T) {
	g := MustTune(paperPlant(), Spec{Kind: KindPI})
	c := NewPID(g, 111.1, 0.2, paperTs)
	for i := 0; i < 100000; i++ {
		c.Update(100) // cool: actuator saturates at full speed
	}
	withAW := c.Integral()

	c2 := NewPID(g, 111.1, 0.2, paperTs)
	c2.DisableAntiWindup = true
	for i := 0; i < 100000; i++ {
		c2.Update(100)
	}
	if withAW >= c2.Integral() {
		t.Errorf("anti-windup integral %v not smaller than wound-up %v",
			withAW, c2.Integral())
	}
	// With anti-windup, one hot sample must immediately pull the output
	// off the upper saturation bound within a few samples.
	var u float64
	for i := 0; i < 5; i++ {
		u = c.Update(112)
	}
	if u >= 1 {
		t.Errorf("anti-windup controller stuck at full speed after overheat (u=%v)", u)
	}
}

// TestPIDAntiWindupAblation exercises the Section 3.3 windup protection as
// an explicit on/off ablation with the controller's introspection hooks:
// under sustained upper-bound saturation the integrator must freeze (and
// report it via Frozen), must never go negative in either mode, and on
// release the protected controller must leave the bound within a couple of
// samples while the wound-up one stays pinned for thousands.
func TestPIDAntiWindupAblation(t *testing.T) {
	mk := func(disable bool) *PID {
		c := NewPID(Gains{Kp: 0.5, Ki: 50}, 100, 0, 1e-3)
		c.DisableAntiWindup = disable
		return c
	}
	const satSteps = 2000

	aw, raw := mk(false), mk(true)
	for i := 0; i < satSteps; i++ {
		// Far below setpoint: e = +10, both saturate at the upper bound.
		ua, ur := aw.Update(90), raw.Update(90)
		if ua != 1 || ur != 1 {
			t.Fatalf("step %d: not saturated high (ua=%v ur=%v)", i, ua, ur)
		}
		if !aw.Saturated() || !aw.Frozen() {
			t.Fatalf("step %d: protected controller not saturated+frozen", i)
		}
		if raw.Frozen() {
			t.Fatalf("step %d: ablated controller reported a freeze", i)
		}
		if aw.Integral() < 0 || raw.Integral() < 0 {
			t.Fatalf("step %d: negative integral", i)
		}
	}
	if got := aw.Integral(); got != 0 {
		t.Errorf("frozen integrator drifted to %v", got)
	}
	// Ablated: integral grows e*Ts per step = 0.01 * satSteps.
	if got, want := raw.Integral(), 10*1e-3*satSteps; math.Abs(got-want) > 1e-6*want {
		t.Errorf("wound-up integral = %v, want ~%v", got, want)
	}
	if _, i, _ := raw.Terms(); i < 999 {
		t.Errorf("wound-up I term = %v, want ~1000", i)
	}

	// Release: slightly above setpoint. The protected controller must come
	// off the upper bound essentially immediately; the wound-up integral
	// (~20, discharging 5e-4 per step) pins the ablated one for thousands
	// of samples — the overshoot blow-up the paper's rule prevents.
	recovery := func(c *PID, limit int) int {
		for i := 1; i <= limit; i++ {
			if c.Update(100.5) < 1 {
				return i
			}
		}
		return limit + 1
	}
	const limit = 10_000
	if steps := recovery(aw, limit); steps > 2 {
		t.Errorf("protected controller took %d steps to leave saturation, want <= 2", steps)
	}
	if steps := recovery(raw, limit); steps <= 1000 {
		t.Errorf("ablated controller recovered in %d steps; windup should pin it far longer", steps)
	}
	// Even while discharging a huge windup under negative error, the
	// integral must never cross zero.
	for i := 0; i < 1000; i++ {
		raw.Update(150) // e clamps the integral discharge hard
		if raw.Integral() < 0 {
			t.Fatal("integral went negative during discharge")
		}
	}
}

func TestPIDResetClearsState(t *testing.T) {
	g := Gains{Kp: 1, Ki: 100, Kd: 1e-6}
	c := NewPID(g, 111.1, 0, paperTs)
	c.Update(110)
	c.Update(110.5)
	c.Reset()
	if c.Integral() != 0 || c.primed || c.Saturated() {
		t.Error("Reset did not clear controller state")
	}
}

func TestNewPIDPanicsOnBadTs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPID with ts=0 did not panic")
		}
	}()
	NewPID(Gains{Kp: 1}, 111, 0, 0)
}

// Closed-loop regulation: under a full-power disturbance, the PI and PID
// loops must pull the temperature to the setpoint with no emergency
// (setpoint + 0.2) excursion — the paper's headline property.
func TestClosedLoopRegulationNoEmergency(t *testing.T) {
	p := paperPlant()
	const setpoint, emergency = 111.1, 111.3
	for _, kind := range []Kind{KindPI, KindPID} {
		g := MustTune(p, Spec{Kind: kind})
		ctl := NewPID(g, setpoint, 0.2, paperTs)
		tr := SimulateLoop(p, ctl, LoopConfig{
			Ambient:  100,
			Duration: 5e-3, // ~28 time constants
			Levels:   8,
		})
		if hot := tr.MaxTemp(); hot > emergency {
			t.Errorf("%v: max temp %v exceeds emergency %v", kind, hot, emergency)
		}
		// Must actually regulate near the setpoint, not just stay cold:
		// with K=12 the uncontrolled steady state would be 112.
		n := len(tr.Temp)
		tail := tr.Temp[n-n/10:]
		var mean float64
		for _, v := range tail {
			mean += v
		}
		mean /= float64(len(tail))
		if math.Abs(mean-setpoint) > 0.25 {
			t.Errorf("%v: settled at %v, want ~%v", kind, mean, setpoint)
		}
	}
}

// P control must leave a steady-state offset below the setpoint; PI must
// remove it. This is the textbook behaviour the paper leans on when giving
// P a lower setpoint than PI/PID.
func TestProportionalOffsetEliminatedByIntegral(t *testing.T) {
	p := paperPlant()
	const setpoint = 111.1
	run := func(kind Kind) float64 {
		g := MustTune(p, Spec{Kind: kind})
		ctl := NewPID(g, setpoint, 0.5, paperTs)
		tr := SimulateLoop(p, ctl, LoopConfig{Ambient: 100, Duration: 5e-3})
		return tr.Temp[len(tr.Temp)-1]
	}
	pFinal := run(KindP)
	piFinal := run(KindPI)
	if !(pFinal < setpoint-0.01) {
		t.Errorf("P controller settled at %v, want visible offset below %v", pFinal, setpoint)
	}
	if math.Abs(piFinal-setpoint) > 0.02 {
		t.Errorf("PI controller settled at %v, want ~%v", piFinal, setpoint)
	}
}

func TestSimulateLoopDemandDisturbance(t *testing.T) {
	p := paperPlant()
	g := MustTune(p, Spec{Kind: KindPI})
	ctl := NewPID(g, 111.1, 0.2, paperTs)
	// Demand switches off halfway: temperature must fall and duty must
	// return to full speed.
	tr := SimulateLoop(p, ctl, LoopConfig{
		Ambient:  100,
		Duration: 10e-3,
		Demand: func(t float64) float64 {
			if t < 5e-3 {
				return 1
			}
			return 0.1
		},
	})
	if tr.U[len(tr.U)-1] != 1 {
		t.Errorf("final duty = %v, want 1 after load drop", tr.U[len(tr.U)-1])
	}
	if tr.Temp[len(tr.Temp)-1] > 102 {
		t.Errorf("final temp = %v, want cooled near ambient+K*0.1", tr.Temp[len(tr.Temp)-1])
	}
}

func TestTraceMetrics(t *testing.T) {
	tr := Trace{
		Time: []float64{0, 1, 2, 3},
		Temp: []float64{100, 112, 111.2, 111.15},
		U:    []float64{1, 0, 0.5, 0.5},
	}
	if o := tr.Overshoot(111.1); math.Abs(o-0.9) > 1e-9 {
		t.Errorf("overshoot = %v, want 0.9", o)
	}
	if st := tr.SettlingTime(111.1, 0.15); st != 2 {
		t.Errorf("settling time = %v, want 2", st)
	}
	if st := tr.SettlingTime(111.1, 0.01); st != -1 {
		t.Errorf("settling time = %v, want -1 (never)", st)
	}
	if m := tr.MaxTemp(); m != 112 {
		t.Errorf("max temp = %v", m)
	}
	if d := tr.MeanDuty(); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("mean duty = %v, want 0.5", d)
	}
}

func TestSimulateLoopPanicsOnBadDuration(t *testing.T) {
	g := Gains{Kp: 1}
	ctl := NewPID(g, 111, 0, paperTs)
	defer func() {
		if recover() == nil {
			t.Fatal("SimulateLoop with zero duration did not panic")
		}
	}()
	SimulateLoop(paperPlant(), ctl, LoopConfig{})
}

// Settling time of the tuned closed loop should be a small multiple of the
// plant time constant — the responsiveness the paper exploits.
func TestSettlingWithinFewTimeConstants(t *testing.T) {
	p := paperPlant()
	g := MustTune(p, Spec{Kind: KindPID})
	ctl := NewPID(g, 111.1, 0.2, paperTs)
	tr := SimulateLoop(p, ctl, LoopConfig{Ambient: 100, Duration: 5e-3})
	st := tr.SettlingTime(111.1, 0.1)
	if st < 0 || st > 10*p.Tau {
		t.Errorf("settling time = %v s, want within 10 tau (%v)", st, 10*p.Tau)
	}
}

func TestQuantizeNaNFailsToFullSpeed(t *testing.T) {
	// A divergent controller emitting NaN must not latch the actuator:
	// Quantize fails toward full speed so the thermal trigger can
	// re-engage a healthy policy.
	if got := Quantize(math.NaN(), 8); got != 1 {
		t.Errorf("Quantize(NaN, 8) = %v, want 1", got)
	}
	if got := Quantize(math.NaN(), 2); got != 1 {
		t.Errorf("Quantize(NaN, 2) = %v, want 1", got)
	}
}

func TestPIDUpdateStaysFiniteForFiniteInputs(t *testing.T) {
	// Guard: no finite measurement sequence may produce a NaN command.
	for _, kind := range []Kind{KindP, KindPI, KindPID} {
		g := MustTune(paperPlant(), Spec{Kind: kind})
		c := NewPID(g, 111.1, 0.2, paperTs)
		for i, m := range []float64{100, 150, -40, 111.1, 1e6, -1e6, 111.3, 0} {
			u := c.Update(m)
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("%v: Update #%d (%v) = %v", kind, i, m, u)
			}
			if u < 0 || u > 1 {
				t.Fatalf("%v: Update #%d (%v) = %v outside [0,1]", kind, i, m, u)
			}
		}
	}
}
